// The approximate-autotuning profiler (paper §III–§IV).
//
// A Store holds per-rank profiler state that persists across simulated runs
// (kernel statistics survive between tuning samples and, unless reset,
// between configurations — that persistence is what the eager policy
// exploits).  Inside an Engine::run body, each rank attaches its slice with
// critter::start(store) and detaches with critter::stop(), which returns the
// run's critical-path report.
//
// Selective execution: every intercepted kernel is either executed (sample
// collected, virtual clock advances) or skipped (its sample mean is charged
// to the online critical-path model P instead).  Communication kernels
// reach a consistent execute/skip decision through a consensus the engine
// runs with the collective (blocking collectives; charged as an internal
// allreduce) or a piggybacked sender-side flag (point-to-point;
// see DESIGN.md for the deliberate divergence from Fig. 2's pseudocode).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stat_store.hpp"
#include "sim/engine.hpp"
#include "util/flat_map.hpp"

namespace critter {

/// Kernel execution policies of §IV-B.
enum class Policy : std::uint8_t {
  ConditionalExecution,  ///< no count propagation; k_eff = 1
  EagerPropagation,      ///< global skip after grid-wide stat aggregation
  LocalPropagation,      ///< k_eff = local invocation count
  OnlinePropagation,     ///< k_eff = count along current sub-critical path
  AprioriPropagation,    ///< k_eff from a prior full execution's path counts
};

const char* policy_name(Policy p);
/// The inverse of policy_name(); throws on an unknown name, listing the
/// known ones.
Policy parse_policy(const std::string& name);

/// Model: kernels advance virtual time only (no data).  Real: kernels also
/// perform actual linear algebra on caller buffers (for correctness tests).
enum class ExecMode : std::uint8_t { Model, Real };

struct Config {
  Policy policy = Policy::ConditionalExecution;
  double tolerance = 0.25;  ///< epsilon: relative CI threshold
  double confidence = 0.95;
  int min_samples = 3;
  ExecMode mode = ExecMode::Model;
  /// false disables skipping (full execution) but keeps profiling.
  bool selective = true;
  /// false disables all interception bookkeeping and internal messages;
  /// used to measure the "true" uninstrumented execution time.
  bool instrument = true;
  /// Capacities of the piggybacked internal message (fixed wire size);
  /// these set the profiling-overhead bytes charged per intercepted
  /// communication kernel (ablated in bench_ablation).
  int tilde_capacity = 64;
  int eager_capacity = 16;
  /// §VIII extension: skip never-executed compute kernels whose (class,
  /// flags) bucket has a tight log-log size model fitted from steady
  /// kernels of other sizes.
  bool extrapolate = false;
};

/// Whether a run under `cfg` keeps ~K, the per-run critical-path kernel
/// counts.  Only two readers exist: the online policy's CI shrink
/// (k_effective) and the a-priori offline pass, whose ~K stop() saves for
/// set_apriori_from_last_run().  Every other run (full references, and
/// conditional, eager, local and a-priori samples) neither bumps, packs nor
/// adopts it; the piggyback is still charged its full wire size.
bool keeps_tilde(const Config& cfg);

/// Metrics propagated along execution paths.  Each metric is max-merged
/// independently, i.e. each has its own critical path (paper Fig. 1).
struct PathMetrics {
  double exec_time = 0.0;  ///< modeled execution time (the estimate of c_phi)
  double comp_time = 0.0;  ///< computation kernel time along the path
  double comm_time = 0.0;  ///< communication kernel time along the path
  double sync_cost = 0.0;  ///< BSP alpha term: number of super-steps
  double comm_cost = 0.0;  ///< BSP beta term: words moved
  double comp_cost = 0.0;  ///< BSP gamma term: flops

  static constexpr int kFields = 6;
  void max_with(const PathMetrics& o);
  double* as_array() { return &exec_time; }
  const double* as_array() const { return &exec_time; }
};

/// Per-rank volumetric counters (not path-propagated).
struct LocalCounters {
  double kernel_comp_time = 0.0;  ///< measured, executed kernels only
  double kernel_comm_time = 0.0;
  double modeled_comp_time = 0.0;  ///< executed + skipped (model view)
  double modeled_comm_time = 0.0;
  double overhead_time = 0.0;  ///< internal propagation message time
  double flops = 0.0;
  double words = 0.0;
  double syncs = 0.0;
  std::int64_t executed = 0;
  std::int64_t skipped = 0;
  std::int64_t extrapolated = 0;  ///< skipped via the cross-size model
};

/// Per-rank profiler state.  The persistent statistics lifecycle (K, the
/// channel registry, the size model, the epoch) lives in a core::KernelTable
/// so it can be snapshotted, merged, and persisted independently of the
/// per-run path state (P, ~K), which resets at start().
struct RankProfiler {
  using CountMap = util::FlatMap<std::uint64_t, std::int64_t, util::IdentityHash>;

  // --- persistent across runs (see core/stat_store.hpp) ---
  core::KernelTable table;
  CountMap apriori;  // kernel hash -> critical-path count (per configuration)

  // --- channel caches, valid for the store's lifetime ---
  /// Peer world rank -> size-2 pair channel hash (0: not yet computed).  A
  /// pair channel depends only on the two world ranks, and pair channels
  /// are never registered (see mpi.cc p2p_channel).
  std::vector<std::uint64_t> pair_chan;
  /// Sorted member list -> the channel hash it factors into, keyed by the
  /// list's checksum64; an entry keeps its list so a hit can be verified.
  struct MemberChannel {
    std::vector<int> members;
    std::uint64_t hash = 0;
  };
  std::unordered_map<std::uint64_t, MemberChannel> chan_of_members;

  // --- per-run state ---
  PathMetrics path;
  /// keeps_tilde(config) for this run, set at start().  A profiler built by
  /// hand keeps ~K.
  bool keep_tilde = true;
  CountMap tilde;  // ~K: cp counts
  LocalCounters local;
  /// Sim comm id -> channel hash (0: not yet resolved this run).  Comm ids
  /// are engine-local and dense, so this is cleared at start().
  std::vector<std::uint64_t> chan_of_comm;
  /// Interned-handle cache, one slot per kernel class: a kernel loop
  /// interleaves classes (gemm, trsm, bcast, ...) but tends to repeat each
  /// class's signature, so each slot remembers its class's last dense
  /// arena index and is revalidated with a single key compare (the entry
  /// holds its key).  Indices survive inserts (the arena never moves
  /// entries) and are invalidated on reset_statistics()/restore().
  std::array<std::uint32_t, core::kKernelClassCount> cached_idx;
  double start_clock = 0.0;
  bool active = false;

  // --- snapshot of the last completed run (for a-priori propagation) ---
  double last_exec_time = 0.0;
  CountMap last_tilde;  // empty unless the run kept ~K

  RankProfiler() { forget_kernel_handles(); }
  /// Empty every cached_idx slot (K was cleared or replaced).
  void forget_kernel_handles() { cached_idx.fill(core::KernelArena::npos); }
};

/// The profiler store shared by all ranks of a simulated job; persists
/// across Engine::run invocations (one Engine per run).
class Store {
 public:
  Store(int nranks, Config cfg);

  Config& config() { return cfg_; }
  const Config& config() const { return cfg_; }
  /// Replace the profiler settings, as the constructor takes them; the
  /// statistics are untouched.
  void configure(Config cfg);
  int nranks() const { return static_cast<int>(ranks_.size()); }
  RankProfiler& rank(int r) { return ranks_.at(r); }

  /// Advance the tuning epoch (call when switching to a new configuration;
  /// non-eager policies re-execute every kernel at least once per epoch).
  void new_epoch();

  /// Clear all kernel statistics (paper: done between configurations for
  /// SLATE's and CANDMC's algorithms).
  void reset_statistics();

  /// After a full (non-selective) run, install its critical-path kernel
  /// execution counts as the a-priori table on every rank.
  void set_apriori_from_last_run();

  /// Deep copy of every rank's persistent statistics (the statistics
  /// lifecycle's snapshot point; see core/stat_store.hpp).
  core::StatSnapshot snapshot() const;

  /// Replace every rank's persistent statistics with the snapshot's.
  /// Rank counts must match.  Invalidate-sensitive caches are cleared.
  void restore(const core::StatSnapshot& snap);

  /// Per-rank statistics delta accumulated since `base` was captured from
  /// (or restored into) this store: base.merge(diff) reproduces the
  /// current state.
  core::StatSnapshot diff(const core::StatSnapshot& base) const;

 private:
  Config cfg_;
  std::vector<RankProfiler> ranks_;
};

/// Attach the current sim rank to its profiler slice; must be called inside
/// an Engine::run body before any critter::mpi / critter::blas call.
void start(Store& store);

/// Current rank's profiler (between start and stop).
RankProfiler& prof();
Store& store();
const Config& config();

/// Report of one run; identical on every rank (built via a final reduction).
struct Report {
  PathMetrics critical;  ///< per-metric maxima over ranks (critical paths)
  PathMetrics volavg;    ///< volumetric averages over ranks
  double wall_time = 0.0;             ///< max elapsed virtual time (tuning cost)
  double max_kernel_comp_time = 0.0;  ///< max over ranks, executed kernels
  double max_modeled_comp_time = 0.0;
  double overhead_time = 0.0;  ///< max over ranks of internal-message time
  std::int64_t executed = 0;
  std::int64_t skipped = 0;
  int p = 0;
};

/// Final path/counter reduction; detaches the rank from the store.
Report stop();

// --- internals shared by the interception layers ---
namespace detail {
/// Channel hash for a communicator: cached per run by comm id and per store
/// by sorted member list; registered whenever the registry lacks it.
std::uint64_t channel_of(sim::Comm c);
/// K lookup through the rank's per-class interned-handle cache: a hit is an
/// index load plus one key compare — no hashing, no probe.
inline core::KernelStats& stats_for(RankProfiler& rp,
                                    const core::KernelKey& key) {
  core::KernelArena& K = rp.table.K;
  std::uint32_t& cached = rp.cached_idx[static_cast<int>(key.cls)];
  if (cached != core::KernelArena::npos) {
    core::KernelArena::value_type& e = K.entry(cached);
    if (e.first == key) return e.second;
  }
  cached = K.insert_index(key).first;
  return K.entry(cached).second;
}
/// Effective critical-path count for the CI shrink, per policy.
std::int64_t k_effective(const RankProfiler& rp, const Config& cfg,
                         const core::KernelKey& key,
                         const core::KernelStats& ks);
/// Local execute decision for a kernel (before any inter-rank agreement).
bool wants_execution(const RankProfiler& rp, const Config& cfg,
                     const core::KernelKey& key, const core::KernelStats& ks);
/// Record a kernel on the local path: bumps the invocation counters, and ~K
/// if the run keeps it.
void note_invocation(RankProfiler& rp, const core::KernelKey& key,
                     core::KernelStats& ks);
}  // namespace detail

}  // namespace critter
