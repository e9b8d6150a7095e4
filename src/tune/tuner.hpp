// Autotuner accelerated by critter's selective execution (paper §VI).
//
// Public facade of the tuning subsystem, which is layered as (tune/sweep.hpp
// has the batch executor, tune/evaluator.hpp the per-configuration protocol,
// tune/strategy.hpp the search-strategy registry, tune/workload.hpp the
// workload registry and studies, tune/param_space.hpp the generic
// configuration model):
//
//   SearchStrategy  — which configurations to evaluate, in which batches;
//                     string-named factories in a registry ("exhaustive",
//                     "random-subset", "ci-discard", "halving", plus
//                     user-registered ones);
//   Evaluator       — one configuration's protocol: optional a-priori
//                     instrumented pass, one full reference execution, then
//                     up to `samples` selective executions;
//   SweepDriver     — executes one strategy batch in the planned mode:
//                     serial, isolated-parallel (per-configuration
//                     statistics reset), or batch-shared-parallel (workers
//                     evaluate a batch against a shared statistics snapshot
//                     and their deltas merge in configuration order);
//   Tuner           — the stateful ask/tell session over all of the above:
//                     ask() yields a batch, evaluate() runs it, tell()
//                     feeds outcomes back, export_state() hands the shared
//                     statistics out (TuneOptions::warm_start seeds them),
//                     and resume() rebuilds a session from a journaled
//                     history (the shard worker's and the tuner daemon's).
//
// A study runs through one of four paths: run_study(), a thin loop over a
// Tuner session (bit-identical to the pre-session sweep, asserted in
// tests); dist::run_sharded() with a ShardExecutor (dist/executor.hpp),
// which fans the sweep across shard sessions and merges their statistics
// deterministically; a hand-driven Tuner; or a serve::TunerClient
// evaluating a daemon's session.  app/front_end.hpp picks one from the
// command line.  Nothing in tune/ depends on dist/ or serve/.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "core/stat_store.hpp"
#include "tune/workload.hpp"

namespace critter::tune {

class SearchStrategy;
class SweepDriver;
struct EvalControl;

/// One configuration's contribution to the sweep-wide totals.  Kept per
/// configuration and reduced in index order at the end so every sweep mode
/// produces bit-identical TuneResults.
struct ConfigTotals {
  double tuning_time = 0.0;
  double full_time = 0.0;
  double kernel_time = 0.0;
  double full_kernel_time = 0.0;

  ConfigTotals& operator+=(const ConfigTotals& o) {
    tuning_time += o.tuning_time;
    full_time += o.full_time;
    kernel_time += o.kernel_time;
    full_kernel_time += o.full_kernel_time;
    return *this;
  }
};

/// How the sweep actually executed (recorded in TuneResult so drivers can
/// surface the effective mode instead of silently degrading).
enum class SweepMode : std::uint8_t {
  Serial,            ///< one store, configurations in sequence
  ParallelIsolated,  ///< per-configuration stores, statistics reset
  BatchShared,       ///< batch-synchronous shared-statistics sweep
};

const char* sweep_mode_name(SweepMode m);

struct TuneOptions {
  Policy policy = Policy::ConditionalExecution;
  double tolerance = 0.25;
  int samples = 3;
  /// Reset kernel statistics between configurations (paper: on for SLATE
  /// and CANDMC, off for Capital; never honored for eager propagation).
  bool reset_per_config = false;
  std::uint64_t seed_salt = 0;
  double comp_noise = 0.08;
  double comm_noise = 0.08;
  /// Internal-message ~K capacity (profiling-overhead ablation knob).
  int tilde_capacity = 256;
  /// Enable the §VIII cross-size kernel-model extrapolation extension.
  bool extrapolate = false;
  /// Evaluate configurations on a work-stealing pool of this many workers.
  /// Sweeps whose configurations are statistically isolated
  /// (`reset_per_config`, non-eager, non-extrapolate) parallelize
  /// bit-identically to the serial sweep.  Sweeps that share statistics
  /// across configurations (eager propagation, persistent-stats sweeps,
  /// extrapolation) run batch-synchronously: workers evaluate a batch
  /// against a shared statistics snapshot and merge their deltas in
  /// configuration order at a barrier, so results are deterministic for a
  /// given (seed, batch size) regardless of worker count.  The effective
  /// mode is recorded in TuneResult.
  int workers = 1;
  /// Batch size of the batch-shared sweep (0: use `workers`).  Also forces
  /// the batch-shared path when set on a shared-statistics sweep with
  /// workers == 1, which is how a single-worker run reproduces a
  /// multi-worker run exactly.
  int batch = 0;
  /// Search strategy: a registry name plus a string option map (see
  /// tune/strategy.hpp).  Built-ins: "exhaustive" (the paper's protocol),
  /// "random-subset" (count=N), "ci-discard" (margin=X), "halving"
  /// (eta=N,min-samples=N).  User code may register more.
  std::string strategy = "exhaustive";
  std::map<std::string, std::string> strategy_options;
  /// Restrict the sweep to configurations [config_begin, config_end)
  /// (config_end < 0: to the end).  Noise salts stay indexed by absolute
  /// configuration index, so a sweep split into ranges — e.g. interrupted
  /// and warm-started, or sharded via dist::run_sharded() — reproduces the
  /// uninterrupted sweep exactly when configurations are statistically
  /// isolated.
  int config_begin = 0;
  int config_end = -1;
  /// Warm-start statistics (typically a previous sweep's
  /// TuneResult::stats round-tripped through StatSnapshot::save/load).
  /// Honored by serial and batch-shared sweeps; isolated-parallel sweeps
  /// reset statistics per configuration and ignore it.  Consumed at Tuner
  /// construction, which copies it into the session.
  const core::StatSnapshot* warm_start = nullptr;
  /// Prior snapshot feeding model-based strategies ("copula-transfer",
  /// and anything user-registered that overrides ingest_prior), consumed
  /// at Tuner construction; when unset, warm_start doubles as the prior.
  /// A prior travels only in memory: the front end (app/front_end.hpp)
  /// loads --prior=FILE into it, the subprocess executor publishes it as
  /// prior.snap and the daemon client ships its bytes in OPEN.  Unlike
  /// warm_start, the prior does NOT seed the sweep's kernel statistics — it
  /// only informs the search model; combine both to get the paper-exact
  /// warm-start behavior plus a model prior.
  const core::StatSnapshot* prior = nullptr;
};

struct ConfigOutcome {
  Configuration config;
  double true_time = 0.0;       ///< mean uninstrumented execution time
  double pred_time = 0.0;       ///< mean modeled (selective) execution time
  double err = 0.0;             ///< mean relative execution-time error
  double true_comp_time = 0.0;  ///< critical-path computation time (full)
  double pred_comp_time = 0.0;
  double comp_err = 0.0;
  double sel_wall = 0.0;         ///< selective wall time (summed samples)
  double sel_kernel_time = 0.0;  ///< max-over-ranks executed kernel time
  std::int64_t executed = 0;
  std::int64_t skipped = 0;
  bool evaluated = false;  ///< false: skipped by the search strategy
  bool pruned = false;     ///< CI early-discard abandoned later samples
  int samples_used = 0;
};

/// One batch of a session's history, as a journal records it and
/// Tuner::resume() replays it: ask()'s positions and tell()'s outcomes.
struct ToldBatch {
  std::vector<int> positions;  ///< study.configs positions, ascending
  std::vector<ConfigOutcome> outcomes;
};

/// Wall-clock seconds a tuning session spent per phase — the cost
/// attribution the observability layer surfaces (DESIGN.md §14).  Sharded
/// results sum their shards' breakdowns (total CPU seconds, not elapsed
/// wall time).  Timing metadata only: non-deterministic across runs and
/// excluded from every bit-identity contract — nothing may branch on it.
struct PhaseTimes {
  double ask = 0.0;         ///< strategy batch selection
  double evaluate = 0.0;    ///< simulated evaluation (the sweep itself)
  double tell = 0.0;        ///< outcome feedback + strategy observation
  double exchange = 0.0;    ///< dist only: publishing/absorbing peer deltas
  double checkpoint = 0.0;  ///< dist only: checkpoint build + publish
  double total() const { return ask + evaluate + tell + exchange + checkpoint; }
};

/// One shard's fault-recovery record from a distributed run — filled by
/// dist::run_sharded() from the executor's ShardResults (all-zero entries
/// for executors that cannot fault, e.g. in-process shards).
struct ShardRecovery {
  int shard = 0;
  int retries = 0;          ///< relaunches consumed
  bool recovered = false;   ///< completed after >= 1 relaunch
  bool degraded = false;    ///< completed by the launcher's fallback
  int exchange_skips = 0;   ///< non-strict exchange rounds skipped
  int checkpoints = 0;      ///< checkpoints the final worker published
  int resumed_batches = 0;  ///< batches replayed from a resume checkpoint
  std::string last_failure;
};

struct TuneResult {
  std::vector<ConfigOutcome> per_config;
  /// Per-configuration contributions to the aggregate costs below, indexed
  /// like per_config.  dist::run_sharded() re-reduces these in configuration
  /// order, so its aggregates are bit-identical to an unsharded sweep's.
  std::vector<ConfigTotals> per_config_totals;
  double tuning_time = 0.0;       ///< exhaustive-search time with critter
  double full_time = 0.0;         ///< exhaustive search with full execution
  double kernel_time = 0.0;       ///< selective max kernel comp time, summed
  double full_kernel_time = 0.0;  ///< same for the full executions

  // --- effective sweep execution (see TuneOptions::workers) ---
  SweepMode mode = SweepMode::Serial;
  std::string strategy;  ///< search strategy that drove the sweep
  int requested_workers = 1;
  int effective_workers = 1;
  int batch = 0;               ///< batch size used (batch-shared sweeps)
  int shards = 0;              ///< >0 when produced by a sharded run
  /// Executor a sharded run used ("in-process" / "subprocess"; empty for
  /// unsharded sweeps) and its mid-sweep exchange schedule: the interval in
  /// batches (0 = final-fold only) and the total delta-publish rounds the
  /// shards performed.
  std::string executor;
  int exchange_every = 0;
  int exchange_rounds = 0;
  /// Exchange payload bytes the shards moved through the shared store
  /// (sparse deltas + live peer reads; zero for executors without wire
  /// accounting, e.g. in-process shards) — divide by exchange_rounds for
  /// the per-round transport cost the sparse codec is shrinking.
  std::int64_t exchange_bytes = 0;
  /// Exchange semantics of a sharded run (see dist::ExchangePolicy::strict)
  /// and the fleet-wide count of non-strict rounds skipped.
  bool exchange_strict = true;
  int exchange_skips = 0;
  /// Per-shard fault-recovery records of a sharded run (empty otherwise).
  std::vector<ShardRecovery> shard_recovery;
  /// Where the session's wall time went (summed across shards for sharded
  /// runs); printed by the examples.  See PhaseTimes for the contract.
  PhaseTimes phases;
  int evaluated_configs = 0;   ///< configurations actually evaluated
  /// Non-empty when fewer workers engaged than requested, with the reason.
  std::string fallback_reason;
  /// Final persistent statistics of serial and batch-shared sweeps (empty
  /// for isolated sweeps, whose statistics die with each configuration).
  /// Persist with StatSnapshot::save_file and warm-start a later sweep.
  core::StatSnapshot stats;

  // Aggregates below consider evaluated configurations only.
  double mean_err() const;
  double mean_log2_err() const;       ///< Fig 4e/4f/5e/5f y-axis
  double mean_log2_comp_err() const;  ///< Fig 4d/5d y-axis
  int best_predicted() const;
  int best_true() const;
  /// true_time(best_true) / true_time(best_predicted): 1.0 == optimal pick.
  double selection_quality() const;
};

/// A stateful ask/tell tuning session: the incremental form of run_study.
///
///   Tuner session(study, opt);
///   while (!session.done()) {
///     auto batch = session.ask();               // claim a batch
///     auto outcomes = session.evaluate(batch);  // run it (or measure
///     session.tell(outcomes);                   //  externally) and report
///   }
///   TuneResult r = session.result();
///
/// The session owns the shared statistics (the serial store or the
/// batch-shared snapshot): TuneOptions::warm_start seeds them, export_state()
/// hands them out, and merge_state()/resume() fold in a peer's or a
/// journal's, so interrupted, warm-started, and sharded sweeps are
/// first-class.  The study and options are copied in, so the session may
/// outlive both.
class Tuner {
 public:
  Tuner(const Study& study, const TuneOptions& opt);
  ~Tuner();
  Tuner(const Tuner&) = delete;
  Tuner& operator=(const Tuner&) = delete;

  /// Claim the next batch of configuration indices from the strategy (and
  /// snapshot its evaluation hints).  Empty when the search is finished.
  /// The previous batch must have been tell()'d first.
  std::vector<int> ask();

  /// Evaluate the claimed batch in the planned sweep mode, merging its
  /// statistics into the session state, and return its outcomes in batch
  /// order.  Does not feed the strategy — follow with tell().
  std::vector<ConfigOutcome> evaluate(const std::vector<int>& batch);

  /// Report the claimed batch's outcomes (from evaluate() or an external
  /// measurement), in batch order; the strategy observes them in
  /// configuration order.  Externally produced outcomes contribute no
  /// kernel statistics — only evaluate() grows the shared state.
  void tell(const std::vector<ConfigOutcome>& outcomes);

  /// The remote form of evaluate()+tell(): report a claimed batch that a
  /// *mirror* evaluator ran elsewhere (a SweepDriver seeded with the
  /// session's shared statistics and fed this session's control()),
  /// together with the per-entry totals contributions, in batch order, then
  /// tell the outcomes.  The statistics the mirror grew stay with whoever
  /// holds them: the tuner daemon keeps them as serialized bytes, since
  /// asks are a pure function of told outcomes and priors and this session
  /// never reads its own statistics (DESIGN.md §12.3).
  void tell_evaluated(const std::vector<ConfigOutcome>& outcomes,
                      const std::vector<ConfigTotals>& batch_totals);

  /// Evaluation hints the last ask() snapshotted for the claimed batch —
  /// what a remote evaluator needs to mirror evaluate() exactly.
  const EvalControl& control() const;

  /// True once ask() returned an empty batch.
  bool done() const { return done_; }

  /// Current shared statistics (empty snapshot in isolated mode).
  core::StatSnapshot export_state() const;

  /// Fold a peer's statistics delta into the session mid-sweep — the
  /// distributed executors' periodic-exchange hook.  Legal between tell()
  /// and the next ask() (never with a batch claimed: the claimed batch's
  /// evaluation must be a pure function of the statistics ask() saw).
  /// Isolated sessions ignore it, like warm_start.
  void merge_state(const core::StatSnapshot& delta);

  /// Rebuild the session from a journaled history (a shard worker's
  /// checkpoint, a tuner daemon's session).  Seeds `stats` when given,
  /// then re-asks and re-tells every batch of `told`, throwing if the
  /// strategy proposes any other batch (replay, not trust: asks are a pure
  /// function of told outcomes and ingested priors).  After the k-th batch
  /// (1-based) only the strategy ingests `absorbed(k)`, the exchange deltas
  /// the live session absorbed there — the imported statistics hold them.
  /// Then sets the totals, which tells do not carry, from `range_totals`
  /// (indexed from config_begin()).  Only legal before the first ask().
  void resume(const core::StatSnapshot* stats,
              const std::vector<ToldBatch>& told,
              const std::vector<ConfigTotals>& range_totals,
              const std::function<std::vector<core::StatSnapshot>(int k)>&
                  absorbed = {});

  /// The accumulated per-configuration totals (what resume() sets and
  /// result() reduces) — the dist layer checkpoints these.
  const std::vector<ConfigTotals>& totals() const { return totals_; }

  const Study& study() const { return study_; }
  const TuneOptions& options() const { return opt_; }
  SweepMode mode() const;
  int config_begin() const;
  int config_end() const;

  /// Assemble the TuneResult from the outcomes observed so far (callable
  /// mid-session for a partial view).
  TuneResult result() const;

 private:
  /// Seed the shared statistics (warm start, resume).  Only legal before
  /// the first ask(); isolated-parallel sessions ignore the snapshot (they
  /// have no shared statistics to seed — the documented warm_start
  /// contract).
  void import_state(const core::StatSnapshot& snap);

  Study study_;
  TuneOptions opt_;
  std::unique_ptr<SweepDriver> driver_;
  std::unique_ptr<SearchStrategy> strategy_;
  std::unique_ptr<EvalControl> control_;  ///< hints for the claimed batch
  std::vector<ConfigOutcome> per_config_;
  std::vector<ConfigTotals> totals_;
  PhaseTimes phases_;           ///< accumulated by ask/evaluate/tell
  std::vector<int> pending_;    ///< claimed, not yet told
  bool asked_ = false;          ///< a batch is claimed
  bool evaluated_ = false;      ///< the claimed batch was evaluated
  bool started_ = false;        ///< first ask() happened
  bool done_ = false;
};

TuneResult run_study(const Study& study, const TuneOptions& opt);

/// One fully-instrumented full execution of a configuration (no skipping):
/// the measurement backing the Fig. 3 cost/time panels.  Routed through the
/// Evaluator's reference-execution path.
Report measure_config(const Study& study, const Configuration& cfg,
                      std::uint64_t seed_salt = 0, double noise = 0.08);

/// Human-readable listing of both registries — the registered workloads
/// and search strategies with their one-line summaries.  The examples
/// print this on --help.
std::string registry_help();

}  // namespace critter::tune
