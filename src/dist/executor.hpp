// Distributed sweep execution: shards as first-class execution units.
//
// run_sharded() partitions a sweep into contiguous shards and folds their
// results; a ShardExecutor owns *how* those shards run.  It runs every
// shard as an independent Tuner session and returns per-shard products for
// the deterministic fold:
//
//   InProcessExecutor   — shards in this process, sequentially (the
//                         reference fold every other executor reproduces)
//                         or thread-parallel across shards;
//   SubprocessExecutor  — one worker process per shard (a re-exec of the
//                         current binary through the --shard-worker entry
//                         point), exchanging versioned StatSnapshot files
//                         through a run directory (core/fsio.hpp), the one
//                         thing the shard processes share.
//
// Periodic mid-sweep exchange (ExchangePolicy::every > 0): after every N
// strategy batches a shard publishes the statistics delta it grew since its
// last publish and folds in the deltas its peers published for the same
// round — so ci-discard/halving-style strategies see cross-shard statistics
// *during* the sweep, not only in the final fold.  The schedule is aligned
// by round: a shard's round-r delta is a pure function of (study, options,
// shard ranges, r), peers' deltas merge in ascending shard order, and a
// shard's own contribution is tracked separately so the final fold counts
// every sample exactly once.  The result is deterministic for a fixed
// (seed, shard count, exchange interval) and identical across executors;
// with exchange off every executor reproduces the sequential in-process
// fold bit-exactly.  DESIGN.md §8 has the full contract.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/stat_store.hpp"
#include "tune/tuner.hpp"

namespace critter::dist {

/// Mid-sweep snapshot exchange schedule: every `every` strategy batches a
/// shard publishes its delta and folds in its peers' (0 = exchange only
/// through the final fold).
///
/// `strict` governs what a shard does when a peer's round delta is not
/// available in time (missing past the exchange deadline, or published but
/// corrupt).  Strict — the default, and the only mode under which the
/// cross-executor determinism contract is asserted — keeps the historical
/// abort semantics: the waiting worker fails and the fleet handles it per
/// its FaultPolicy.  Non-strict degrades gracefully: the shard skips that
/// peer for that round, records the skip (it replays identically from a
/// checkpoint and is surfaced in the result), and sweeps on — trading
/// exchange determinism for availability, never correctness of the final
/// fold (own contributions are tracked separately and still count exactly
/// once).
struct ExchangePolicy {
  int every = 0;
  bool strict = true;
};

/// Per-shard fault handling of the subprocess fleet (DESIGN.md §10).
///
/// Deadlines are per-phase, replacing the old single flat run timeout:
/// `startup_deadline_s` bounds launch → first heartbeat,
/// `progress_deadline_s` bounds the gap between heartbeat advances (it must
/// exceed the slowest single batch — workers beat per batch and during
/// exchange waits), and `exchange_deadline_s` bounds a worker's wait for
/// one peer's round delta.  A worker making steady progress is never
/// killed, no matter how long the whole sweep runs.
struct FaultPolicy {
  /// Relaunches per shard before the fault is terminal (0 = the historical
  /// abort-on-first-fault behavior).
  int max_retries = 0;
  /// Exponential backoff before relaunch k (1-based):
  /// min(backoff_initial_s * 2^(k-1), backoff_max_s).
  double backoff_initial_s = 0.25;
  double backoff_max_s = 4.0;
  double startup_deadline_s = 60.0;
  double progress_deadline_s = 300.0;
  double exchange_deadline_s = 300.0;
  /// What a shard's terminal fault does to the run: Abort fails the fleet
  /// (every retry exhausted — the strict default); Degrade abandons the
  /// worker and the launcher completes the shard's range in-process
  /// instead.  Degraded completion is bit-identical with exchange off; with
  /// exchange on it requires non-strict mode and explicitly relaxes the
  /// exchange-determinism contract (the fallback session exchanges
  /// nothing), while the final fold still counts every shard's own
  /// contribution exactly once.
  enum class OnExhausted : std::uint8_t { Abort, Degrade };
  OnExhausted on_exhausted = OnExhausted::Abort;
  /// Publish a recovery checkpoint every N completed batches (0 = off).
  /// A relaunched worker resumes from its last valid checkpoint; resume is
  /// bit-identical to an uninterrupted run (DESIGN.md §10 replay rules).
  int checkpoint_every = 0;
};

/// One shard's contiguous slice [begin, end) of the sweep's configuration
/// range; `index` is its rank in the shard fleet (the exchange and fold
/// order).
struct ShardRange {
  int index = 0;
  int begin = 0;
  int end = 0;
};

/// One shard's sweep product — exactly what the fold consumes.  `outcomes`
/// and `totals` are indexed relative to the range (size end - begin).
/// `stats` holds the shard's *own* statistics contribution: with exchange
/// off it is the session's final snapshot; with exchange on, peer-imported
/// state is excluded so the fold counts every sample once.
struct ShardResult {
  ShardRange range;
  std::vector<tune::ConfigOutcome> outcomes;
  std::vector<tune::ConfigTotals> totals;
  tune::SweepMode mode = tune::SweepMode::Serial;
  std::string strategy;
  int effective_workers = 1;
  int batch = 0;
  std::string fallback_reason;
  int evaluated = 0;
  int exchange_rounds = 0;  ///< delta-publish rounds this shard performed
  /// Where this shard's wall time went (tune::PhaseTimes contract: timing
  /// metadata, excluded from bit-identity).  ask/evaluate/tell come from
  /// the shard's Tuner session; exchange/checkpoint are filled by
  /// executors that perform those phases out-of-session (the subprocess
  /// worker loop).
  tune::PhaseTimes phases;
  core::StatSnapshot stats;
  /// The shard's fault-recovery record, which run_sharded() copies into
  /// TuneResult::shard_recovery under the range's index (`shard` is not
  /// set here).  Its exchange skips and resume count come from the shard
  /// session; the rest only the subprocess executor fills.
  tune::ShardRecovery recovery;
  /// Exchange payload bytes the final worker attempt moved through the
  /// mailbox (published deltas + live peer reads; DESIGN.md §13.2): the
  /// bench harness divides by exchange_rounds for
  /// bytes_per_exchange_round.
  std::int64_t exchange_bytes = 0;
};

/// Transport-agnostic shard execution: run every range as an independent
/// sweep over `study` under `opt` (with the range applied as
/// config_begin/config_end), exchanging deltas per `exchange`.  Ranges must
/// be non-empty, disjoint, and ascending by index.  Implementations throw
/// (never hang) on shard failure, with the failing shard identified.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;
  virtual const char* name() const = 0;
  virtual std::vector<ShardResult> run(const tune::Study& study,
                                       const tune::TuneOptions& opt,
                                       const std::vector<ShardRange>& shards,
                                       const ExchangePolicy& exchange) = 0;
};

/// Shards inside this process.  Sequential by default: one shard after the
/// other, the reference fold.  With
/// `parallel_shards`, shards run on a thread pool (one logical worker per
/// shard, capped at the hardware concurrency); results are identical to
/// the sequential run because shard segments are independent between
/// exchange points and all merging happens at the round barrier in shard
/// order.
class InProcessExecutor final : public ShardExecutor {
 public:
  explicit InProcessExecutor(bool parallel_shards = false)
      : parallel_shards_(parallel_shards) {}
  const char* name() const override { return "in-process"; }
  std::vector<ShardResult> run(const tune::Study& study,
                               const tune::TuneOptions& opt,
                               const std::vector<ShardRange>& shards,
                               const ExchangePolicy& exchange) override;

 private:
  bool parallel_shards_;
};

struct SubprocessOptions {
  /// Run directory holding the manifest, per-shard artifacts, and the
  /// exchange mailbox.  Empty: a fresh private directory under $TMPDIR,
  /// removed on success and kept (and named in the error) on failure.  A
  /// caller-provided directory is created if needed, must not already
  /// contain a run manifest, and is always kept.
  std::string run_dir;
  /// Per-shard retry/backoff/deadline/checkpoint policy.  The defaults
  /// reproduce the historical behavior (no retries, no checkpoints, abort
  /// on the first fault) with stall detection now progress-based (per-shard
  /// heartbeats) instead of a whole-run wall clock.  Faults are injected
  /// for tests by the CRITTER_SHARD_FAULT environment variable alone
  /// ("<shard>:<mode>[:<arg>[:<times>]]", DESIGN.md §10), which every
  /// worker and relaunch inherits.
  FaultPolicy fault;
};

/// One OS process per shard: the distributed-memory execution the paper
/// targets, exercised on one host.  Requires a registry workload
/// (Study::workload) so workers can rebuild the study; subset
/// configuration lists travel through the run manifest by absolute index.
/// Worker crashes, stale manifests, and missing snapshots surface as
/// std::runtime_error naming the shard — the launcher aborts the remaining
/// fleet instead of hanging.
class SubprocessExecutor final : public ShardExecutor {
 public:
  explicit SubprocessExecutor(SubprocessOptions opts = {})
      : opts_(std::move(opts)) {}
  const char* name() const override { return "subprocess"; }
  std::vector<ShardResult> run(const tune::Study& study,
                               const tune::TuneOptions& opt,
                               const std::vector<ShardRange>& shards,
                               const ExchangePolicy& exchange) override;

 private:
  SubprocessOptions opts_;
};

/// The contiguous balanced partition run_sharded() uses (empty slices of
/// an over-sharded range are dropped; `index` numbers the kept shards
/// densely).
std::vector<ShardRange> partition_range(int begin, int end, int nshards);

/// Run `study` sharded via `exec` and fold: outcomes and totals copy into
/// place, aggregates re-reduce in configuration order over the whole range,
/// shard statistics merge in shard order.  With a sequential
/// InProcessExecutor and exchange off this is the sharded-merge contract of
/// DESIGN.md §7: each shard an independent session, bit-identical to the
/// unsharded sweep when configurations are statistically isolated, and a
/// deterministic function of (study, options, nshards) otherwise.
tune::TuneResult run_sharded(const tune::Study& study,
                             const tune::TuneOptions& opt, int nshards,
                             ShardExecutor& exec,
                             const ExchangePolicy& exchange = {});

/// True when argv carries --shard-worker: main() must then hand the
/// process to shard_worker_main() (and exit with its return value) before
/// any other argument handling of its own.  Custom workloads must be
/// registered *before* the hand-off — the worker rebuilds the study from
/// the registry (the paper studies are pre-registered).
bool is_shard_worker(int argc, char** argv);

/// The --shard-worker entry point: rebuilds the study and options from the
/// run directory named on the command line, sweeps its shard (exchanging
/// deltas per the run manifest), and publishes its ShardResult.  Returns a
/// process exit code; failures are also recorded in the shard's error file
/// for the launcher to surface.
int shard_worker_main(int argc, char** argv);

}  // namespace critter::dist
