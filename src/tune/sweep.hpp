// The sweep batch executor: owns workers, the planned execution mode, and
// the shared statistics state a sweep carries across batches.  The Tuner
// session drives it batch by batch (ask/tell); run_study is a loop over
// that session.
//
// Three execution modes, chosen from the options (recorded in the result):
//
//   Serial            — one persistent store, configurations in sequence;
//                       the paper's protocol verbatim.  Batch granularity 1,
//                       so a strategy observes every outcome before
//                       proposing the next configuration.
//   ParallelIsolated  — statistics reset per configuration and no policy
//                       state crosses configurations, so each worker task
//                       runs on a store of its own, reset first; results
//                       are bit-identical to the serial sweep (salts are
//                       analytic, totals reduce in configuration order).
//   BatchShared       — statistics *are* shared across configurations
//                       (eager propagation, persistent-stats sweeps,
//                       extrapolation).  Workers evaluate a deterministic
//                       batch of configurations, each against a private
//                       store restored from the shared snapshot; at the
//                       barrier every store's statistics delta (an exact
//                       merge inverse, see core/stat_store.hpp) merges into
//                       the snapshot in configuration order.  Results are a
//                       pure function of (seed, batch size) — the worker
//                       count changes wall-clock time only.
#pragma once

#include <memory>
#include <optional>

#include "tune/evaluator.hpp"
#include "util/thread_pool.hpp"

namespace critter::tune {

/// Whether a sweep under `opt` resets kernel statistics between
/// configurations: the paper's SLATE/CANDMC protocol, never honored for
/// eager propagation, which lives off cross-configuration statistics.  Only
/// KernelTable::clear_statistics()'s survivors outlive a configuration.
bool resets_statistics(const TuneOptions& opt);

class SweepDriver {
 public:
  SweepDriver(const Study& study, const TuneOptions& opt);

  /// The clamped [begin, end) configuration range this driver sweeps; the
  /// strategy must be constructed over exactly this range.
  int config_begin() const { return begin_; }
  int config_end() const { return end_; }

  SweepMode mode() const { return plan_.mode; }
  int effective_workers() const { return plan_.effective_workers; }
  /// Strategy batch granularity of the planned mode.
  int batch() const { return plan_.batch; }
  const std::string& fallback_reason() const { return plan_.fallback_reason; }

  /// Evaluate one strategy batch (ascending indices within [begin, end))
  /// against the current shared statistics.  Outcomes land in
  /// `out[index]`, totals accumulate into `tot[index]`; both must be sized
  /// to the study's full configuration count.
  void run_batch(const std::vector<int>& batch, const EvalControl& ctl,
                 std::vector<ConfigOutcome>& out,
                 std::vector<ConfigTotals>& tot);

  /// Deep copy of the current shared statistics (the serial store's
  /// snapshot or the batch-shared base; an empty snapshot for isolated
  /// sweeps, whose statistics die with each configuration).
  core::StatSnapshot stats() const;

  /// Replace the shared statistics (warm start / sharded resume).  In
  /// reset mode only the reset-surviving state (channels, size model) is
  /// kept — see the in-body comment.  Isolated sweeps have no shared
  /// statistics and ignore the snapshot.
  void import_stats(const core::StatSnapshot& snap);

  /// Fold a delta into the shared statistics between batches: the
  /// distributed executors' mid-sweep exchange hook (a peer shard's
  /// published delta).  Deterministic — a pure KernelTable::merge in call
  /// order.  Reset-mode sweeps keep only the reset-surviving state of the
  /// delta (channels, size model), mirroring import_stats; isolated sweeps
  /// have no shared statistics and ignore it.
  void merge_stats(const core::StatSnapshot& delta);

 private:
  struct Plan {
    SweepMode mode = SweepMode::Serial;
    int effective_workers = 1;
    int batch = 1;  ///< strategy batch granularity for this mode
    std::string fallback_reason;
  };

  Plan plan() const;
  Config profiler_config() const;

  const Study& study_;
  const TuneOptions& opt_;
  Evaluator evaluator_;
  Plan plan_;
  int begin_ = 0, end_ = 0;  ///< configuration range swept
  bool reset_ = false;       ///< statistics reset between configurations
  std::optional<Store> store_;          ///< Serial: the persistent store
  core::StatSnapshot base_;             ///< BatchShared: the shared snapshot
  std::unique_ptr<util::ThreadPool> pool_;  ///< parallel modes
  /// Per-configuration full-reference cache: rung re-evaluations (halving)
  /// reuse the deterministic reference instead of re-simulating it.  It is
  /// also the join of the parallel modes' reference tasks: batch indices
  /// are distinct, so each slot is written by one reference task only, and
  /// finish() reads it after the batch barrier.
  std::vector<Report> ref_cache_;
};

}  // namespace critter::tune
