// One configuration's evaluation protocol (paper §VI), factored out of the
// sweep driver so every sweep mode — serial, isolated-parallel,
// batch-shared-parallel — and measure_config() run the same code:
//
//   * a-priori propagation first runs the configuration once fully
//     instrumented to record critical-path kernel counts (charged to the
//     tuning time, as in the paper);
//   * one uninstrumented-equivalent full execution against a freshly
//     reset store is the error reference (not charged);
//   * up to `samples` selective executions follow (charged; a strategy may
//     lower the per-batch budget via EvalControl::samples_override).
//
// Noise salts are assigned analytically per absolute configuration index:
// configuration i consumes salts base + i*salts_per_config() + k, exactly
// the values a serial sweep's running counter would produce — this is what
// makes every sweep mode reproduce the same per-configuration randomness.
// A lowered sample budget consumes a prefix of the configuration's salt
// block, so re-evaluating at a higher budget replays the earlier samples
// exactly and then extends them (the successive-halving strategy relies on
// this).
//
// The reference reads no store and the rest never reads the reference
// until it is scored, so the protocol splits into chain() and reference(),
// joined by finish(); parallel sweeps run the two as separate pool tasks.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "tune/tuner.hpp"

namespace critter::tune {

/// Strategy hints threaded into one configuration's evaluation.  Captured
/// once per batch at the barrier, so every worker of a batch sees the same
/// incumbent regardless of scheduling.
struct EvalControl {
  bool early_discard = false;
  double incumbent_pred = std::numeric_limits<double>::infinity();
  double margin = 0.0;  ///< relative slack over the incumbent
  /// >0: evaluate at most this many selective samples this batch (clamped
  /// to the options' sample budget, which sizes the salt blocks).
  int samples_override = 0;
};

/// The store-dependent part of one configuration's evaluation: what the
/// a-priori pass and the selective samples reported, before they are
/// scored against the reference.
struct EvalChain {
  double offline_wall = 0.0;  ///< a-priori pass wall time (0 without one)
  std::vector<Report> samples;
  bool pruned = false;  ///< the CI discard stopped the samples early
};

/// The study's profiler stores: a mutex-guarded free list, so a study
/// builds one Store per task running at once instead of one per
/// configuration.  take() hands a store out as it was given back, only
/// reconfigured: the caller resets its statistics (reset_statistics(), or
/// restore() of a shared snapshot) before use, which DESIGN §5 shows is
/// exactly a fresh store.  The lease gives it back; the pool frees its
/// stores with itself.
class StorePool {
 public:
  explicit StorePool(int nranks) : nranks_(nranks) {}

  struct GiveBack {
    StorePool* pool;
    void operator()(Store* s) const;
  };
  using Lease = std::unique_ptr<Store, GiveBack>;

  Lease take(const Config& cfg);

 private:
  const int nranks_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Store>> free_;
};

class Evaluator {
 public:
  Evaluator(const Study& study, const TuneOptions& opt);

  /// Noise salts one configuration consumes (fixed per options).
  std::uint64_t salts_per_config() const;
  /// First salt of configuration `index` (pre-incremented before use).
  std::uint64_t salt_for(int index) const;

  /// Run the full protocol for configuration `index` against `store`
  /// (which carries whatever statistics the sweep mode wants shared):
  /// finish(chain(...), reference(...)).  `ref_cache`, when given, caches
  /// the configuration's full-reference report across evaluations (see
  /// reference()).
  ConfigOutcome evaluate(Store& store, int index, ConfigTotals* tot,
                         const EvalControl& ctl = {},
                         Report* ref_cache = nullptr) const;

  /// The store-dependent chain of configuration `index`: the a-priori
  /// pass, the selective samples and the CI discard.  It never reads the
  /// reference, so it may run concurrently with reference().
  EvalChain chain(Store& store, int index, const EvalControl& ctl) const;

  /// Fill `slot` with configuration `index`'s error reference unless it is
  /// already filled (`Report::p > 0`).  The reference is a pure function
  /// of (configuration, salt): it runs on a pooled store reset first, never
  /// on the sweep's statistics, so a slot kept across evaluations lets
  /// successive-halving re-evaluations reuse it instead of re-simulating.
  void reference(int index, Report& slot) const;

  /// Score a chain against its reference and accumulate into `tot`, in
  /// the order the protocol ran (the a-priori pass, then sample by
  /// sample), so the split is bit-identical to one pass.
  ConfigOutcome finish(int index, const EvalChain& chain,
                       const Report& full, ConfigTotals* tot) const;

  /// One fully-instrumented, non-selective execution against a pooled
  /// store reset by reset_statistics(): the error reference of evaluate()
  /// and the Fig. 3 measurement behind measure_config().  Safe to call
  /// concurrently.
  Report full_reference(const Configuration& cfg, std::uint64_t salt) const;

  /// The study's store pool, which the references and the parallel
  /// sweeps' chains share.
  StorePool& stores() const { return stores_; }

 private:
  Report one_run(Store& store, const Configuration& cfg,
                 std::uint64_t salt) const;

  const Study& study_;
  const TuneOptions& opt_;
  sim::Machine machine_;
  mutable StorePool stores_;
};

}  // namespace critter::tune
