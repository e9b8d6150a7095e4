// Pluggable search strategies over a study's configuration space, behind a
// string-named factory registry.
//
// The Tuner asks the strategy for successive batches of configuration
// indices and reports every outcome back at the batch barrier; evaluation
// hints (the CI-discard incumbent, a rung's sample budget) are sampled once
// per batch so a batch's evaluations are independent of worker scheduling.
// Strategies cheaper than exhaustive search — random subsets, CI-based
// early discard, successive halving, and eventually the transfer-tuning and
// Bayesian-autotuning lines in PAPERS.md — plug in here against the same
// statistical model the exhaustive sweep uses.  Registration is open:
// user code adds its own strategies under new names, and TuneOptions picks
// one by (name, option map).
#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/stat_store.hpp"
#include "tune/evaluator.hpp"

namespace critter::tune {

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  virtual const char* name() const = 0;

  /// Next configuration indices to evaluate, at most `max_batch`, in
  /// ascending index order (the driver merges statistics deltas in the
  /// returned order).  Empty means the search is finished.
  virtual std::vector<int> next_batch(int max_batch) = 0;

  /// Outcome feedback, delivered in configuration order at the barrier
  /// after each batch completes.
  virtual void observe(const ConfigOutcome& oc) = 0;

  /// Prior-statistics ingestion: the Tuner feeds the construction-time
  /// prior (TuneOptions::prior, else warm_start) and every
  /// mid-sweep exchange delta (in fold order, between batches) here.
  /// Model-based strategies update their surrogate; others ignore it.
  virtual void ingest_prior(const core::StatSnapshot& snap) { (void)snap; }

  /// Evaluation hints for the *next* batch (sampled once per batch).
  virtual EvalControl control() const { return {}; }
};

/// String-keyed options of one strategy instance ("count" -> "3").  An
/// ordered map, so iteration — and anything derived from it — is
/// deterministic.  Factories reject unknown keys (typos fail fast).
using StrategyOptions = std::map<std::string, std::string>;

/// Everything a factory may need beyond its own options.
struct StrategyContext {
  int begin = 0, end = 0;  ///< configuration index range [begin, end)
  std::uint64_t seed = 0;  ///< the sweep's seed salt
  int samples = 1;         ///< per-configuration sample budget
  /// The study being swept: its configuration list carries the parameter
  /// bindings model-based strategies regress on.  Always set by the Tuner;
  /// model strategies CRITTER_CHECK it.
  const Study* study = nullptr;
  /// Prior statistics snapshot (TuneOptions::prior, else
  /// warm_start), null when the sweep has none.
  const core::StatSnapshot* prior = nullptr;
};

using StrategyFactory = std::function<std::unique_ptr<SearchStrategy>(
    const StrategyContext&, const StrategyOptions&)>;

/// Register a strategy factory under `name` (user code may add its own;
/// duplicate names are an error).  `summary` is shown by the examples'
/// --help listing: keep it one line, e.g. "count=N — deterministic subset".
void register_strategy(const std::string& name, StrategyFactory factory,
                       const std::string& summary = "");

/// Registered strategy names, sorted.  Built-ins: "exhaustive",
/// "random-subset", "ci-discard", "halving".
std::vector<std::string> strategy_names();

/// One-line summary of a registered strategy ("" when unknown).
std::string strategy_summary(const std::string& name);

/// Instantiate a registered strategy; CRITTER_CHECK-fails (listing the
/// known names) when `name` is unknown or an option key is not understood.
std::unique_ptr<SearchStrategy> make_strategy(const std::string& name,
                                              const StrategyContext& ctx,
                                              const StrategyOptions& opts);

/// Parse the examples' "--strategy name,key=val,..." syntax into a
/// (name, options) pair.  Duplicate keys are rejected (the map would
/// silently keep one — the §7 fail-fast contract forbids that).
std::pair<std::string, StrategyOptions> parse_strategy_spec(
    const std::string& spec);

// --- helpers for strategy factories (built-in and user-registered) -------

/// CRITTER_CHECK-fail unless every option key is in `known`, reporting
/// *all* unknown keys in one message (the §7 fail-fast contract: a user
/// fixing a typo'd spec sees every problem at once, not one per run).
void check_strategy_options(const std::string& strategy,
                            const StrategyOptions& opts,
                            std::initializer_list<const char*> known);

/// Integer/float option lookup with a default; CRITTER_CHECK-fails when
/// the value does not parse completely.
std::int64_t strategy_opt_int(const StrategyOptions& opts,
                              const std::string& key, std::int64_t dflt);
double strategy_opt_double(const StrategyOptions& opts,
                           const std::string& key, double dflt);

}  // namespace critter::tune
