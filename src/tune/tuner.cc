#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/fsio.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tune/evaluator.hpp"
#include "tune/strategy.hpp"
#include "tune/sweep.hpp"
#include "util/check.hpp"

namespace critter::tune {

double TuneResult::mean_err() const {
  double s = 0;
  int n = 0;
  for (const auto& c : per_config)
    if (c.evaluated) {
      s += c.err;
      ++n;
    }
  return n == 0 ? 0.0 : s / n;
}

double TuneResult::mean_log2_err() const {
  double s = 0;
  int n = 0;
  for (const auto& c : per_config)
    if (c.evaluated) {
      s += std::log2(std::max(c.err, 1e-4));
      ++n;
    }
  return n == 0 ? 0.0 : s / n;
}

double TuneResult::mean_log2_comp_err() const {
  double s = 0;
  int n = 0;
  for (const auto& c : per_config)
    if (c.evaluated) {
      s += std::log2(std::max(c.comp_err, 1e-4));
      ++n;
    }
  return n == 0 ? 0.0 : s / n;
}

int TuneResult::best_predicted() const {
  int best = -1;
  for (std::size_t i = 0; i < per_config.size(); ++i) {
    if (!per_config[i].evaluated) continue;
    if (best < 0 || per_config[i].pred_time < per_config[best].pred_time)
      best = static_cast<int>(i);
  }
  return best < 0 ? 0 : best;
}

int TuneResult::best_true() const {
  int best = -1;
  for (std::size_t i = 0; i < per_config.size(); ++i) {
    if (!per_config[i].evaluated) continue;
    if (best < 0 || per_config[i].true_time < per_config[best].true_time)
      best = static_cast<int>(i);
  }
  return best < 0 ? 0 : best;
}

double TuneResult::selection_quality() const {
  if (evaluated_configs == 0) return 1.0;
  return per_config[best_true()].true_time /
         std::max(per_config[best_predicted()].true_time, 1e-300);
}

Report measure_config(const Study& study, const Configuration& cfg,
                      std::uint64_t seed_salt, double noise) {
  TuneOptions opt;
  opt.comp_noise = noise;
  opt.comm_noise = noise;
  return Evaluator(study, opt).full_reference(cfg, seed_salt);
}

std::string registry_help() {
  std::ostringstream os;
  const WorkloadRegistry& workloads = WorkloadRegistry::instance();
  os << "registered workloads (--workload=NAME):\n";
  for (const std::string& name : workloads.names()) {
    os << "  " << name;
    for (std::size_t pad = name.size(); pad < 18; ++pad) os << ' ';
    os << ' ' << workloads.at(name).description() << '\n';
  }
  os << "registered strategies (--strategy=NAME[,key=val...]):\n";
  for (const std::string& name : strategy_names()) {
    os << "  " << name;
    for (std::size_t pad = name.size(); pad < 18; ++pad) os << ' ';
    os << ' ' << strategy_summary(name) << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Tuner: the ask/tell session
// ---------------------------------------------------------------------------

Tuner::Tuner(const Study& study, const TuneOptions& opt)
    : study_(study), opt_(opt) {
  driver_ = std::make_unique<SweepDriver>(study_, opt_);
  // Model prior: the in-memory snapshot, else the warm start doubles as
  // one.  Delivered twice over: factories see it as
  // StrategyContext::prior (the copula factory's degradation decision),
  // and ingest_prior() feeds it before the first ask.  The pointer is
  // construction-scoped — strategies must not retain it — so no strategy
  // that ignores priors pays for a snapshot copy.
  const core::StatSnapshot* prior =
      opt_.prior != nullptr ? opt_.prior : opt_.warm_start;
  strategy_ = make_strategy(
      opt_.strategy,
      StrategyContext{driver_->config_begin(), driver_->config_end(),
                      opt_.seed_salt, opt_.samples, &study_,
                      prior != nullptr && !prior->empty() ? prior : nullptr},
      opt_.strategy_options);
  if (prior != nullptr && !prior->empty()) strategy_->ingest_prior(*prior);
  opt_.prior = nullptr;  // consumed; never dereferenced after construction
  control_ = std::make_unique<EvalControl>();
  const int nconf = static_cast<int>(study_.configs.size());
  per_config_.resize(nconf);
  for (int i = 0; i < nconf; ++i) per_config_[i].config = study_.configs[i];
  totals_.resize(nconf);
  if (opt_.warm_start != nullptr) {
    import_state(*opt_.warm_start);
    opt_.warm_start = nullptr;  // consumed; the session owns a copy now
  }
}

Tuner::~Tuner() = default;

std::vector<int> Tuner::ask() {
  CRITTER_CHECK(!asked_, "previous batch has not been tell()'d yet");
  const double t0 = core::monotonic_s();
  started_ = true;
  if (done_) return {};
  // Per-strategy ask accounting: the registry keys counters by the
  // strategy name so a mixed fleet's snapshot attributes work correctly.
  obs::counter("tune.asks").add(1);
  obs::counter("tune.asks." + opt_.strategy).add(1);
  std::vector<int> batch = strategy_->next_batch(driver_->batch());
  if (batch.empty()) {
    done_ = true;
    return batch;
  }
  for (std::size_t k = 0; k < batch.size(); ++k) {
    CRITTER_CHECK(batch[k] >= driver_->config_begin() &&
                      batch[k] < driver_->config_end(),
                  "strategy proposed an index outside the sweep range");
    CRITTER_CHECK(k == 0 || batch[k - 1] < batch[k],
                  "strategy batches must be in ascending index order");
  }
  // Hints are sampled once per batch, so every worker of the batch sees
  // the same incumbent regardless of scheduling.
  *control_ = strategy_->control();
  pending_ = batch;
  asked_ = true;
  evaluated_ = false;
  phases_.ask += core::monotonic_s() - t0;
  return batch;
}

std::vector<ConfigOutcome> Tuner::evaluate(const std::vector<int>& batch) {
  CRITTER_CHECK(asked_ && batch == pending_,
                "evaluate() takes exactly the batch the last ask() returned");
  CRITTER_CHECK(!evaluated_,
                "the claimed batch was already evaluated; tell() it before "
                "asking again (re-evaluating would re-merge its statistics)");
  evaluated_ = true;
  const double t0 = core::monotonic_s();
  {
    obs::ScopedSpan span("tune.evaluate", "tune", "batch",
                         static_cast<std::uint64_t>(batch.size()));
    driver_->run_batch(batch, *control_, per_config_, totals_);
  }
  const double dt = core::monotonic_s() - t0;
  phases_.evaluate += dt;
  obs::counter("tune.evaluated").add(batch.size());
  obs::histogram("tune.batch_seconds").observe(dt);
  std::vector<ConfigOutcome> out;
  out.reserve(batch.size());
  for (int idx : batch) out.push_back(per_config_[idx]);
  return out;
}

void Tuner::tell(const std::vector<ConfigOutcome>& outcomes) {
  CRITTER_CHECK(asked_, "tell() without a claimed batch");
  CRITTER_CHECK(outcomes.size() == pending_.size(),
                "tell() outcome count does not match the claimed batch");
  // Accept outcomes in batch order (ascending position in study.configs —
  // a subset study's positions can differ from the configurations' space
  // indices), which is also the order the strategy observes them in.
  const double t0 = core::monotonic_s();
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    CRITTER_CHECK(
        outcomes[k].config.index == study_.configs[pending_[k]].index,
        "tell() outcomes must match the claimed batch order");
    per_config_[pending_[k]] = outcomes[k];
  }
  std::uint64_t pruned = 0;
  for (const ConfigOutcome& oc : outcomes) {
    strategy_->observe(oc);
    if (oc.pruned) ++pruned;
  }
  obs::counter("tune.tells").add(1);
  obs::counter("tune.tells." + opt_.strategy).add(1);
  // CI early-stop decisions: configurations whose later samples the
  // confidence-interval rule abandoned — the paper's discard mechanism.
  if (pruned > 0) obs::counter("tune.ci_early_stops").add(pruned);
  pending_.clear();
  asked_ = false;
  phases_.tell += core::monotonic_s() - t0;
}

void Tuner::tell_evaluated(const std::vector<ConfigOutcome>& outcomes,
                           const std::vector<ConfigTotals>& batch_totals) {
  CRITTER_CHECK(asked_, "tell_evaluated() without a claimed batch");
  CRITTER_CHECK(!evaluated_,
                "the claimed batch was already evaluated in this session — "
                "tell_evaluated() reports an external evaluation instead");
  CRITTER_CHECK(batch_totals.size() == pending_.size(),
                "tell_evaluated() totals must cover the claimed batch");
  evaluated_ = true;
  for (std::size_t k = 0; k < pending_.size(); ++k)
    totals_[pending_[k]] += batch_totals[k];
  tell(outcomes);
}

const EvalControl& Tuner::control() const { return *control_; }

core::StatSnapshot Tuner::export_state() const { return driver_->stats(); }

void Tuner::import_state(const core::StatSnapshot& snap) {
  CRITTER_CHECK(!started_, "import_state() is only legal before the first ask()");
  driver_->import_stats(snap);
}

void Tuner::merge_state(const core::StatSnapshot& delta) {
  CRITTER_CHECK(!asked_,
                "merge_state() with a batch claimed — exchange deltas may "
                "only fold in between tell() and the next ask()");
  driver_->merge_stats(delta);
  // Exchange deltas double as model priors: model-based strategies fold
  // the peers' runtime moments into their surrogate (deltas arrive in
  // shard-fold order, so the ingestion sequence is deterministic).
  strategy_->ingest_prior(delta);
}

void Tuner::resume(
    const core::StatSnapshot* stats, const std::vector<ToldBatch>& told,
    const std::vector<ConfigTotals>& range_totals,
    const std::function<std::vector<core::StatSnapshot>(int k)>& absorbed) {
  CRITTER_CHECK(!started_, "resume() is only legal before the first ask()");
  CRITTER_CHECK(static_cast<int>(range_totals.size()) ==
                    config_end() - config_begin(),
                "resume() totals must cover the session's range");
  if (stats != nullptr) import_state(*stats);
  for (std::size_t k = 0; k < told.size(); ++k) {
    CRITTER_CHECK(ask() == told[k].positions,
                  "journal replay diverged: the strategy proposed a "
                  "different batch than the journal recorded");
    tell(told[k].outcomes);
    if (!absorbed) continue;
    for (const core::StatSnapshot& delta : absorbed(static_cast<int>(k) + 1))
      strategy_->ingest_prior(delta);
  }
  std::copy(range_totals.begin(), range_totals.end(),
            totals_.begin() + config_begin());
}

SweepMode Tuner::mode() const { return driver_->mode(); }
int Tuner::config_begin() const { return driver_->config_begin(); }
int Tuner::config_end() const { return driver_->config_end(); }

TuneResult Tuner::result() const {
  TuneResult out;
  out.per_config = per_config_;
  out.mode = driver_->mode();
  out.strategy = strategy_->name();
  out.requested_workers = std::max(1, opt_.workers);
  out.effective_workers = driver_->effective_workers();
  out.batch = driver_->mode() == SweepMode::BatchShared ? driver_->batch() : 0;
  out.fallback_reason = driver_->fallback_reason();
  for (const ConfigOutcome& oc : out.per_config)
    if (oc.evaluated) ++out.evaluated_configs;
  out.per_config_totals = totals_;
  for (const ConfigTotals& t : totals_) {
    out.tuning_time += t.tuning_time;
    out.full_time += t.full_time;
    out.kernel_time += t.kernel_time;
    out.full_kernel_time += t.full_kernel_time;
  }
  out.stats = driver_->stats();
  out.phases = phases_;
  return out;
}

// ---------------------------------------------------------------------------
// run_study: the session's plain ask/evaluate/tell loop
// ---------------------------------------------------------------------------

TuneResult run_study(const Study& study, const TuneOptions& opt) {
  Tuner session(study, opt);
  for (std::vector<int> batch = session.ask(); !batch.empty();
       batch = session.ask())
    session.tell(session.evaluate(batch));
  return session.result();
}

}  // namespace critter::tune
