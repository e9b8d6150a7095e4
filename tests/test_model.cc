// The surrogate-model subsystem: regression/copula surrogates, acquisition
// functions, the "surrogate-ei" and "copula-transfer" strategies, prior
// ingestion (files, in-memory snapshots, warm starts), and the §9
// determinism contract (refits are pure functions of seed + tell order).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/front_end.hpp"
#include "core/signature.hpp"
#include "core/stat_store.hpp"
#include "model/acquisition.hpp"
#include "model/copula.hpp"
#include "model/regression.hpp"
#include "tune/strategy.hpp"
#include "tune/tuner.hpp"

namespace app = critter::app;
namespace core = critter::core;
namespace model = critter::model;
namespace tune = critter::tune;
using critter::Policy;

namespace {

tune::Study subset(tune::Study study, int nconfigs) {
  if (nconfigs < static_cast<int>(study.configs.size()))
    study.configs.resize(nconfigs);
  return study;
}

/// Statistically isolated options: per-configuration outcomes are pure
/// functions of (config, salt), independent of evaluation order — so a
/// model-guided sweep's outcomes are comparable to the exhaustive sweep's.
tune::TuneOptions isolated_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::ConditionalExecution;
  opt.samples = 1;
  opt.reset_per_config = true;
  return opt;
}

/// Drive a session with an external synthetic objective: tell order and
/// proposal sequence become fully observable without any simulation cost.
std::vector<std::vector<int>> drive_external(
    const tune::Study& study, const tune::TuneOptions& opt,
    double (*objective)(const tune::Configuration&)) {
  tune::Tuner session(study, opt);
  std::vector<std::vector<int>> batches;
  while (!session.done()) {
    const std::vector<int> batch = session.ask();
    if (batch.empty()) break;
    batches.push_back(batch);
    std::vector<tune::ConfigOutcome> outcomes;
    for (int pos : batch) {
      tune::ConfigOutcome oc;
      oc.config = study.configs[pos];
      oc.evaluated = true;
      oc.pred_time = objective(oc.config);
      oc.true_time = oc.pred_time;
      oc.samples_used = 1;
      outcomes.push_back(oc);
    }
    session.tell(outcomes);
  }
  return batches;
}

/// A one-rank snapshot with hand-chosen kernel moments.
core::StatSnapshot toy_snapshot() {
  core::StatSnapshot snap;
  snap.ranks.resize(1);
  core::KernelTable& t = snap.ranks[0];
  const auto put = [&](core::KernelClass cls, std::int64_t d0, double mean,
                       std::int64_t n) {
    core::KernelKey key(cls, {d0, d0, d0, 0}, 0);
    core::KernelStats ks;
    ks.n = n;
    ks.mean = mean;
    t.K[key] = ks;
  };
  // Small kernels cheap, large kernels expensive: the prior should order
  // small parameter values first.
  put(core::KernelClass::Gemm, 24, 1e-4, 16);
  put(core::KernelClass::Potrf, 24, 2e-4, 8);
  put(core::KernelClass::Gemm, 96, 4e-3, 16);
  put(core::KernelClass::Potrf, 96, 8e-3, 8);
  return snap;
}

}  // namespace

// ---------------------------------------------------------------------------
// stat_store moment extraction
// ---------------------------------------------------------------------------

TEST(ExtractMoments, PoolsRanksAndSortsByKeyHash) {
  core::StatSnapshot snap;
  snap.ranks.resize(2);
  const core::KernelKey key(core::KernelClass::Gemm, {8, 8, 8, 0}, 0);
  core::KernelStats a;
  a.add_sample(1.0);
  a.add_sample(3.0);
  core::KernelStats b;
  b.add_sample(5.0);
  snap.ranks[0].K[key] = a;
  snap.ranks[1].K[key] = b;
  // A second key on rank 1 only; zero-sample kernels are omitted.
  const core::KernelKey other(core::KernelClass::Potrf, {4, 4, 4, 0}, 0);
  core::KernelStats c;
  c.add_sample(2.0);
  snap.ranks[1].K[other] = c;
  snap.ranks[0].K[core::KernelKey(core::KernelClass::Trsm, {2, 2, 2, 0}, 0)] =
      core::KernelStats{};

  const std::vector<core::KernelMoments> m = core::extract_moments(snap);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_LT(m[0].key.hash(), m[1].key.hash());
  for (const core::KernelMoments& km : m) {
    if (km.key == key) {
      EXPECT_EQ(km.n, 3);
      EXPECT_DOUBLE_EQ(km.mean, 3.0);
      EXPECT_DOUBLE_EQ(km.variance, 4.0);  // {1,3,5}: sample variance 4
    } else {
      EXPECT_EQ(km.key, other);
      EXPECT_EQ(km.n, 1);
      EXPECT_DOUBLE_EQ(km.mean, 2.0);
      EXPECT_DOUBLE_EQ(km.variance, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Acquisition functions
// ---------------------------------------------------------------------------

TEST(Acquisition, ExpectedImprovementAndLcbShapes) {
  // Better mean, same spread: more improvement expected.
  EXPECT_GT(model::expected_improvement({1.0, 0.5}, 2.0),
            model::expected_improvement({1.5, 0.5}, 2.0));
  // Same mean, more spread: more improvement expected (exploration).
  EXPECT_GT(model::expected_improvement({2.0, 1.0}, 2.0),
            model::expected_improvement({2.0, 0.1}, 2.0));
  // Degenerate spread: deterministic improvement.
  EXPECT_DOUBLE_EQ(model::expected_improvement({1.0, 0.0}, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(model::expected_improvement({4.0, 0.0}, 3.0), 0.0);
  EXPECT_GE(model::expected_improvement({10.0, 1.0}, 0.0), 0.0);
  // LCB score prefers the optimistic candidate.
  EXPECT_GT(model::lower_confidence_bound_score({1.0, 1.0}, 1.96),
            model::lower_confidence_bound_score({1.5, 1.0}, 1.96));
  EXPECT_GT(model::lower_confidence_bound_score({1.0, 2.0}, 1.96),
            model::lower_confidence_bound_score({1.0, 1.0}, 1.96));
  // The probit and CDF invert each other where the CI machinery uses them.
  EXPECT_NEAR(model::normal_cdf(model::normal_quantile(0.8)), 0.8, 1e-4);
  EXPECT_DOUBLE_EQ(model::normal_quantile(0.5), 0.0);
}

TEST(Acquisition, RankingBreaksTiesByConfigurationIndex) {
  // Equal scores: ascending index decides — and the returned batch is in
  // ascending index order regardless of score order.
  const std::vector<int> tied =
      model::rank_by_acquisition({{1.0, 7}, {1.0, 3}, {1.0, 5}}, 2);
  EXPECT_EQ(tied, (std::vector<int>{3, 5}));
  const std::vector<int> mixed = model::rank_by_acquisition(
      {{0.1, 1}, {0.9, 9}, {0.5, 4}, {0.9, 2}}, 3);
  EXPECT_EQ(mixed, (std::vector<int>{2, 4, 9}));
  // k larger than the pool: everything, ascending.
  EXPECT_EQ(model::rank_by_acquisition({{0.0, 2}, {1.0, 0}}, 10),
            (std::vector<int>{0, 2}));
}

// ---------------------------------------------------------------------------
// Regression surrogate
// ---------------------------------------------------------------------------

TEST(RegressionSurrogate, RecoversAdditiveQuadraticAndIsDeterministic) {
  const auto space = tune::ParamSpace::cartesian(
      {{"x", {0, 1, 2, 3, 4}}, {"y", {0, 10, 20}}});
  const std::vector<tune::Configuration> configs = space.enumerate();
  const auto f = [](const tune::Configuration& c) {
    const double x = static_cast<double>(c.at("x"));
    const double y = static_cast<double>(c.at("y")) / 10.0;
    return (x - 2.0) * (x - 2.0) + 0.5 * y + 3.0;
  };
  model::AdditiveRegressionSurrogate a(configs), b(configs);
  for (const tune::Configuration& c : configs) {
    a.observe(c, f(c));
    b.observe(c, f(c));
  }
  a.refit();
  b.refit();
  for (const tune::Configuration& c : configs) {
    const model::Prediction pa = a.predict(c);
    // Same observations in the same order: bitwise-identical refits.
    EXPECT_EQ(pa.mean, b.predict(c).mean) << c.label();
    EXPECT_EQ(pa.stddev, b.predict(c).stddev) << c.label();
    // The additive quadratic is exactly representable.
    EXPECT_NEAR(pa.mean, f(c), 1e-6) << c.label();
  }
}

// ---------------------------------------------------------------------------
// Copula surrogate
// ---------------------------------------------------------------------------

TEST(CopulaSurrogate, MarginalsMatchHandComputedRanksOn3DimToySpace) {
  // 4 points of a 3-dimensional space, distinct runtimes, one value shared
  // per dimension — every normal score is hand-computable from the ranks.
  const auto space = tune::ParamSpace::enumerated(
      {"a", "b", "c"},
      {{1, 10, 100}, {2, 10, 200}, {1, 20, 200}, {2, 20, 100}});
  const std::vector<tune::Configuration> configs = space.enumerate();
  model::GaussianCopulaSurrogate m(configs);
  // Runtimes rank the points as 1 < 0 < 3 < 2 (ranks 0..3 of y).
  const double ys[] = {0.4, 0.1, 0.9, 0.6};
  for (int i = 0; i < 4; ++i) m.observe(configs[i], ys[i]);
  m.refit();
  // Mid-rank normal scores z_r = Phi^-1((r + 0.5) / 4).
  const double z0 = model::normal_quantile(0.125);  // rank 0
  const double z1 = model::normal_quantile(0.375);
  const double z2 = model::normal_quantile(0.625);
  const double z3 = model::normal_quantile(0.875);
  // dim "a": value 1 -> points {0, 2} (ranks 1, 3); value 2 -> {1, 3}.
  EXPECT_DOUBLE_EQ(m.marginal_z(0, 1), 0.5 * (z1 + z3));
  EXPECT_DOUBLE_EQ(m.marginal_z(0, 2), 0.5 * (z0 + z2));
  // dim "b": value 10 -> points {0, 1} (ranks 1, 0).
  EXPECT_DOUBLE_EQ(m.marginal_z(1, 10), 0.5 * (z1 + z0));
  EXPECT_DOUBLE_EQ(m.marginal_z(1, 20), 0.5 * (z3 + z2));
  // dim "c": value 100 -> points {0, 3} (ranks 1, 2).
  EXPECT_DOUBLE_EQ(m.marginal_z(2, 100), 0.5 * (z1 + z2));
  EXPECT_DOUBLE_EQ(m.marginal_z(2, 200), 0.5 * (z0 + z3));
  // Unobserved values carry no score.
  EXPECT_DOUBLE_EQ(m.marginal_z(0, 77), 0.0);

  // Ties share the mid-rank: two equal runtimes in a fresh model.
  model::GaussianCopulaSurrogate tied(configs);
  tied.observe(configs[0], 0.5);
  tied.observe(configs[1], 0.5);
  tied.observe(configs[2], 0.9);
  tied.refit();
  const double zmid = model::normal_quantile((0.5 + 0.5) / 3.0);
  EXPECT_DOUBLE_EQ(tied.marginal_z(0, 1),
                   0.5 * (zmid + model::normal_quantile(2.5 / 3.0)));
  EXPECT_DOUBLE_EQ(tied.marginal_z(1, 10), zmid);
}

TEST(CopulaSurrogate, PriorMomentsOrderCandidatesCheapestFirst) {
  const auto space =
      tune::ParamSpace::cartesian({{"b", {24, 96}}, {"strat", {1, 2}}});
  const std::vector<tune::Configuration> configs = space.enumerate();
  model::GaussianCopulaSurrogate m(configs);
  EXPECT_FALSE(m.has_prior());
  EXPECT_DOUBLE_EQ(m.prior_score(configs[0]), 0.0);
  m.ingest_prior(toy_snapshot());
  EXPECT_TRUE(m.has_prior());
  // b=24 kernels were cheap in the prior, b=96 expensive.
  EXPECT_LT(m.prior_score(configs[0]), m.prior_score(configs[1]));
  // With no observations the blended score is the standardized prior.
  EXPECT_LT(m.blended_z(configs[0]), m.blended_z(configs[1]));
  // Values the prior never saw read the pooled log-size/log-time line,
  // which the toy prior makes increasing.
  tune::Configuration unseen = configs[1];
  unseen.params[0].second = 4096;
  EXPECT_GT(m.prior_score(unseen), m.prior_score(configs[1]));
  // Ingestion is cumulative and deterministic: the same snapshot twice
  // doubles the weight but keeps the ordering.
  m.ingest_prior(toy_snapshot());
  EXPECT_LT(m.prior_score(configs[0]), m.prior_score(configs[1]));
}

// ---------------------------------------------------------------------------
// "surrogate-ei" strategy
// ---------------------------------------------------------------------------

TEST(SurrogateEi, ProposalsAreDeterministicPerSeedAndTellOrder) {
  const tune::Study study = tune::capital_cholesky_study(false);
  const auto objective = [](const tune::Configuration& c) {
    const double b = static_cast<double>(c.at("b"));
    const double s = static_cast<double>(c.at("strat"));
    return (std::log2(b / 24.0) - 1.0) * (std::log2(b / 24.0) - 1.0) +
           0.05 * s + 1.0;
  };
  tune::TuneOptions opt;
  opt.strategy = "surrogate-ei";
  const std::vector<std::vector<int>> once =
      drive_external(study, opt, objective);
  const std::vector<std::vector<int>> again =
      drive_external(study, opt, objective);
  EXPECT_EQ(once, again);  // identical proposal sequences, batch by batch
  int evaluated = 0;
  for (const std::vector<int>& b : once) evaluated += static_cast<int>(b.size());
  EXPECT_EQ(evaluated, 7);  // default budget: half of 15, floor
}

TEST(SurrogateEi, FindsTheSyntheticOptimumWithinTheBudget) {
  // Objective minimized at b=48 (position-space minimum off the seed grid
  // ends), mild strat preference: the model phase must locate it.
  const tune::Study study = tune::capital_cholesky_study(false);
  const auto objective = [](const tune::Configuration& c) {
    const double b = static_cast<double>(c.at("b"));
    const double s = static_cast<double>(c.at("strat"));
    return (std::log2(b / 48.0)) * (std::log2(b / 48.0)) + 0.05 * s + 1.0;
  };
  tune::TuneOptions opt;
  opt.strategy = "surrogate-ei";
  const std::vector<std::vector<int>> batches =
      drive_external(study, opt, objective);
  // None of the evenly-spaced seeds carries b=48; the model phase must
  // still locate the b-dimension minimum.
  bool hit = false;
  for (const std::vector<int>& b : batches)
    for (int pos : b) hit = hit || study.configs[pos].at("b") == 48;
  EXPECT_TRUE(hit);
}

TEST(SurrogateEi, RespectsCountAndRejectsBadOptions) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 10);
  tune::TuneOptions opt = isolated_options();
  opt.strategy = "surrogate-ei";
  opt.strategy_options["count"] = "3";
  opt.strategy_options["init"] = "2";
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_EQ(r.evaluated_configs, 3);
  EXPECT_EQ(r.strategy, "surrogate-ei");

  opt.strategy_options.clear();
  opt.strategy_options["acq"] = "bogus";
  EXPECT_THROW(tune::run_study(study, opt), std::runtime_error);
  opt.strategy_options.clear();
  opt.strategy_options["degree"] = "7";
  EXPECT_THROW(tune::run_study(study, opt), std::runtime_error);
}

TEST(SurrogateEi, LcbAcquisitionRuns) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  tune::TuneOptions opt = isolated_options();
  opt.strategy = "surrogate-ei";
  opt.strategy_options["acq"] = "lcb";
  opt.strategy_options["count"] = "4";
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_EQ(r.evaluated_configs, 4);
}

// ---------------------------------------------------------------------------
// Acceptance: the paper-study criterion
// ---------------------------------------------------------------------------

TEST(SurrogateEi, ReachesExhaustiveBestOnPaperStudyWithHalfTheEvaluations) {
  // Statistically isolated sweeps make per-configuration outcomes pure
  // functions of (config, salt) — identical between the exhaustive and the
  // model-guided sweep — so "reaches the exhaustive best" is exact index
  // equality, not a tolerance comparison.
  const tune::Study study = tune::capital_cholesky_study(false);
  const tune::TuneOptions base = isolated_options();

  tune::TuneOptions ex = base;
  ex.strategy = "exhaustive";
  const tune::TuneResult full = tune::run_study(study, ex);
  ASSERT_EQ(full.evaluated_configs,
            static_cast<int>(study.configs.size()));

  tune::TuneOptions ei = base;
  ei.strategy = "surrogate-ei";
  const tune::TuneResult r = tune::run_study(study, ei);
  EXPECT_LE(2 * r.evaluated_configs,
            static_cast<int>(study.configs.size()));
  EXPECT_EQ(r.best_predicted(), full.best_predicted());
  EXPECT_EQ(r.per_config[r.best_predicted()].pred_time,
            full.per_config[full.best_predicted()].pred_time);

  // Bit-reproducibility per seed: the whole result, again.
  const tune::TuneResult again = tune::run_study(study, ei);
  ASSERT_EQ(again.per_config.size(), r.per_config.size());
  for (std::size_t i = 0; i < r.per_config.size(); ++i) {
    EXPECT_EQ(r.per_config[i].evaluated, again.per_config[i].evaluated) << i;
    EXPECT_EQ(r.per_config[i].pred_time, again.per_config[i].pred_time) << i;
    EXPECT_EQ(r.per_config[i].true_time, again.per_config[i].true_time) << i;
  }
  EXPECT_EQ(r.tuning_time, again.tuning_time);
}

// ---------------------------------------------------------------------------
// "copula-transfer" strategy: prior plumbing and fallback
// ---------------------------------------------------------------------------

TEST(CopulaTransfer, NoPriorDegradesVisiblyToRandomSubset) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  tune::TuneOptions opt = isolated_options();
  opt.strategy = "copula-transfer";
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_EQ(r.strategy, "random-subset");  // visible degradation
  EXPECT_EQ(r.evaluated_configs, 4);       // at the copula budget, not all

  tune::TuneOptions rs = isolated_options();
  rs.strategy = "random-subset";
  rs.strategy_options["count"] = "4";
  const tune::TuneResult expect = tune::run_study(study, rs);
  for (std::size_t i = 0; i < r.per_config.size(); ++i)
    EXPECT_EQ(r.per_config[i].evaluated, expect.per_config[i].evaluated) << i;

  // A prior with rank tables but no kernel runtime moments (e.g. saved
  // from a reset-per-config sweep) carries nothing to transfer: same
  // visible degradation.
  core::StatSnapshot momentless;
  momentless.ranks.resize(2);
  tune::TuneOptions empty_prior = isolated_options();
  empty_prior.strategy = "copula-transfer";
  empty_prior.prior = &momentless;
  EXPECT_EQ(tune::run_study(study, empty_prior).strategy, "random-subset");
}

TEST(CopulaTransfer, AbsentOrCorruptPriorFileErrorsLikeSnapshotLoad) {
  // The front end loads --prior=FILE once, at parse time, so a named prior
  // that is absent or corrupt fails the parse with StatSnapshot::load_file's
  // own error — never a silent sweep without it.
  const auto parse_error = [](const std::string& path) {
    const std::string prior = "--prior=" + path;
    const char* argv[] = {"autotune", "--strategy=copula-transfer",
                          prior.c_str()};
    try {
      app::parse(critter::util::Options(3, const_cast<char**>(argv)), {});
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  // Absent: the exact StatSnapshot::load_file failure.
  std::string tuner_err = parse_error("/nonexistent/prior.snap"), load_err;
  try {
    core::StatSnapshot::load_file("/nonexistent/prior.snap");
  } catch (const std::exception& e) {
    load_err = e.what();
  }
  ASSERT_FALSE(tuner_err.empty());
  EXPECT_EQ(tuner_err, load_err);

  // Corrupt: same equivalence.
  const std::string bad = ::testing::TempDir() + "corrupt_prior.snap";
  {
    std::ofstream os(bad, std::ios::binary);
    os << "this is not a snapshot";
  }
  tuner_err = parse_error(bad);
  load_err.clear();
  try {
    core::StatSnapshot::load_file(bad);
  } catch (const std::exception& e) {
    load_err = e.what();
  }
  ASSERT_FALSE(tuner_err.empty());
  EXPECT_EQ(tuner_err, load_err);
  std::remove(bad.c_str());
}

TEST(CopulaTransfer, PriorFileRoundTripIsDeterministicAndNamed) {
  // Transfer workflow: persistent-statistics sweep -> snapshot file ->
  // copula prior for a fresh sweep of the same space.
  const tune::Study study = subset(tune::capital_cholesky_study(false), 10);
  tune::TuneOptions donor;
  donor.policy = Policy::OnlinePropagation;
  donor.samples = 1;
  const tune::TuneResult prev = tune::run_study(study, donor);
  ASSERT_FALSE(prev.stats.empty());
  const std::string path = ::testing::TempDir() + "model_prior.snap";
  prev.stats.save_file(path);
  const core::StatSnapshot loaded = core::StatSnapshot::load_file(path);

  tune::TuneOptions opt = isolated_options();
  opt.strategy = "copula-transfer";
  opt.prior = &loaded;
  const tune::TuneResult a = tune::run_study(study, opt);
  EXPECT_EQ(a.strategy, "copula-transfer");
  EXPECT_EQ(a.evaluated_configs, 5);

  // The snapshot that went through the file behaves identically to the
  // one that never left memory.
  tune::TuneOptions mem = opt;
  mem.prior = &prev.stats;
  const tune::TuneResult b = tune::run_study(study, mem);
  ASSERT_EQ(a.per_config.size(), b.per_config.size());
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    EXPECT_EQ(a.per_config[i].evaluated, b.per_config[i].evaluated) << i;
    EXPECT_EQ(a.per_config[i].pred_time, b.per_config[i].pred_time) << i;
  }
  std::remove(path.c_str());
}

TEST(CopulaTransfer, AdaptOffFreezesOrderingAcrossExchangeDeltas) {
  // adapt=0 promises the prior ordering never shifts: neither from told
  // outcomes nor from mid-sweep exchange deltas (regression: ingest_prior
  // once rebuilt the marginals even with adapt off).
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  tune::TuneOptions donor;
  donor.policy = Policy::OnlinePropagation;
  donor.samples = 1;
  const tune::TuneResult prev = tune::run_study(study, donor);
  ASSERT_FALSE(prev.stats.empty());

  const auto drive = [&](bool merge_mid_sweep) {
    tune::TuneOptions opt = isolated_options();
    opt.strategy = "copula-transfer";
    opt.strategy_options["adapt"] = "0";
    opt.prior = &prev.stats;
    tune::Tuner session(study, opt);
    std::vector<int> order;
    bool merged = false;
    while (!session.done()) {
      const std::vector<int> batch = session.ask();
      if (batch.empty()) break;
      order.insert(order.end(), batch.begin(), batch.end());
      std::vector<tune::ConfigOutcome> outcomes;
      for (int pos : batch) {
        tune::ConfigOutcome oc;
        oc.config = study.configs[pos];
        oc.evaluated = true;
        oc.pred_time = 1.0 + pos;
        oc.true_time = oc.pred_time;
        oc.samples_used = 1;
        outcomes.push_back(oc);
      }
      session.tell(outcomes);
      if (merge_mid_sweep && !merged) {
        session.merge_state(prev.stats);  // an "exchange delta"
        merged = true;
      }
    }
    return order;
  };
  EXPECT_EQ(drive(false), drive(true));
}

TEST(CopulaTransfer, WarmStartDoublesAsThePrior) {
  // With no explicit prior, warm_start feeds both the statistics and the
  // model — the strategy must not degrade to random-subset.
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  tune::TuneOptions donor;
  donor.policy = Policy::OnlinePropagation;
  donor.samples = 1;
  const tune::TuneResult prev = tune::run_study(study, donor);
  ASSERT_FALSE(prev.stats.empty());

  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;
  opt.strategy = "copula-transfer";
  opt.warm_start = &prev.stats;
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_EQ(r.strategy, "copula-transfer");
  EXPECT_EQ(r.evaluated_configs, 4);
}
