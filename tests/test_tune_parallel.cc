// Determinism contract of the engine and the thread-pooled sweep: repeated
// runs are bit-identical, a reference does not depend on what its pooled
// store ran before, and a parallel run_study reproduces the serial sweep
// exactly (same noise salts, a store reset per configuration, ordered
// reduction of totals).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <vector>

#include "tune/evaluator.hpp"
#include "tune/tuner.hpp"
#include "util/thread_pool.hpp"

namespace tune = critter::tune;
using critter::Policy;

namespace {

tune::Study small_study(int nconfigs) {
  auto study = tune::capital_cholesky_study(false);
  study.configs.resize(nconfigs);
  return study;
}

bool reports_equal(const critter::Report& a, const critter::Report& b) {
  return std::memcmp(a.critical.as_array(), b.critical.as_array(),
                     sizeof(double) * critter::PathMetrics::kFields) == 0 &&
         std::memcmp(a.volavg.as_array(), b.volavg.as_array(),
                     sizeof(double) * critter::PathMetrics::kFields) == 0 &&
         a.wall_time == b.wall_time && a.executed == b.executed &&
         a.skipped == b.skipped;
}

/// Every field of two reports, compared exactly.
void expect_same_report(const critter::Report& a, const critter::Report& b,
                        const std::string& what) {
  for (int f = 0; f < critter::PathMetrics::kFields; ++f) {
    EXPECT_EQ(a.critical.as_array()[f], b.critical.as_array()[f])
        << what << ": critical field " << f;
    EXPECT_EQ(a.volavg.as_array()[f], b.volavg.as_array()[f])
        << what << ": volavg field " << f;
  }
  EXPECT_EQ(a.wall_time, b.wall_time) << what;
  EXPECT_EQ(a.max_kernel_comp_time, b.max_kernel_comp_time) << what;
  EXPECT_EQ(a.max_modeled_comp_time, b.max_modeled_comp_time) << what;
  EXPECT_EQ(a.overhead_time, b.overhead_time) << what;
  EXPECT_EQ(a.executed, b.executed) << what;
  EXPECT_EQ(a.skipped, b.skipped) << what;
  EXPECT_EQ(a.p, b.p) << what;
}

}  // namespace

TEST(Determinism, ReferenceDoesNotDependOnWhatItsStoreRanBefore) {
  // An Evaluator runs its references on pooled stores, reset before each
  // run.  References for i, j, i on one Evaluator, where j runs a
  // different grid (processor grid where the study varies it, block or
  // tile grid otherwise), must each equal a fresh Evaluator's.
  struct Case {
    tune::Study study;
    int i, j;
  };
  const Case cases[] = {
      {tune::capital_cholesky_study(false), 0, 14},  // b 24 -> 384
      {tune::slate_cholesky_study(false), 0, 19},    // tile 128 -> 416
      {tune::candmc_qr_study(false), 0, 5},          // grid 16x4 -> 32x2
      {tune::slate_qr_study(false), 0, 21},          // grid 16x4 -> 8x8
  };
  tune::TuneOptions opt;
  for (const Case& c : cases) {
    const tune::Evaluator ev(c.study, opt);
    for (const int idx : {c.i, c.j, c.i}) {
      const tune::Configuration& cfg = c.study.configs.at(idx);
      const critter::Report reused = ev.full_reference(cfg, 42);
      const critter::Report fresh =
          tune::Evaluator(c.study, opt).full_reference(cfg, 42);
      expect_same_report(reused, fresh,
                         c.study.name + " config " + std::to_string(idx));
    }
  }
}

TEST(Determinism, RepeatedMeasureConfigIsBitIdentical) {
  const auto study = small_study(3);
  for (int c = 0; c < 3; ++c) {
    critter::Report r1 = tune::measure_config(study, study.configs[c], 42);
    critter::Report r2 = tune::measure_config(study, study.configs[c], 42);
    EXPECT_TRUE(reports_equal(r1, r2)) << "config " << c;
    EXPECT_GT(r1.critical.exec_time, 0.0);
  }
}

TEST(Determinism, RepeatedRunStudyIsBitIdentical) {
  const auto study = small_study(4);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.tolerance = 0.25;
  opt.samples = 2;
  opt.reset_per_config = true;
  auto r1 = tune::run_study(study, opt);
  auto r2 = tune::run_study(study, opt);
  ASSERT_EQ(r1.per_config.size(), r2.per_config.size());
  for (std::size_t i = 0; i < r1.per_config.size(); ++i) {
    EXPECT_EQ(r1.per_config[i].true_time, r2.per_config[i].true_time);
    EXPECT_EQ(r1.per_config[i].pred_time, r2.per_config[i].pred_time);
  }
  EXPECT_EQ(r1.tuning_time, r2.tuning_time);
}

TEST(ParallelSweep, PooledMatchesSerialBitExactly) {
  const auto study = small_study(8);
  for (Policy pol : {Policy::ConditionalExecution, Policy::OnlinePropagation,
                     Policy::LocalPropagation, Policy::AprioriPropagation}) {
    tune::TuneOptions serial;
    serial.policy = pol;
    serial.tolerance = 0.25;
    serial.samples = 2;
    serial.reset_per_config = true;
    serial.workers = 1;
    tune::TuneOptions pooled = serial;
    pooled.workers = 4;

    auto rs = tune::run_study(study, serial);
    auto rp = tune::run_study(study, pooled);

    ASSERT_EQ(rs.per_config.size(), rp.per_config.size());
    for (std::size_t i = 0; i < rs.per_config.size(); ++i) {
      EXPECT_EQ(rs.per_config[i].true_time, rp.per_config[i].true_time)
          << critter::policy_name(pol) << " config " << i;
      EXPECT_EQ(rs.per_config[i].pred_time, rp.per_config[i].pred_time)
          << critter::policy_name(pol) << " config " << i;
      EXPECT_EQ(rs.per_config[i].err, rp.per_config[i].err);
      EXPECT_EQ(rs.per_config[i].executed, rp.per_config[i].executed);
      EXPECT_EQ(rs.per_config[i].skipped, rp.per_config[i].skipped);
    }
    EXPECT_EQ(rs.tuning_time, rp.tuning_time) << critter::policy_name(pol);
    EXPECT_EQ(rs.full_time, rp.full_time);
    EXPECT_EQ(rs.kernel_time, rp.kernel_time);
    EXPECT_EQ(rs.best_predicted(), rp.best_predicted());
  }
}

TEST(ParallelSweep, MoreWorkersThanConfigs) {
  const auto study = small_study(2);
  tune::TuneOptions serial;
  serial.policy = Policy::ConditionalExecution;
  serial.samples = 1;
  serial.reset_per_config = true;
  tune::TuneOptions pooled = serial;
  pooled.workers = 8;
  auto rs = tune::run_study(study, serial);
  auto rp = tune::run_study(study, pooled);
  for (std::size_t i = 0; i < rs.per_config.size(); ++i)
    EXPECT_EQ(rs.per_config[i].pred_time, rp.per_config[i].pred_time);
}

namespace {

/// SLATE Cholesky shares kernel signatures across configurations (tile
/// sizes repeat between lookahead variants), so cross-configuration
/// statistics sharing actually changes skip decisions — the interesting
/// case for the batch-shared sweep.
tune::Study shared_study(int nconfigs) {
  auto study = tune::slate_cholesky_study(false);
  study.configs.resize(nconfigs);
  return study;
}

void expect_equal_results(const tune::TuneResult& a, const tune::TuneResult& b,
                          const char* what) {
  ASSERT_EQ(a.per_config.size(), b.per_config.size()) << what;
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    EXPECT_EQ(a.per_config[i].true_time, b.per_config[i].true_time)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].pred_time, b.per_config[i].pred_time)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].err, b.per_config[i].err) << what;
    EXPECT_EQ(a.per_config[i].executed, b.per_config[i].executed) << what;
    EXPECT_EQ(a.per_config[i].skipped, b.per_config[i].skipped) << what;
  }
  EXPECT_EQ(a.tuning_time, b.tuning_time) << what;
  EXPECT_EQ(a.full_time, b.full_time) << what;
  EXPECT_EQ(a.kernel_time, b.kernel_time) << what;
  EXPECT_EQ(a.best_predicted(), b.best_predicted()) << what;
}

}  // namespace

TEST(BatchSharedSweep, EagerIdenticalAcrossWorkerCounts) {
  // Eager propagation shares statistics across configurations, so it runs
  // batch-synchronously: at fixed batch size the results are a pure
  // function of the seed — the worker count changes wall-clock time only.
  const auto study = shared_study(8);
  tune::TuneOptions base;
  base.policy = Policy::EagerPropagation;
  base.samples = 2;
  // batch 3 splits the equal-tile configuration pairs across barriers, so
  // merged statistics genuinely feed later skip decisions
  base.batch = 3;
  base.workers = 1;
  const auto r1 = tune::run_study(study, base);
  EXPECT_EQ(r1.mode, tune::SweepMode::BatchShared);
  for (int workers : {2, 4}) {
    tune::TuneOptions opt = base;
    opt.workers = workers;
    const auto rw = tune::run_study(study, opt);
    EXPECT_EQ(rw.mode, tune::SweepMode::BatchShared);
    EXPECT_EQ(rw.effective_workers, std::min(workers, base.batch));
    EXPECT_TRUE(rw.fallback_reason.empty()) << rw.fallback_reason;
    expect_equal_results(r1, rw, "eager");
    EXPECT_TRUE(r1.stats.same_statistics(rw.stats));
  }
}

TEST(BatchSharedSweep, ExtrapolateIdenticalAcrossWorkerCounts) {
  // The §VIII size model survives per-configuration resets, so an
  // extrapolating sweep shares statistics even with reset_per_config and
  // must take the batch-shared path — deterministically.
  const auto study = shared_study(8);
  tune::TuneOptions base;
  base.policy = Policy::OnlinePropagation;
  base.samples = 2;
  base.extrapolate = true;
  base.reset_per_config = true;
  base.batch = 4;
  base.workers = 1;
  const auto r1 = tune::run_study(study, base);
  EXPECT_EQ(r1.mode, tune::SweepMode::BatchShared);
  for (int workers : {2, 4}) {
    tune::TuneOptions opt = base;
    opt.workers = workers;
    const auto rw = tune::run_study(study, opt);
    EXPECT_EQ(rw.mode, tune::SweepMode::BatchShared);
    EXPECT_EQ(rw.effective_workers, workers);
    expect_equal_results(r1, rw, "extrapolate");
    EXPECT_TRUE(r1.stats.same_statistics(rw.stats));
  }
}

TEST(BatchSharedSweep, PersistentStatsIdenticalAcrossWorkerCounts) {
  // Capital-style sweep: statistics never reset, every configuration
  // builds on the merged statistics of all previous batches.
  const auto study = shared_study(6);
  tune::TuneOptions base;
  base.policy = Policy::OnlinePropagation;
  base.samples = 1;
  base.reset_per_config = false;
  base.batch = 3;
  base.workers = 1;
  const auto r1 = tune::run_study(study, base);
  for (int workers : {2, 4}) {
    tune::TuneOptions opt = base;
    opt.workers = workers;
    const auto rw = tune::run_study(study, opt);
    expect_equal_results(r1, rw, "persistent");
    EXPECT_TRUE(r1.stats.same_statistics(rw.stats));
  }
}

TEST(BatchSharedSweep, NoSilentSerialFallback) {
  // The PR-1 driver silently serialized exactly these sweeps; now the
  // effective mode engages parallel workers and is recorded.
  const auto study = shared_study(6);
  tune::TuneOptions opt;
  opt.policy = Policy::EagerPropagation;
  opt.samples = 1;
  opt.workers = 3;
  const auto r = tune::run_study(study, opt);
  EXPECT_EQ(r.mode, tune::SweepMode::BatchShared);
  EXPECT_EQ(r.requested_workers, 3);
  EXPECT_EQ(r.effective_workers, 3);
  EXPECT_EQ(r.batch, 3);  // defaults to the worker count
  EXPECT_TRUE(r.fallback_reason.empty()) << r.fallback_reason;
  EXPECT_EQ(r.evaluated_configs, 6);
}

TEST(BatchSharedSweep, SharingChangesResultsVsIsolation) {
  // Sanity check that the determinism assertions above are non-trivial:
  // shared statistics actually alter skip decisions on this study.
  const auto study = shared_study(8);
  tune::TuneOptions shared;
  shared.policy = Policy::OnlinePropagation;
  shared.samples = 2;
  shared.batch = 1;  // every configuration sees all earlier statistics
  tune::TuneOptions isolated = shared;
  isolated.batch = 0;
  isolated.reset_per_config = true;
  const auto rs = tune::run_study(study, shared);
  const auto ri = tune::run_study(study, isolated);
  std::int64_t shared_skips = 0, isolated_skips = 0;
  for (std::size_t i = 0; i < rs.per_config.size(); ++i) {
    shared_skips += rs.per_config[i].skipped;
    isolated_skips += ri.per_config[i].skipped;
  }
  EXPECT_GT(shared_skips, isolated_skips);
}

TEST(BatchSharedSweep, WarmStartResumeMatchesUninterrupted) {
  // Acceptance: save -> load -> resume of a sweep reproduces the
  // uninterrupted sweep's statistics and outcomes exactly.
  const auto study = shared_study(8);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 2;
  opt.batch = 2;
  opt.workers = 2;
  const auto full = tune::run_study(study, opt);

  tune::TuneOptions first = opt;
  first.config_end = 4;
  const auto r_first = tune::run_study(study, first);

  const std::string bytes = r_first.stats.to_string();
  const auto loaded = critter::core::StatSnapshot::from_string(bytes);

  tune::TuneOptions second = opt;
  second.config_begin = 4;
  second.warm_start = &loaded;
  const auto r_second = tune::run_study(study, second);

  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(full.per_config[i].pred_time, r_second.per_config[i].pred_time)
        << "config " << i;
    EXPECT_EQ(full.per_config[i].true_time, r_second.per_config[i].true_time);
    EXPECT_EQ(full.per_config[i].skipped, r_second.per_config[i].skipped);
  }
  EXPECT_TRUE(full.stats.same_statistics(r_second.stats));
}

TEST(BatchSharedSweep, WarmStartFromPersistentSweepIntoResetSweep) {
  // A warm-start captured from a persistent-stats sweep carries kernel
  // statistics; a reset-mode batch-shared sweep must shed them (only
  // channels and the size model survive resets) instead of crashing in the
  // workers' delta extraction.
  const auto study = shared_study(6);
  tune::TuneOptions persist;
  persist.policy = Policy::OnlinePropagation;
  persist.samples = 2;
  const auto r0 = tune::run_study(study, persist);
  ASSERT_FALSE(r0.stats.empty());

  tune::TuneOptions resumed;
  resumed.policy = Policy::OnlinePropagation;
  resumed.samples = 1;
  resumed.extrapolate = true;
  resumed.reset_per_config = true;
  resumed.workers = 2;
  resumed.batch = 2;
  resumed.warm_start = &r0.stats;
  const auto r = tune::run_study(study, resumed);
  EXPECT_EQ(r.mode, tune::SweepMode::BatchShared);
  EXPECT_EQ(r.evaluated_configs, 6);
  for (const critter::core::KernelTable& t : r.stats.ranks)
    EXPECT_TRUE(t.K.empty());
}

TEST(SearchStrategy, RandomSubsetIsDeterministicAndBounded) {
  const auto study = small_study(8);
  tune::TuneOptions opt;
  opt.policy = Policy::ConditionalExecution;
  opt.samples = 1;
  opt.reset_per_config = true;
  opt.strategy = "random-subset";
  opt.strategy_options["count"] = "3";
  const auto r1 = tune::run_study(study, opt);
  const auto r2 = tune::run_study(study, opt);
  EXPECT_EQ(r1.evaluated_configs, 3);
  int evaluated = 0;
  for (std::size_t i = 0; i < r1.per_config.size(); ++i) {
    EXPECT_EQ(r1.per_config[i].evaluated, r2.per_config[i].evaluated);
    if (r1.per_config[i].evaluated) {
      ++evaluated;
      EXPECT_EQ(r1.per_config[i].pred_time, r2.per_config[i].pred_time);
    }
  }
  EXPECT_EQ(evaluated, 3);
  EXPECT_TRUE(r1.per_config[r1.best_predicted()].evaluated);
}

TEST(SearchStrategy, CiEarlyDiscardPrunesAndStaysDeterministic) {
  const auto study = shared_study(8);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 4;
  opt.batch = 2;
  opt.strategy = "ci-discard";
  opt.strategy_options["margin"] = "0.0";
  opt.workers = 1;
  const auto r1 = tune::run_study(study, opt);
  tune::TuneOptions opt4 = opt;
  opt4.workers = 4;  // capped by batch size
  const auto r4 = tune::run_study(study, opt4);
  for (std::size_t i = 0; i < r1.per_config.size(); ++i) {
    EXPECT_EQ(r1.per_config[i].pred_time, r4.per_config[i].pred_time);
    EXPECT_EQ(r1.per_config[i].pruned, r4.per_config[i].pruned);
    EXPECT_EQ(r1.per_config[i].samples_used, r4.per_config[i].samples_used);
  }
  // Every configuration still gets at least one sample and a prediction.
  for (const auto& c : r1.per_config) {
    EXPECT_TRUE(c.evaluated);
    EXPECT_GE(c.samples_used, 1);
    EXPECT_GT(c.pred_time, 0.0);
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  critter::util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(257, [&](int i) { ++hits[i]; });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossJobs) {
  critter::util::ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(10, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 5 * 45);
}

TEST(ThreadPool, PropagatesFirstException) {
  critter::util::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](int i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // pool still usable afterwards
  std::atomic<int> n{0};
  pool.parallel_for(4, [&](int) { ++n; });
  EXPECT_EQ(n.load(), 4);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: sweeps must reproduce the checked-in fixtures
// ---------------------------------------------------------------------------

#include <fstream>

#include "golden_digest.hpp"

namespace {

/// The fixture as generated by tools/gen_golden (which names the build that
/// wrote each one).
std::string read_fixture(const char* which) {
  const std::string path =
      std::string(CRITTER_GOLDEN_DIR) + "/sweep_" + which + ".digest";
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << "missing golden fixture " << path
                            << " (regenerate with tools/gen_golden)";
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// The digest prints every double as an exact hex float, so equality here
/// is bit-identity of every sweep outcome and every statistic the sweep
/// accumulated — the determinism contract the hot-path work must not bend.
/// On mismatch, report the first differing line, not half a megabyte.
void expect_matches_fixture(const char* which) {
  const std::string expected = read_fixture(which);
  ASSERT_FALSE(expected.empty());
  const std::string actual = critter::testing::golden_digest(which);
  if (actual == expected) return;
  std::istringstream as(actual), es(expected);
  std::string al, el;
  for (int line = 1; ; ++line) {
    const bool a_ok = static_cast<bool>(std::getline(as, al));
    const bool e_ok = static_cast<bool>(std::getline(es, el));
    if (!a_ok || !e_ok || al != el) {
      FAIL() << "golden digest '" << which << "' diverges at line " << line
             << "\n  expected: " << (e_ok ? el : "<eof>")
             << "\n  actual:   " << (a_ok ? al : "<eof>");
    }
  }
}

}  // namespace

TEST(GoldenSweep, OnlinePropagationMatchesFixture) {
  expect_matches_fixture("online");
}

TEST(GoldenSweep, EagerPropagationMatchesFixture) {
  expect_matches_fixture("eager");
}

TEST(GoldenSweep, SharedBatchParallelMatchesFixture) {
  expect_matches_fixture("batch");
}

TEST(GoldenSweep, AprioriSharedBatchMatchesFixture) {
  expect_matches_fixture("apriori");
}

TEST(GoldenSweep, IsolatedParallelMatchesFixture) {
  expect_matches_fixture("isolated");
}

// Tolerance 2^-3, persistent statistics, no extrapolation: here online and
// a-priori propagation skip on the ~K path counts they read, so these pin
// which runs keep ~K and how a collective adopts it.
TEST(GoldenSweep, CapitalOnlineMatchesFixture) {
  expect_matches_fixture("capital_online");
}

TEST(GoldenSweep, CapitalAprioriMatchesFixture) {
  expect_matches_fixture("capital_apriori");
}

TEST(GoldenSweep, CandmcOnlineMatchesFixture) {
  expect_matches_fixture("candmc_online");
}

TEST(GoldenSweep, SlateConditionalMatchesFixture) {
  expect_matches_fixture("slate_conditional");
}

TEST(GoldenSweep, SlateLocalMatchesFixture) {
  expect_matches_fixture("slate_local");
}
