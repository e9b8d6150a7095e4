// Fault tolerance of the subprocess shard fleet (DESIGN.md §10): crashed,
// hung, and misbehaving workers are classified and relaunched with backoff,
// relaunches resume from checkpoints bit-identically, non-strict exchange
// degrades gracefully, and the journal record rejects every corruption.
//
// This binary is its own shard worker: the subprocess executor re-execs it
// with --shard-worker, so main() routes that entry point before gtest.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fsio.hpp"
#include "dist/checkpoint.hpp"
#include "dist/executor.hpp"
#include "prior_parity_strategy.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace dist = critter::dist;
namespace tune = critter::tune;
using critter::Policy;

namespace {

tune::Study subset(tune::Study study, int nconfigs) {
  if (nconfigs < static_cast<int>(study.configs.size()))
    study.configs.resize(nconfigs);
  return study;
}

/// Bitwise equality of everything the fold produces (recovery must be
/// bit-identical to an uninterrupted run, so no tolerances anywhere).
void expect_equal_results(const tune::TuneResult& a, const tune::TuneResult& b,
                          const std::string& what, bool compare_stats = true) {
  ASSERT_EQ(a.per_config.size(), b.per_config.size()) << what;
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    EXPECT_EQ(a.per_config[i].evaluated, b.per_config[i].evaluated)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].true_time, b.per_config[i].true_time)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].pred_time, b.per_config[i].pred_time)
        << what << " config " << i;
    EXPECT_EQ(a.per_config[i].err, b.per_config[i].err) << what;
    EXPECT_EQ(a.per_config[i].executed, b.per_config[i].executed) << what;
    EXPECT_EQ(a.per_config[i].skipped, b.per_config[i].skipped) << what;
    EXPECT_EQ(a.per_config[i].samples_used, b.per_config[i].samples_used)
        << what;
  }
  EXPECT_EQ(a.tuning_time, b.tuning_time) << what;
  EXPECT_EQ(a.full_time, b.full_time) << what;
  EXPECT_EQ(a.kernel_time, b.kernel_time) << what;
  EXPECT_EQ(a.evaluated_configs, b.evaluated_configs) << what;
  EXPECT_EQ(a.best_predicted(), b.best_predicted()) << what;
  if (compare_stats)
    EXPECT_TRUE(a.stats.same_statistics(b.stats)) << what << " stats";
}

tune::TuneOptions isolated_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::ConditionalExecution;
  opt.samples = 1;
  opt.reset_per_config = true;
  return opt;
}

tune::TuneOptions shared_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;
  return opt;
}

/// A FaultPolicy with test-friendly backoff (the defaults are sized for
/// real fleets, not CI).
dist::FaultPolicy quick_fault(int max_retries, int checkpoint_every = 0) {
  dist::FaultPolicy f;
  f.max_retries = max_retries;
  f.checkpoint_every = checkpoint_every;
  f.backoff_initial_s = 0.05;
  f.backoff_max_s = 0.2;
  return f;
}

/// Test-only fault injection for the worker fleet (see dist/subprocess.cc):
/// every worker the launcher starts while this lives inherits the spec.
struct ScopedShardFault {
  explicit ScopedShardFault(const std::string& spec) {
    ::setenv("CRITTER_SHARD_FAULT", spec.c_str(), 1);
  }
  ~ScopedShardFault() { ::unsetenv("CRITTER_SHARD_FAULT"); }
};

const tune::ShardRecovery& recovery_of(const tune::TuneResult& r, int shard) {
  for (const tune::ShardRecovery& sr : r.shard_recovery)
    if (sr.shard == shard) return sr;
  ADD_FAILURE() << "no recovery record for shard " << shard;
  static tune::ShardRecovery none;
  return none;
}

}  // namespace

// ---------------------------------------------------------------------------
// The acceptance contract: crash mid-sweep, relaunch, resume from
// checkpoint, finish bit-identical to the uninterrupted run.
// ---------------------------------------------------------------------------

TEST(CrashRecovery, MidSweepCrashResumesBitIdenticalExchangeOff) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 4, seq);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/2, /*checkpoint_every=*/1);
  dist::SubprocessExecutor sub(sopts);
  const ScopedShardFault injected("1:crash-after-batch:2");
  const tune::TuneResult r = dist::run_sharded(study, opt, 4, sub);

  expect_equal_results(clean, r, "crash-recover, exchange off");
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.resumed_batches, 1);  // resumed, not restarted
  EXPECT_FALSE(rec.last_failure.empty());
  EXPECT_NE(rec.last_failure.find("42"), std::string::npos)
      << rec.last_failure;
  EXPECT_EQ(recovery_of(r, 0).retries, 0);
}

TEST(CrashRecovery, MidSweepCrashResumesBitIdenticalExchangeOnStrict) {
  // Second input: a strategy whose asks flip with every ingested exchange
  // delta, so the resume must replay the peer deltas the crashed attempt
  // absorbed or its re-asks diverge and the worker restarts clean.
  struct Input {
    int nconfigs;
    int nshards;
    std::string strategy;
    std::string fault;
  };
  for (const Input& in :
       {Input{8, 4, "exhaustive", "1:crash-after-batch:2"},
        Input{16, 2, "prior-parity", "1:crash-after-batch:3"}}) {
    const std::string what = "crash-recover, exchange on strict, " +
                             in.strategy;
    const tune::Study study =
        subset(tune::slate_cholesky_study(false), in.nconfigs);
    tune::TuneOptions opt = shared_options();
    opt.strategy = in.strategy;
    const dist::ExchangePolicy every1{1};  // strict by default
    dist::InProcessExecutor inproc;
    const tune::TuneResult clean =
        dist::run_sharded(study, opt, in.nshards, inproc, every1);
    ASSERT_GT(clean.exchange_rounds, 0) << what;

    dist::SubprocessOptions sopts;
    sopts.fault = quick_fault(/*max_retries=*/2, /*checkpoint_every=*/1);
    dist::SubprocessExecutor sub(sopts);
    const ScopedShardFault injected(in.fault);
    const tune::TuneResult r =
        dist::run_sharded(study, opt, in.nshards, sub, every1);

    expect_equal_results(clean, r, what);
    EXPECT_EQ(r.exchange_rounds, clean.exchange_rounds) << what;
    EXPECT_EQ(r.exchange_skips, 0) << what;  // strict never skips
    EXPECT_TRUE(r.exchange_strict) << what;
    const tune::ShardRecovery& rec = recovery_of(r, 1);
    EXPECT_EQ(rec.retries, 1) << what;
    EXPECT_TRUE(rec.recovered) << what;
    EXPECT_GE(rec.resumed_batches, 1) << what;
  }
}

TEST(CrashRecovery, CrashOnStartRecoversByCleanRestart) {
  // No checkpoints: the relaunch restarts from scratch, which is still
  // bit-identical (nothing was published).
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const tune::TuneOptions opt = isolated_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 2, seq);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1);
  dist::SubprocessExecutor sub(sopts);
  const ScopedShardFault injected("0:crash-on-start");
  const tune::TuneResult r = dist::run_sharded(study, opt, 2, sub);

  expect_equal_results(clean, r, "crash-on-start recovery");
  const tune::ShardRecovery& rec = recovery_of(r, 0);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.resumed_batches, 0);  // nothing to resume from
}

TEST(CrashRecovery, HungWorkerIsStallKilledAndRelaunched) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 6);
  const tune::TuneOptions opt = isolated_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 2, seq);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
  // A worker making no heartbeat progress within the deadline is killed
  // and relaunched — the hang mode stops beating on purpose.
  sopts.fault.progress_deadline_s = 1.0;
  dist::SubprocessExecutor sub(sopts);
  const ScopedShardFault injected("1:hang-after-batch");
  const tune::TuneResult r = dist::run_sharded(study, opt, 2, sub);

  expect_equal_results(clean, r, "hang recovery");
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_NE(rec.last_failure.find("stalled"), std::string::npos)
      << rec.last_failure;
  // The stall report must say where the worker got stuck: the hang fires
  // right after the batch-1 heartbeat in the evaluate loop, so the last
  // beat the launcher saw carries exactly that phase and batch counter.
  EXPECT_NE(rec.last_failure.find("last phase=evaluate"), std::string::npos)
      << rec.last_failure;
  EXPECT_NE(rec.last_failure.find("batch 1"), std::string::npos)
      << rec.last_failure;
}

// ---------------------------------------------------------------------------
// Retry exhaustion: abort with full context, or degrade when asked to
// ---------------------------------------------------------------------------

TEST(RetryExhaustion, PersistentCrashAbortsNamingShardAndRelaunches) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 4);
  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1);
  dist::SubprocessExecutor sub(sopts);
  // Fires on every attempt.
  const ScopedShardFault injected("0:crash-on-start:0:99");
  std::string run_dir;
  try {
    dist::run_sharded(study, isolated_options(), 2, sub);
    FAIL() << "persistently crashing worker did not surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard worker 0"), std::string::npos) << what;
    EXPECT_NE(what.find("41"), std::string::npos) << what;
    EXPECT_NE(what.find("relaunch"), std::string::npos) << what;
    EXPECT_NE(what.find("run directory kept"), std::string::npos) << what;
    const auto at = what.find("kept at ");
    ASSERT_NE(at, std::string::npos);
    run_dir = what.substr(at + 8);
  }
  // Satellite contract: the abort marker goes through the atomic publish
  // protocol — a poller can never observe a half-written reason.
  EXPECT_TRUE(core::published(run_dir, "abort"));
  EXPECT_NE(core::read_published(run_dir, "abort").find("shard worker 0"),
            std::string::npos);
  core::remove_dir_tree(run_dir);
}

TEST(RetryExhaustion, DegradeCompletesTheShardInProcessBitIdentically) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const tune::TuneOptions opt = isolated_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 2, seq);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1);
  sopts.fault.on_exhausted = dist::FaultPolicy::OnExhausted::Degrade;
  dist::SubprocessExecutor sub(sopts);
  // An unrecoverable shard.
  const ScopedShardFault injected("1:crash-on-start:0:99");
  const tune::TuneResult r = dist::run_sharded(study, opt, 2, sub);

  expect_equal_results(clean, r, "degraded completion, exchange off");
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_TRUE(rec.degraded);
  EXPECT_FALSE(rec.recovered);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_FALSE(rec.last_failure.empty());
}

TEST(RetryExhaustion, DegradeWithStrictExchangeIsRejectedUpFront) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  dist::SubprocessOptions sopts;
  sopts.fault.on_exhausted = dist::FaultPolicy::OnExhausted::Degrade;
  dist::SubprocessExecutor sub(sopts);
  try {
    dist::run_sharded(study, shared_options(), 2, sub,
                      dist::ExchangePolicy{1, /*strict=*/true});
    FAIL() << "degrade + strict exchange accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-strict"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Non-strict exchange: skip a peer instead of aborting
// ---------------------------------------------------------------------------

TEST(NonStrictExchange, NoFaultsMeansNoSkipsAndBitIdenticalToStrict) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor inproc;
  const tune::TuneResult strict =
      dist::run_sharded(study, opt, 2, inproc, dist::ExchangePolicy{1, true});
  dist::SubprocessExecutor sub;
  const tune::TuneResult lax =
      dist::run_sharded(study, opt, 2, sub, dist::ExchangePolicy{1, false});
  EXPECT_EQ(lax.exchange_skips, 0);
  EXPECT_FALSE(lax.exchange_strict);
  expect_equal_results(strict, lax, "non-strict without faults");
}

TEST(NonStrictExchange, CorruptDeltaIsSkippedAndTheSweepCompletes) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  dist::SubprocessOptions sopts;
  dist::SubprocessExecutor sub(sopts);
  // The round-0 delta of shard 0.
  const ScopedShardFault injected("0:corrupt-delta");
  const tune::TuneResult r =
      dist::run_sharded(study, shared_options(), 2, sub,
                        dist::ExchangePolicy{1, /*strict=*/false});
  EXPECT_GE(r.exchange_skips, 1);
  EXPECT_GE(recovery_of(r, 1).exchange_skips, 1);  // shard 1 skipped peer 0
  EXPECT_EQ(r.evaluated_configs,
            static_cast<int>(study.configs.size()));
}

TEST(NonStrictExchange, CorruptDeltaUnderStrictAbortsTheFleet) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  dist::SubprocessOptions sopts;
  dist::SubprocessExecutor sub(sopts);
  const ScopedShardFault injected("0:corrupt-delta");
  try {
    dist::run_sharded(study, shared_options(), 2, sub,
                      dist::ExchangePolicy{1, /*strict=*/true});
    FAIL() << "corrupt delta under strict mode did not surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("snapshot"), std::string::npos) << what;
    const auto at = what.find("kept at ");
    if (at != std::string::npos) core::remove_dir_tree(what.substr(at + 8));
  }
}

TEST(NonStrictExchange, SlowPeerPastDeadlineIsSkipped) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  dist::SubprocessOptions sopts;
  sopts.fault.exchange_deadline_s = 0.3;
  dist::SubprocessExecutor sub(sopts);
  // The round-0 delta arrives 1.5 s late.
  const ScopedShardFault injected("0:slow-exchange:1500");
  const tune::TuneResult r =
      dist::run_sharded(study, shared_options(), 2, sub,
                        dist::ExchangePolicy{1, /*strict=*/false});
  EXPECT_GE(r.exchange_skips, 1);
  EXPECT_EQ(r.evaluated_configs, static_cast<int>(study.configs.size()));
  for (const tune::ShardRecovery& sr : r.shard_recovery)
    EXPECT_EQ(sr.retries, 0);  // slow, not faulty: nobody was relaunched
}

// ---------------------------------------------------------------------------
// Checkpoint integrity: torn and corrupt checkpoints can never poison a
// resume
// ---------------------------------------------------------------------------

TEST(CheckpointIntegrity, CorruptLatestSlotFallsBackToPreviousBitIdentically) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 4, seq);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
  // Checkpoint #2 (slot b) is corrupted at the source and the worker dies;
  // the relaunch must reject slot b by checksum and resume from slot a.
  dist::SubprocessExecutor sub(sopts);
  const ScopedShardFault injected("1:corrupt-checkpoint:2");
  const tune::TuneResult r = dist::run_sharded(study, opt, 4, sub);

  expect_equal_results(clean, r, "corrupt-checkpoint fallback");
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.resumed_batches, 1);
}

TEST(CheckpointIntegrity, Kill9MidCheckpointPublishResumesBitIdentically) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 4, seq);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
  // SIGKILL lands between checkpoint #2's payload rename and its manifest
  // write — the torn slot is unpublished, the previous slot still valid.
  dist::SubprocessExecutor sub(sopts);
  const ScopedShardFault injected("1:kill-mid-checkpoint:2");
  const tune::TuneResult r = dist::run_sharded(study, opt, 4, sub);

  expect_equal_results(clean, r, "kill-9 mid-checkpoint resume");
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.resumed_batches, 1);
  EXPECT_NE(rec.last_failure.find("signal"), std::string::npos)
      << rec.last_failure;
}

TEST(CheckpointIntegrity, RelaunchAfterATornAppendRebasesSoTheNextResumeReachesIt) {
  // Shard 1's checkpoint #2 — an increment — is torn (or corrupted) on two
  // attempts in a row.  The second attempt resumes past the first bad tail
  // and journals batch 2; that record must survive into the third
  // attempt's resume, which it can only do if the relaunch re-based with a
  // full slot instead of appending behind the bad frame.
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 2, seq);

  for (const char* mode : {"kill-mid-checkpoint", "corrupt-checkpoint"}) {
    dist::SubprocessOptions sopts;
    sopts.fault = quick_fault(/*max_retries=*/2, /*checkpoint_every=*/1);
    dist::SubprocessExecutor sub(sopts);
    const ScopedShardFault injected(std::string("1:") + mode + ":2:2");
    const tune::TuneResult r = dist::run_sharded(study, opt, 2, sub);

    expect_equal_results(clean, r, mode);
    const tune::ShardRecovery& rec = recovery_of(r, 1);
    EXPECT_EQ(rec.retries, 2) << mode;
    EXPECT_TRUE(rec.recovered) << mode;
    EXPECT_EQ(rec.resumed_batches, 2) << mode;
  }
}

TEST(CheckpointIntegrity, DamagedFirstSlotRestartsCleanBitIdentically) {
  // Checkpoint #1 is a full slot: torn, its payload lands without a
  // manifest; corrupted, its checksum trailer fails.  Either way the
  // relaunch finds no usable slot and restarts clean.
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  dist::InProcessExecutor seq;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 2, seq);

  for (const char* mode : {"kill-mid-checkpoint", "corrupt-checkpoint"}) {
    dist::SubprocessOptions sopts;
    sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
    dist::SubprocessExecutor sub(sopts);
    const ScopedShardFault injected(std::string("1:") + mode + ":1");
    const tune::TuneResult r = dist::run_sharded(study, opt, 2, sub);

    expect_equal_results(clean, r, mode);
    const tune::ShardRecovery& rec = recovery_of(r, 1);
    EXPECT_EQ(rec.retries, 1) << mode;
    EXPECT_TRUE(rec.recovered) << mode;
    EXPECT_EQ(rec.resumed_batches, 0) << mode;
  }
}

// ---------------------------------------------------------------------------
// Journal records in both envelopes — a full checkpoint in its slot and a
// log record in its frame: roundtrip, exhaustive corruption fuzz, continuity
// ---------------------------------------------------------------------------

namespace {

/// A small non-empty snapshot, the shape of a per-checkpoint diff.
core::StatSnapshot small_snapshot(int salt) {
  core::StatSnapshot s;
  s.ranks.resize(1);
  core::KernelTable& t = s.ranks[0];
  t.init_world(1);
  const core::KernelKey key{static_cast<core::KernelClass>(salt % 3),
                            {64 + salt, 32, 0, 0},
                            0};
  core::KernelStats ks;
  ks.add_sample(1.5 + salt);
  ks.add_sample(2.25 + salt);
  ks.total_invocations = 2;
  ks.total_executions = 2;
  ks.registered = true;
  t.K.emplace(key, ks);
  t.key_of_hash.emplace(key.hash(), key);
  t.epoch = 1;
  return s;
}

/// A told batch at `positions` whose outcome bits depend on `k`.
dist::ShardCheckpoint::ToldBatch told_batch(const tune::Study& study,
                                            std::vector<int> positions,
                                            int k) {
  dist::ShardCheckpoint::ToldBatch tb;
  for (int pos : positions) {
    tune::ConfigOutcome oc;
    oc.config = study.configs[static_cast<std::size_t>(pos)];
    oc.evaluated = true;
    oc.true_time = 1.0 + k + 0.125 * pos;
    oc.pred_time = 1.25 + k;
    oc.executed = 10 + k;
    oc.samples_used = 1;
    tb.outcomes.push_back(oc);
  }
  tb.positions = std::move(positions);
  return tb;
}

/// A full checkpoint of `range` (four configurations) at seq 3: two told
/// batches, one skip, one exchange round, the whole range's totals, and
/// full payloads in its patch fields.
dist::JournalRecord sample_full(const tune::Study& study,
                                const dist::ShardRange& range,
                                bool exchange_state = false) {
  dist::JournalRecord rec;
  rec.seq = 3;
  rec.batches = 2;
  rec.rounds = 1;
  rec.in_round = 1;
  rec.exchange_skips = 1;
  rec.skipped = {{0, 0}};
  rec.told = {told_batch(study, {range.begin, range.begin + 1}, 1),
              told_batch(study, {range.begin + 2}, 2)};
  for (auto& tb : rec.told) {
    for (tune::ConfigOutcome& oc : tb.outcomes) {
      oc.err = 0.125;
      oc.skipped = 3;
    }
  }
  for (int i = 0; i < range.end - range.begin; ++i) {
    tune::ConfigTotals t;
    t.tuning_time = 0.5 * (i + 1);
    t.full_time = 2.0 * (i + 1);
    rec.totals.emplace_back(i, t);
  }
  rec.full_patch = small_snapshot(0).to_string();
  rec.has_exchange_state = exchange_state;
  if (exchange_state) {
    rec.mark_patch = small_snapshot(2).to_string();
    rec.own_patch = small_snapshot(3).to_string();
  }
  return rec;
}

/// A log record that validly extends sample_full (seq 3 -> 4): one more
/// told batch, one more skip, one more exchange round, the total at the new
/// batch's position, and a sparse byte patch of every payload.
dist::JournalRecord sample_increment(const tune::Study& study,
                                     const dist::ShardRange& range,
                                     bool exchange_state = false) {
  dist::JournalRecord rec;
  rec.base_seq = 3;
  rec.seq = 4;
  rec.batches = 3;
  rec.rounds = 2;
  rec.in_round = 0;
  rec.exchange_skips = 2;
  rec.skipped = {{1, 0}};
  rec.told = {told_batch(study, {range.begin + 3}, 3)};
  rec.told[0].outcomes[0].err = 0.0625;
  rec.told[0].outcomes[0].skipped = 2;
  tune::ConfigTotals t;
  t.tuning_time = 8.0;
  t.full_time = 16.0;
  rec.totals = {{3, t}};
  const auto patch = [](int from, int to) {
    return dist::make_patch(small_snapshot(from).to_string(),
                            small_snapshot(to).to_string());
  };
  rec.full_patch = patch(0, 1);
  rec.has_exchange_state = exchange_state;
  if (exchange_state) {
    rec.mark_patch = patch(2, 4);
    rec.own_patch = patch(3, 5);
  }
  return rec;
}

using RecordReader = dist::JournalRecord (*)(const std::string&,
                                             const tune::Study&,
                                             const dist::ShardRange&);

dist::JournalRecord read_slot(const std::string& bytes,
                              const tune::Study& study,
                              const dist::ShardRange& range) {
  return dist::parse_record(dist::open_slot(bytes), study, range);
}

dist::JournalRecord read_log(const std::string& bytes,
                             const tune::Study& study,
                             const dist::ShardRange& range) {
  const std::vector<std::string> records = dist::scan_log_records(bytes);
  if (records.size() != 1)
    throw std::runtime_error("log frame: no complete record");
  return dist::parse_record(records[0], study, range);
}

/// One record in the envelope it travels in, with that envelope's reader.
struct Enveloped {
  std::string name;
  dist::JournalRecord rec;
  std::string bytes;
  RecordReader read;
};

/// Both inputs: a full checkpoint in the slot envelope, and a log record
/// in a log frame.
std::vector<Enveloped> both_envelopes(const tune::Study& study,
                                      const dist::ShardRange& range,
                                      bool exchange_state) {
  dist::JournalRecord full = sample_full(study, range, exchange_state);
  dist::JournalRecord inc = sample_increment(study, range, exchange_state);
  std::string slot = dist::seal_slot(dist::serialize_record(full));
  std::string frame = dist::frame_log_record(dist::serialize_record(inc));
  std::vector<Enveloped> out;
  out.push_back({"full checkpoint in a slot", std::move(full),
                 std::move(slot), read_slot});
  out.push_back({"log record in a frame", std::move(inc), std::move(frame),
                 read_log});
  return out;
}

}  // namespace

TEST(JournalRecord, RoundtripPreservesEveryFieldInBothEnvelopes) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  for (bool exchange : {false, true}) {
    for (const Enveloped& in : both_envelopes(study, range, exchange)) {
      const dist::JournalRecord& rec = in.rec;
      const dist::JournalRecord back = in.read(in.bytes, study, range);
      EXPECT_EQ(back.base_seq, rec.base_seq) << in.name;
      EXPECT_EQ(back.seq, rec.seq) << in.name;
      EXPECT_EQ(back.batches, rec.batches) << in.name;
      EXPECT_EQ(back.rounds, rec.rounds) << in.name;
      EXPECT_EQ(back.in_round, rec.in_round) << in.name;
      EXPECT_EQ(back.exchange_skips, rec.exchange_skips) << in.name;
      EXPECT_EQ(back.skipped, rec.skipped) << in.name;
      ASSERT_EQ(back.told.size(), rec.told.size()) << in.name;
      for (std::size_t b = 0; b < rec.told.size(); ++b) {
        EXPECT_EQ(back.told[b].positions, rec.told[b].positions) << in.name;
        ASSERT_EQ(back.told[b].outcomes.size(), rec.told[b].outcomes.size())
            << in.name;
        for (std::size_t o = 0; o < rec.told[b].outcomes.size(); ++o) {
          const tune::ConfigOutcome& got = back.told[b].outcomes[o];
          const tune::ConfigOutcome& want = rec.told[b].outcomes[o];
          EXPECT_EQ(got.true_time, want.true_time) << in.name;
          EXPECT_EQ(got.err, want.err) << in.name;
          EXPECT_EQ(got.executed, want.executed) << in.name;
          EXPECT_EQ(got.skipped, want.skipped) << in.name;
        }
      }
      ASSERT_EQ(back.totals.size(), rec.totals.size()) << in.name;
      for (std::size_t i = 0; i < rec.totals.size(); ++i)
        EXPECT_EQ(back.totals[i].first, rec.totals[i].first) << in.name;
      EXPECT_EQ(back.has_exchange_state, rec.has_exchange_state) << in.name;
      EXPECT_EQ(back.full_patch, rec.full_patch) << in.name;
      EXPECT_EQ(back.mark_patch, rec.mark_patch) << in.name;
      EXPECT_EQ(back.own_patch, rec.own_patch) << in.name;
      // Deep equality via the canonical encoding.
      EXPECT_EQ(dist::serialize_record(back), dist::serialize_record(rec))
          << in.name;
    }
  }
}

TEST(JournalRecord, EveryTruncationIsRejectedInBothEnvelopes) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  for (const Enveloped& in : both_envelopes(study, range, true)) {
    for (std::size_t len = 0; len < in.bytes.size(); ++len) {
      EXPECT_THROW(in.read(in.bytes.substr(0, len), study, range),
                   std::runtime_error)
          << in.name << ": truncation to " << len << " bytes accepted";
    }
    // The record parser alone, without the envelope's checksum.
    const std::string bare = dist::serialize_record(in.rec);
    for (std::size_t len = 0; len < bare.size(); ++len) {
      EXPECT_THROW(dist::parse_record(bare.substr(0, len), study, range),
                   std::runtime_error)
          << in.name << ": bare record truncated to " << len
          << " bytes accepted";
    }
  }
}

TEST(JournalRecord, EveryByteFlipIsRejectedInBothEnvelopes) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  for (const Enveloped& in : both_envelopes(study, range, true)) {
    for (std::size_t i = 0; i < in.bytes.size(); ++i) {
      for (unsigned char mask : {0x01, 0x80, 0xff}) {
        std::string bad = in.bytes;
        bad[i] = static_cast<char>(bad[i] ^ mask);
        EXPECT_THROW(in.read(bad, study, range), std::runtime_error)
            << in.name << ": flip of byte " << i << " mask "
            << static_cast<int>(mask) << " accepted";
      }
    }
  }
}

TEST(JournalRecord, WrongRangeOrStudyIsRejectedInBothEnvelopes) {
  // A record from a different shard plan or study must not resume this one,
  // even with every checksum valid.
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const tune::Study smaller = subset(tune::capital_cholesky_study(false), 6);
  const dist::ShardRange range{1, 4, 8};
  for (const Enveloped& in : both_envelopes(study, range, false)) {
    ASSERT_NO_THROW(in.read(in.bytes, study, range)) << in.name;
    EXPECT_THROW(in.read(in.bytes, study, dist::ShardRange{0, 0, 4}),
                 std::runtime_error)
        << in.name;
    EXPECT_THROW(in.read(in.bytes, study, dist::ShardRange{1, 4, 6}),
                 std::runtime_error)
        << in.name;
    EXPECT_THROW(in.read(in.bytes, smaller, range), std::runtime_error)
        << in.name;
  }
}

TEST(JournalLog, ScanKeepsThePrefixBeforeATornOrCorruptRecord) {
  const std::vector<std::string> payloads = {"first record", "second",
                                             "third and longest record"};
  std::string log;
  std::vector<std::size_t> ends;  // log size after each complete frame
  for (const std::string& p : payloads) {
    log += dist::frame_log_record(p);
    ends.push_back(log.size());
  }
  // Every truncation keeps exactly the complete frames before the tear.
  for (std::size_t len = 0; len <= log.size(); ++len) {
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= len) ++expect;
    const std::vector<std::string> got =
        dist::scan_log_records(log.substr(0, len));
    ASSERT_EQ(got.size(), expect) << "truncation to " << len;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], payloads[i]);
  }
  // A corrupt middle record hides itself and everything after it.
  std::string bad = log;
  bad[ends[0] + 20] = static_cast<char>(bad[ends[0] + 20] ^ 0x5a);
  const std::vector<std::string> got = dist::scan_log_records(bad);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payloads[0]);
}

TEST(JournalRecord, ApplyExtendsTheStateAndRejectsEveryContinuityGap) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  dist::ShardCheckpoint empty;
  empty.totals.resize(4);

  // The full checkpoint applies to the empty state and rebuilds it whole:
  // the state it makes is the record that made it.
  dist::ShardCheckpoint base = empty;
  dist::apply_record(base, 0, sample_full(study, range));
  EXPECT_EQ(base.seq, 3);
  EXPECT_EQ(base.batches, 2);
  EXPECT_EQ(base.told.size(), 2u);
  EXPECT_EQ(base.totals[3].tuning_time, 2.0);
  EXPECT_EQ(base.full_bytes, small_snapshot(0).to_string());
  EXPECT_EQ(dist::serialize_record(base),
            dist::serialize_record(sample_full(study, range)));

  // The log record extends it and advances every cursor.
  {
    dist::ShardCheckpoint ck = base;
    dist::apply_record(ck, 3, sample_increment(study, range));
    EXPECT_EQ(ck.seq, 4);
    EXPECT_EQ(ck.batches, 3);
    EXPECT_EQ(ck.rounds, 2);
    EXPECT_EQ(ck.exchange_skips, 2);
    ASSERT_EQ(ck.told.size(), 3u);
    EXPECT_EQ(ck.told[2].positions, std::vector<int>{range.begin + 3});
    ASSERT_EQ(ck.skipped.size(), 2u);
    EXPECT_EQ(ck.skipped[1], (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ck.totals[3].tuning_time, 8.0);
    EXPECT_EQ(ck.full_bytes, small_snapshot(1).to_string());
  }

  // Each discontinuity throws and leaves the state untouched.
  const auto rejects = [&](const dist::ShardCheckpoint& from,
                           dist::JournalRecord rec, std::int64_t base_seq,
                           const std::string& what) {
    dist::ShardCheckpoint ck = from;
    EXPECT_THROW(dist::apply_record(ck, base_seq, std::move(rec)),
                 std::runtime_error)
        << what;
    EXPECT_EQ(dist::serialize_record(ck), dist::serialize_record(from))
        << what << " mutated the state before throwing";
  };
  using Edit = std::function<void(dist::JournalRecord&)>;
  const std::vector<std::pair<std::string, Edit>> gaps = {
      {"batch cursor mismatch",
       [](dist::JournalRecord& r) { ++r.batches; }},  // one batch too many
      {"skip cursor mismatch",
       [](dist::JournalRecord& r) { ++r.exchange_skips; }},
      {"round cursor went backwards",  // the base completed round 1
       [](dist::JournalRecord& r) { r.rounds = r.base_seq == 0 ? -1 : 0; }},
      {"exchange-state flag mismatch",
       [](dist::JournalRecord& r) { r.has_exchange_state = true; }},
      {"totals index out of range",  // the range has 4 totals
       [](dist::JournalRecord& r) { r.totals.back().first = 5; }},
  };
  for (const auto& [what, edit] : gaps) {
    dist::JournalRecord full = sample_full(study, range);
    edit(full);
    rejects(empty, std::move(full), 0, "full checkpoint: " + what);
    dist::JournalRecord inc = sample_increment(study, range);
    edit(inc);
    rejects(base, std::move(inc), 3, "log record: " + what);
  }
  rejects(base, sample_increment(study, range), 2, "wrong base seq");
  {
    dist::JournalRecord rec = sample_increment(study, range);
    rec.seq = 5;  // base is at seq 3; 5 skips a record
    rejects(base, std::move(rec), 3, "sequence gap");
  }
  rejects(empty, sample_full(study, range), 3,
          "a full checkpoint where a log record is due");
  rejects(base, sample_full(study, range), 0,
          "a full checkpoint over a non-empty state");
  {
    dist::JournalRecord rec = sample_full(study, range);
    rec.totals.erase(rec.totals.begin() + 1);
    rejects(empty, std::move(rec), 0,
            "a full checkpoint that leaves a range index without totals");
  }
  {
    dist::JournalRecord rec = sample_full(study, range);
    rec.full_patch = sample_increment(study, range).full_patch;
    rejects(empty, std::move(rec), 0,
            "a full checkpoint whose payload is a sparse patch");
  }
}

// ---------------------------------------------------------------------------
// Crash-point enumeration over the session journal: a scripted session is
// interrupted at every durable write of every record, for the tuner
// daemon's record shape and the shard worker's, and must resume into
// exactly the state the last completed write made durable
// ---------------------------------------------------------------------------

namespace {

/// A three-rank snapshot as of journal step `step`: rank r gains a sample
/// at every step s with s % 3 == r, so consecutive snapshots differ in one
/// rank chunk — the shape sparse patches ship.  `salt` makes unrelated
/// snapshots (a mark, an own, an imported state).
core::StatSnapshot evolving_snapshot(int step, int salt) {
  constexpr int kRanks = 3;
  core::StatSnapshot s;
  s.ranks.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    core::KernelTable& t = s.ranks[static_cast<std::size_t>(r)];
    t.init_world(kRanks);
    const core::KernelKey key{static_cast<core::KernelClass>(r),
                              {64 + salt, 32 + r, 0, 0},
                              0};
    core::KernelStats ks;
    ks.add_sample(1.0 + r + salt);
    for (int k = r; k <= step; k += kRanks) ks.add_sample(1.5 + k + salt);
    ks.total_invocations = ks.total_executions = ks.n;
    ks.registered = true;
    t.K.emplace(key, ks);
    t.key_of_hash.emplace(key.hash(), key);
    t.epoch = 1;
  }
  return s;
}

/// A scripted journal session: `step(k, journal)` returns record k's step
/// (computed against the journal's state, like a live owner) and may first
/// force or re-base the journal.  The run accumulates totals at every told
/// position, the way a tuner does.
struct Script {
  tune::Study study;
  dist::ShardRange range;
  bool exchanging = false;
  int records = 0;
  std::function<dist::SessionJournal::Step(int, dist::SessionJournal&)> step;
};

/// Every file of a directory (name -> bytes): a copy taken between writes.
using DirImage = std::map<std::string, std::string>;

DirImage image_of(const std::string& dir) {
  DirImage img;
  for (const std::string& name : core::list_dir(dir))
    img[name] = core::read_file(dir + "/" + name);
  return img;
}

void materialize(const DirImage& img, const std::string& dir) {
  core::remove_dir_tree(dir);
  core::make_dir(dir);
  for (const auto& [name, bytes] : img) core::write_file(dir + "/" + name, bytes);
}

/// One more record on a resumed journal — a told batch and a statistics
/// change — after which a fresh resume must reach it.
void expect_next_record_reachable(const Script& sc, dist::SessionJournal& j,
                                  const std::string& dir,
                                  const std::string& what) {
  dist::SessionJournal::Step step;
  step.told.push_back(told_batch(sc.study, {sc.range.begin}, 99));
  step.rounds = j.state().rounds;
  step.in_round = j.state().in_round + 1;
  const std::string cur = evolving_snapshot(99, 7).to_string();
  step.full_patch = dist::make_patch(j.state().full_bytes, cur);
  step.full_bytes = cur;
  std::vector<tune::ConfigTotals> totals(sc.study.configs.size());
  totals[static_cast<std::size_t>(sc.range.begin)].tuning_time = 99.0;
  j.record(std::move(step), totals);
  dist::SessionJournal again(dir, sc.range, sc.exchanging);
  ASSERT_TRUE(again.resume(sc.study)) << what;
  // Boolean comparisons: a failure names the crash point, not 1 KB of
  // checkpoint bytes.
  EXPECT_TRUE(dist::serialize_record(again.state()) ==
              dist::serialize_record(j.state()))
      << what << ": the record after the resume is unreachable";
}

/// Resume from crash state `img`; the journal must hold exactly `expect`
/// (a serialized live state; "" = no durable slot yet).
void expect_resumes_to(const Script& sc, const DirImage& img,
                       const std::string& expect, const std::string& what) {
  const std::string dir = core::make_temp_dir("critter_journal_crash");
  materialize(img, dir);
  dist::SessionJournal j(dir, sc.range, sc.exchanging);
  const bool resumed = j.resume(sc.study);
  EXPECT_EQ(resumed, !expect.empty()) << what;
  if (resumed) {
    EXPECT_TRUE(dist::serialize_record(j.state()) == expect) << what;
  }
  expect_next_record_reachable(sc, j, dir, what);
  core::remove_dir_tree(dir);
}

/// Run the script live, imaging the directory after every record, then
/// build and resume every crash state between consecutive records:
///   (a) an increment's append torn at 1 byte, at the end of its 16-byte
///       frame header, mid-payload, and one byte short;
///   (b) a full slot's payload renamed in, with the slot's old manifest or
///       with none;
///   (c) a full slot published, the old log not yet removed.
/// Torn states resume to the state after record k-1, complete ones to the
/// state after record k.
void enumerate_crash_points(const Script& sc) {
  const std::string live_dir = core::make_temp_dir("critter_journal_live");
  dist::SessionJournal j(live_dir, sc.range, sc.exchanging);
  std::vector<tune::ConfigTotals> totals(sc.study.configs.size());
  std::vector<DirImage> images{image_of(live_dir)};
  std::vector<std::string> live{""};  // no durable state before record 1
  std::vector<bool> full{false};
  int increments = 0, slots = 0;
  for (int k = 1; k <= sc.records; ++k) {
    dist::SessionJournal::Step step = sc.step(k, j);
    for (const auto& tb : step.told)
      for (int pos : tb.positions)
        totals[static_cast<std::size_t>(pos)].tuning_time += 1.0 + k;
    full.push_back(j.next_is_full());
    j.record(std::move(step), totals);
    images.push_back(image_of(live_dir));
    live.push_back(dist::serialize_record(j.state()));
    ++(full.back() ? slots : increments);
  }
  core::remove_dir_tree(live_dir);
  ASSERT_GE(slots, 3) << "the script must cross full-slot boundaries";
  ASSERT_GE(increments, 16);

  const std::string log = "ckpt_log.bin";
  for (int k = 1; k <= sc.records; ++k) {
    const DirImage& before = images[static_cast<std::size_t>(k - 1)];
    const DirImage& after = images[static_cast<std::size_t>(k)];
    const std::string at = "record " + std::to_string(k);
    expect_resumes_to(sc, after, live[k], at + " complete");
    if (!full[k]) {
      const std::string old_log = before.count(log) ? before.at(log) : "";
      const std::string& new_log = after.at(log);
      ASSERT_EQ(new_log.compare(0, old_log.size(), old_log), 0) << at;
      const std::size_t frame = new_log.size() - old_log.size();
      for (std::size_t cut : {std::size_t{1}, std::size_t{16},
                              16 + (frame - 16) / 2, frame - 1}) {
        DirImage torn = before;
        torn[log] = new_log.substr(0, old_log.size() + cut);
        expect_resumes_to(sc, torn, live[k - 1],
                          at + " append torn at byte " + std::to_string(cut));
      }
      continue;
    }
    // The slot this record published: the one whose payload changed.
    std::string slot;
    for (const auto& [name, bytes] : after)
      if (after.count(name + ".ok") &&
          (!before.count(name) || before.at(name) != bytes))
        slot = name;
    ASSERT_FALSE(slot.empty()) << at;
    DirImage renamed = before;
    renamed[slot] = after.at(slot);
    if (before.count(slot + ".ok"))
      expect_resumes_to(sc, renamed, live[k - 1],
                        at + " payload renamed in under its old manifest");
    renamed.erase(slot + ".ok");
    expect_resumes_to(sc, renamed, live[k - 1],
                      at + " payload renamed in without a manifest");
    if (before.count(log)) {
      DirImage stale = after;
      stale[log] = before.at(log);
      expect_resumes_to(sc, stale, live[k], at + " published, old log kept");
    }
  }
}

}  // namespace

TEST(JournalCrashPoints, DaemonShapedSessionResumesFromEveryCrashPoint) {
  // No exchange state; one batch per record; the session patch cycles
  // through "" (unchanged), a sparse patch and a full payload — the three
  // shapes of a TELL's state field.  Record 18 is the cadence's full slot;
  // record 22 follows an import-style out-of-band replacement of the
  // statistics, which re-bases early.
  Script sc;
  sc.study = subset(tune::capital_cholesky_study(false), 8);
  sc.range = {0, 0, 8};
  sc.records = 26;
  sc.step = [&sc](int k, dist::SessionJournal& j) {
    if (k == 22) j.replace_bytes(evolving_snapshot(k, 40).to_string());
    dist::SessionJournal::Step step;
    step.told.push_back(told_batch(sc.study, {k % 8}, k));
    if (k % 3 != 0) {
      const std::string cur = evolving_snapshot(k, 0).to_string();
      step.full_patch = k % 3 == 1 ? dist::make_patch(j.state().full_bytes, cur)
                                   : cur;
      step.full_bytes = cur;
    }
    return step;
  };
  enumerate_crash_points(sc);
}

TEST(JournalCrashPoints, WorkerShapedSessionResumesFromEveryCrashPoint) {
  // Exchange on: mark/own move at every completed round (two batches a
  // round), records carry one or two batches and occasional peer skips.
  // Record 18 is the cadence's full slot; at record 20 the statistics reset
  // to empty, a transition no patch expresses, so that record asks for a
  // full slot.
  Script sc;
  sc.study = subset(tune::capital_cholesky_study(false), 8);
  sc.range = {1, 4, 8};
  sc.exchanging = true;
  sc.records = 24;
  int round = 0, in_round = 0;
  sc.step = [&](int k, dist::SessionJournal& j) {
    dist::SessionJournal::Step step;
    bool round_done = false;
    for (int b = 0; b < 1 + k % 2; ++b) {
      step.told.push_back(
          told_batch(sc.study, {4 + (k + b) % 2, 6 + (k + b) % 2}, k));
      if (++in_round == 2) {
        ++round;
        in_round = 0;
        round_done = true;
      }
    }
    if (k % 5 == 0) step.skipped.emplace_back(round, 0);
    if (k % 7 == 0) step.skipped.emplace_back(round, 2);
    step.rounds = round;
    step.in_round = in_round;
    step.full_bytes = k == 20 ? "" : evolving_snapshot(k, 0).to_string();
    if (round_done) {
      step.mark_bytes = evolving_snapshot(k, 50).to_string();
      step.own_bytes = evolving_snapshot(k, 70).to_string();
    }
    const dist::ShardCheckpoint& prev = j.state();
    if (step.full_bytes->empty() && !prev.full_bytes.empty()) j.force_full();
    if (!j.next_is_full()) {
      step.full_patch = dist::make_patch(prev.full_bytes, *step.full_bytes);
      if (step.mark_bytes)
        step.mark_patch = dist::make_patch(prev.mark_bytes, *step.mark_bytes);
      if (step.own_bytes)
        step.own_patch = dist::make_patch(prev.own_bytes, *step.own_bytes);
    }
    return step;
  };
  enumerate_crash_points(sc);
}

TEST(SessionJournal, AFailedWriteLeavesTheStateAtTheLastDurableRecord) {
  // A write that tears its record and then throws (a full disk, a vanished
  // directory) must leave state() at the last durable record, so the owner
  // can retry the same step.  The retry re-bases with a full slot in the
  // slot that does not hold the base, and a fresh resume reaches it.
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{0, 0, 8};
  const std::string dir = core::make_temp_dir("critter_journal_fail");
  dist::SessionJournal j(dir, range, /*exchanging=*/false);
  bool fail = false;
  j.set_write_seam([&fail](const auto& write) {
    if (!fail) return write(dist::SessionJournal::Damage::None);
    write(dist::SessionJournal::Damage::Torn);
    throw std::runtime_error("injected write failure");
  });
  std::vector<tune::ConfigTotals> totals(study.configs.size());
  const auto step = [&](int k) {
    totals[static_cast<std::size_t>(k)].tuning_time = 1.0 + k;
    dist::SessionJournal::Step s;
    s.told.push_back(told_batch(study, {k}, k));
    const std::string cur = evolving_snapshot(k, 0).to_string();
    s.full_patch = dist::make_patch(j.state().full_bytes, cur);
    s.full_bytes = cur;
    return s;
  };
  j.record(step(1), totals);  // a full slot
  j.record(step(2), totals);  // a log record
  // Record 3 fails twice: first as a torn append, then as the full slot
  // the failed append forces, torn at its publish.
  for (bool full_slot : {false, true}) {
    const std::string what = full_slot ? "torn slot" : "torn append";
    ASSERT_EQ(j.next_is_full(), full_slot) << what;
    const std::string durable = dist::serialize_record(j.state());
    fail = true;
    EXPECT_THROW(j.record(step(3), totals), std::runtime_error) << what;
    fail = false;
    EXPECT_TRUE(dist::serialize_record(j.state()) == durable)
        << what << ": a failed write advanced state()";
    EXPECT_TRUE(j.next_is_full()) << what;
  }
  j.record(step(3), totals);
  EXPECT_TRUE(core::published(dir, "ckpt_a.bin") &&
              core::published(dir, "ckpt_b.bin"))
      << "the retry overwrote the base slot";
  dist::SessionJournal again(dir, range, /*exchanging=*/false);
  ASSERT_TRUE(again.resume(study));
  EXPECT_EQ(again.state().batches, 3);
  EXPECT_TRUE(dist::serialize_record(again.state()) ==
              dist::serialize_record(j.state()))
      << "the record after the failed writes is unreachable";
  core::remove_dir_tree(dir);
}

int main(int argc, char** argv) {
  critter::testkit::register_prior_parity_strategy();
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
