// Fault tolerance of the subprocess shard fleet (DESIGN.md §10): crashed,
// hung, and misbehaving workers are classified and relaunched with backoff,
// relaunches resume from checkpoints bit-identically, non-strict exchange
// degrades gracefully, and the checkpoint format rejects every corruption.
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
#include "dist/protocol.hpp"
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
  const tune::TuneResult clean = tune::merge_shards(study, opt, 4);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/2, /*checkpoint_every=*/1);
  sopts.fault_injection = "1:crash-after-batch:2";
  dist::SubprocessExecutor sub(sopts);
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
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  const dist::ExchangePolicy every1{1};  // strict by default
  dist::InProcessExecutor inproc;
  const tune::TuneResult clean = dist::run_sharded(study, opt, 4, inproc,
                                                   every1);
  ASSERT_GT(clean.exchange_rounds, 0);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/2, /*checkpoint_every=*/1);
  sopts.fault_injection = "1:crash-after-batch:2";
  dist::SubprocessExecutor sub(sopts);
  const tune::TuneResult r = dist::run_sharded(study, opt, 4, sub, every1);

  expect_equal_results(clean, r, "crash-recover, exchange on strict");
  EXPECT_EQ(r.exchange_rounds, clean.exchange_rounds);
  EXPECT_EQ(r.exchange_skips, 0);  // strict never skips
  EXPECT_TRUE(r.exchange_strict);
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.resumed_batches, 1);
}

TEST(CrashRecovery, CrashOnStartRecoversByCleanRestart) {
  // No checkpoints: the relaunch restarts from scratch, which is still
  // bit-identical (nothing was published).
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const tune::TuneOptions opt = isolated_options();
  const tune::TuneResult clean = tune::merge_shards(study, opt, 2);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1);
  sopts.fault_injection = "0:crash-on-start";
  dist::SubprocessExecutor sub(sopts);
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
  const tune::TuneResult clean = tune::merge_shards(study, opt, 2);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
  // A worker making no heartbeat progress within the deadline is killed
  // and relaunched — the hang mode stops beating on purpose.
  sopts.fault.progress_deadline_s = 1.0;
  sopts.fault_injection = "1:hang-after-batch";
  dist::SubprocessExecutor sub(sopts);
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
  sopts.fault_injection = "0:crash-on-start:0:99";  // fires every attempt
  dist::SubprocessExecutor sub(sopts);
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
  EXPECT_TRUE(dist::published(run_dir, "abort"));
  EXPECT_NE(dist::read_published(run_dir, "abort").find("shard worker 0"),
            std::string::npos);
  dist::remove_dir_tree(run_dir);
}

TEST(RetryExhaustion, DegradeCompletesTheShardInProcessBitIdentically) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const tune::TuneOptions opt = isolated_options();
  const tune::TuneResult clean = tune::merge_shards(study, opt, 2);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1);
  sopts.fault.on_exhausted = dist::FaultPolicy::OnExhausted::Degrade;
  sopts.fault_injection = "1:crash-on-start:0:99";  // unrecoverable shard
  dist::SubprocessExecutor sub(sopts);
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
  sopts.fault_injection = "0:corrupt-delta";  // round-0 delta of shard 0
  dist::SubprocessExecutor sub(sopts);
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
  sopts.fault_injection = "0:corrupt-delta";
  dist::SubprocessExecutor sub(sopts);
  try {
    dist::run_sharded(study, shared_options(), 2, sub,
                      dist::ExchangePolicy{1, /*strict=*/true});
    FAIL() << "corrupt delta under strict mode did not surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard worker 1"), std::string::npos) << what;
    EXPECT_NE(what.find("snapshot"), std::string::npos) << what;
    const auto at = what.find("kept at ");
    if (at != std::string::npos) dist::remove_dir_tree(what.substr(at + 8));
  }
}

TEST(NonStrictExchange, SlowPeerPastDeadlineIsSkipped) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 6);
  dist::SubprocessOptions sopts;
  sopts.fault.exchange_deadline_s = 0.3;
  sopts.fault_injection = "0:slow-exchange:1500";  // 1.5s late round-0 delta
  dist::SubprocessExecutor sub(sopts);
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
  const tune::TuneResult clean = tune::merge_shards(study, opt, 4);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
  // Checkpoint #2 (slot b) is corrupted at the source and the worker dies;
  // the relaunch must reject slot b by checksum and resume from slot a.
  sopts.fault_injection = "1:corrupt-checkpoint:2";
  dist::SubprocessExecutor sub(sopts);
  const tune::TuneResult r = dist::run_sharded(study, opt, 4, sub);

  expect_equal_results(clean, r, "corrupt-checkpoint fallback");
  const tune::ShardRecovery& rec = recovery_of(r, 1);
  EXPECT_TRUE(rec.recovered);
  EXPECT_GE(rec.resumed_batches, 1);
}

TEST(CheckpointIntegrity, Kill9MidCheckpointPublishResumesBitIdentically) {
  const tune::Study study = subset(tune::slate_cholesky_study(false), 8);
  const tune::TuneOptions opt = shared_options();
  const tune::TuneResult clean = tune::merge_shards(study, opt, 4);

  dist::SubprocessOptions sopts;
  sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
  // SIGKILL lands between checkpoint #2's payload rename and its manifest
  // write — the torn slot is unpublished, the previous slot still valid.
  sopts.fault_injection = "1:kill-mid-checkpoint:2";
  dist::SubprocessExecutor sub(sopts);
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
  const tune::TuneResult clean = tune::merge_shards(study, opt, 2);

  for (const char* mode : {"kill-mid-checkpoint", "corrupt-checkpoint"}) {
    dist::SubprocessOptions sopts;
    sopts.fault = quick_fault(/*max_retries=*/2, /*checkpoint_every=*/1);
    sopts.fault_injection = std::string("1:") + mode + ":2:2";
    dist::SubprocessExecutor sub(sopts);
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
  const tune::TuneResult clean = tune::merge_shards(study, opt, 2);

  for (const char* mode : {"kill-mid-checkpoint", "corrupt-checkpoint"}) {
    dist::SubprocessOptions sopts;
    sopts.fault = quick_fault(/*max_retries=*/1, /*checkpoint_every=*/1);
    sopts.fault_injection = std::string("1:") + mode + ":1";
    dist::SubprocessExecutor sub(sopts);
    const tune::TuneResult r = dist::run_sharded(study, opt, 2, sub);

    expect_equal_results(clean, r, mode);
    const tune::ShardRecovery& rec = recovery_of(r, 1);
    EXPECT_EQ(rec.retries, 1) << mode;
    EXPECT_TRUE(rec.recovered) << mode;
    EXPECT_EQ(rec.resumed_batches, 0) << mode;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint wire format: roundtrip plus exhaustive corruption fuzz
// ---------------------------------------------------------------------------

namespace {

dist::ShardCheckpoint sample_checkpoint(const tune::Study& study,
                                        const dist::ShardRange& range) {
  dist::ShardCheckpoint c;
  c.seq = 3;
  c.batches = 2;
  c.rounds = 1;
  c.in_round = 1;
  c.exchange_skips = 1;
  c.skipped = {{0, 0}};
  c.told.resize(2);
  c.told[0].positions = {range.begin, range.begin + 1};
  c.told[1].positions = {range.begin + 2};
  for (auto& tb : c.told) {
    for (int pos : tb.positions) {
      tune::ConfigOutcome oc;
      oc.config = study.configs[pos];
      oc.evaluated = true;
      oc.true_time = 1.5 + pos;
      oc.pred_time = 1.25 + pos;
      oc.err = 0.125;
      oc.executed = 10 + pos;
      oc.skipped = 3;
      oc.samples_used = 1;
      tb.outcomes.push_back(oc);
    }
  }
  c.totals.resize(static_cast<std::size_t>(range.end - range.begin));
  for (std::size_t i = 0; i < c.totals.size(); ++i) {
    c.totals[i].tuning_time = 0.5 * static_cast<double>(i + 1);
    c.totals[i].full_time = 2.0 * static_cast<double>(i + 1);
  }
  return c;
}

}  // namespace

TEST(CheckpointFormat, RoundtripPreservesEveryField) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const dist::ShardCheckpoint c = sample_checkpoint(study, range);
  const std::string payload = dist::serialize_checkpoint(c);
  const dist::ShardCheckpoint back =
      dist::parse_checkpoint(payload, study, range);
  EXPECT_EQ(back.seq, c.seq);
  EXPECT_EQ(back.batches, c.batches);
  EXPECT_EQ(back.rounds, c.rounds);
  EXPECT_EQ(back.in_round, c.in_round);
  EXPECT_EQ(back.exchange_skips, c.exchange_skips);
  EXPECT_EQ(back.skipped, c.skipped);
  ASSERT_EQ(back.told.size(), c.told.size());
  for (std::size_t b = 0; b < c.told.size(); ++b)
    EXPECT_EQ(back.told[b].positions, c.told[b].positions);
  EXPECT_EQ(back.has_exchange_state, c.has_exchange_state);
  // Deep equality via the canonical encoding: re-serializing the parse
  // must reproduce the exact bytes.
  EXPECT_EQ(dist::serialize_checkpoint(back), payload);
}

TEST(CheckpointFormat, EveryTruncationIsRejected) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const std::string payload =
      dist::serialize_checkpoint(sample_checkpoint(study, range));
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(
        dist::parse_checkpoint(payload.substr(0, len), study, range),
        std::runtime_error)
        << "truncation to " << len << " bytes accepted";
  }
}

TEST(CheckpointFormat, EveryByteFlipIsRejected) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const std::string payload =
      dist::serialize_checkpoint(sample_checkpoint(study, range));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string bad = payload;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      EXPECT_THROW(dist::parse_checkpoint(bad, study, range),
                   std::runtime_error)
          << "flip of byte " << i << " mask " << static_cast<int>(mask)
          << " accepted";
    }
  }
}

TEST(CheckpointFormat, WrongRangeOrStudyIsRejectedEvenWithValidChecksum) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const std::string payload =
      dist::serialize_checkpoint(sample_checkpoint(study, range));
  // A checkpoint from a different shard plan must not resume this one.
  EXPECT_THROW(
      dist::parse_checkpoint(payload, study, dist::ShardRange{0, 0, 4}),
      std::runtime_error);
  EXPECT_THROW(
      dist::parse_checkpoint(payload, study, dist::ShardRange{1, 4, 6}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Incremental checkpoint records: roundtrip, log framing, continuity fuzz
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

/// An increment that validly extends sample_checkpoint (seq 3 -> 4): one
/// more told batch, one more skip, one more exchange round, the dirty
/// total of the new batch's position, and a non-empty statistics byte
/// patch (wholesale payloads, since the sample base carries no snapshot).
dist::CheckpointIncrement sample_increment(const tune::Study& study,
                                           const dist::ShardRange& range,
                                           bool exchange_state = false) {
  dist::CheckpointIncrement inc;
  inc.base_seq = 3;
  inc.seq = 4;
  inc.batches = 3;
  inc.rounds = 2;
  inc.in_round = 0;
  inc.exchange_skips = 2;
  inc.new_skipped = {{1, 0}};
  inc.new_told.resize(1);
  const int pos = range.begin + 3;
  inc.new_told[0].positions = {pos};
  tune::ConfigOutcome oc;
  oc.config = study.configs[pos];
  oc.evaluated = true;
  oc.true_time = 4.5;
  oc.pred_time = 4.25;
  oc.err = 0.0625;
  oc.executed = 7;
  oc.skipped = 2;
  oc.samples_used = 1;
  inc.new_told[0].outcomes = {oc};
  tune::ConfigTotals ct;
  ct.tuning_time = 8.0;
  ct.full_time = 16.0;
  inc.dirty_totals = {{3, ct}};
  inc.full_patch = small_snapshot(1).to_string();
  inc.has_exchange_state = exchange_state;
  if (exchange_state) {
    inc.mark_patch = small_snapshot(2).to_string();
    inc.own_patch = small_snapshot(3).to_string();
  }
  return inc;
}

}  // namespace

TEST(IncrementFormat, RoundtripPreservesEveryField) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  for (bool exchange : {false, true}) {
    const dist::CheckpointIncrement inc =
        sample_increment(study, range, exchange);
    const std::string payload = dist::serialize_increment(inc);
    const dist::CheckpointIncrement back =
        dist::parse_increment(payload, study, range);
    EXPECT_EQ(back.base_seq, inc.base_seq);
    EXPECT_EQ(back.seq, inc.seq);
    EXPECT_EQ(back.batches, inc.batches);
    EXPECT_EQ(back.rounds, inc.rounds);
    EXPECT_EQ(back.in_round, inc.in_round);
    EXPECT_EQ(back.exchange_skips, inc.exchange_skips);
    EXPECT_EQ(back.new_skipped, inc.new_skipped);
    ASSERT_EQ(back.new_told.size(), inc.new_told.size());
    EXPECT_EQ(back.new_told[0].positions, inc.new_told[0].positions);
    ASSERT_EQ(back.dirty_totals.size(), inc.dirty_totals.size());
    EXPECT_EQ(back.dirty_totals[0].first, inc.dirty_totals[0].first);
    EXPECT_EQ(back.has_exchange_state, inc.has_exchange_state);
    EXPECT_EQ(back.full_patch, inc.full_patch);
    // Deep equality via the canonical encoding.
    EXPECT_EQ(dist::serialize_increment(back), payload);
  }
}

TEST(IncrementFormat, EveryTruncationIsRejected) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const std::string payload =
      dist::serialize_increment(sample_increment(study, range, true));
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(
        dist::parse_increment(payload.substr(0, len), study, range),
        std::runtime_error)
        << "truncation to " << len << " bytes accepted";
  }
}

TEST(IncrementLog, EveryFramedByteFlipIsRejected) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const std::string framed = dist::frame_log_record(
      dist::serialize_increment(sample_increment(study, range)));
  for (std::size_t i = 0; i < framed.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string bad = framed;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      EXPECT_TRUE(dist::scan_log_records(bad).empty())
          << "flip of byte " << i << " mask " << static_cast<int>(mask)
          << " accepted";
    }
  }
}

TEST(IncrementLog, ScanKeepsThePrefixBeforeATornOrCorruptRecord) {
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

TEST(IncrementApply, ExtendsTheBaseAndRejectsEveryContinuityGap) {
  const tune::Study study = subset(tune::capital_cholesky_study(false), 8);
  const dist::ShardRange range{1, 4, 8};
  const dist::ShardCheckpoint base = sample_checkpoint(study, range);

  // The well-formed increment applies and advances every cursor.
  {
    dist::ShardCheckpoint ck = base;
    dist::apply_increment(ck, 3, sample_increment(study, range));
    EXPECT_EQ(ck.seq, 4);
    EXPECT_EQ(ck.batches, 3);
    EXPECT_EQ(ck.rounds, 2);
    EXPECT_EQ(ck.exchange_skips, 2);
    ASSERT_EQ(ck.told.size(), 3u);
    EXPECT_EQ(ck.told[2].positions, std::vector<int>{range.begin + 3});
    ASSERT_EQ(ck.skipped.size(), 2u);
    EXPECT_EQ(ck.skipped[1], (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ck.totals[3].tuning_time, 8.0);
    EXPECT_TRUE(ck.full.same_statistics(small_snapshot(1)));
  }

  // Each discontinuity throws and leaves the checkpoint untouched.
  const std::string before = dist::serialize_checkpoint(base);
  const auto rejects = [&](dist::CheckpointIncrement inc,
                           std::int64_t base_seq, const char* what) {
    dist::ShardCheckpoint ck = base;
    EXPECT_THROW(dist::apply_increment(ck, base_seq, std::move(inc)),
                 std::runtime_error)
        << what;
    EXPECT_EQ(dist::serialize_checkpoint(ck), before)
        << what << " mutated the checkpoint before throwing";
  };
  rejects(sample_increment(study, range), 2, "wrong base seq");
  {
    auto inc = sample_increment(study, range);
    inc.seq = 5;  // base is at seq 3; 5 skips a record
    rejects(std::move(inc), 3, "sequence gap");
  }
  {
    auto inc = sample_increment(study, range);
    inc.batches = 4;  // claims one more batch than new_told carries
    rejects(std::move(inc), 3, "batch cursor mismatch");
  }
  {
    auto inc = sample_increment(study, range);
    inc.exchange_skips = 3;  // claims one more skip than new_skipped
    rejects(std::move(inc), 3, "skip cursor mismatch");
  }
  {
    auto inc = sample_increment(study, range);
    inc.rounds = 0;  // base already completed round 1
    rejects(std::move(inc), 3, "round cursor went backwards");
  }
  {
    auto inc = sample_increment(study, range, true);
    rejects(std::move(inc), 3, "exchange-state flag mismatch");
  }
  {
    auto inc = sample_increment(study, range);
    inc.dirty_totals[0].first = 5;  // base has 4 range-relative totals
    rejects(std::move(inc), 3, "dirty-totals index out of range");
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

/// What the shard worker writes as a patch field: "" when unchanged, a
/// full payload onto empty bytes, a mode-0 sparse patch otherwise.
std::string patch_between(const std::string& base, const std::string& cur) {
  if (base == cur) return {};
  if (base.empty()) return cur;
  return core::encode_sparse_patch(base, cur);
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
  step.full_patch = patch_between(j.state().full_bytes, cur);
  step.full_bytes = cur;
  std::vector<tune::ConfigTotals> totals(sc.study.configs.size());
  totals[static_cast<std::size_t>(sc.range.begin)].tuning_time = 99.0;
  j.record(std::move(step), totals);
  dist::SessionJournal again(dir, sc.range, sc.exchanging);
  ASSERT_TRUE(again.resume(sc.study)) << what;
  // Boolean comparisons: a failure names the crash point, not 1 KB of
  // checkpoint bytes.
  EXPECT_TRUE(dist::serialize_checkpoint(again.state()) ==
              dist::serialize_checkpoint(j.state()))
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
    EXPECT_TRUE(dist::serialize_checkpoint(j.state()) == expect) << what;
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
    live.push_back(dist::serialize_checkpoint(j.state()));
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
      step.full_patch = k % 3 == 1 ? patch_between(j.state().full_bytes, cur)
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
      step.full_patch = patch_between(prev.full_bytes, *step.full_bytes);
      if (step.mark_bytes)
        step.mark_patch = patch_between(prev.mark_bytes, *step.mark_bytes);
      if (step.own_bytes)
        step.own_patch = patch_between(prev.own_bytes, *step.own_bytes);
    }
    return step;
  };
  enumerate_crash_points(sc);
}

int main(int argc, char** argv) {
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
