// The tuner daemon: ask/tell tuning as a multi-client TCP service.  The
// acceptance contract is bit-identity with the single-process sweep —
// concurrent clients, a client dropped mid-claim, a daemon killed outright
// (kill -9) and restarted on its state directory, and a SIGTERM'd daemon
// resumed later must all select the same configuration with the same
// statistics as tune::run_study().
//
// This binary is its own daemon: the subprocess scenarios re-exec it with
// --tuner-daemon, so main() routes that entry point before gtest.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "dist/checkpoint.hpp"
#include "dist/manifest.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace dist = critter::dist;
namespace net = critter::net;
namespace serve = critter::serve;
namespace tune = critter::tune;
using critter::Policy;

namespace {

tune::Study small_study(int nconfigs = 10) {
  tune::Study study = tune::capital_cholesky_study(false);
  if (nconfigs < static_cast<int>(study.configs.size()))
    study.configs.resize(nconfigs);
  return study;
}

/// Outcome-dependent asks (early discard against the running incumbent):
/// if a remote evaluation differed from the local one by even a bit, the
/// strategy's proposals — and therefore the tell count and the selection —
/// would diverge, so these options make the bit-identity checks sharp.
tune::TuneOptions adaptive_options() {
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;
  opt.strategy = "ci-discard";
  return opt;
}

serve::ClientOptions client_options(int port) {
  serve::ClientOptions copt;
  copt.port = port;
  return copt;
}

/// The daemon's answer must equal the single-process sweep's: same
/// selected configuration, same shared statistics (same_statistics — the
/// statistical-equality contract every executor in this codebase meets;
/// per-epoch scratch counters are dead state and excluded by design).
void expect_matches_in_process(serve::TunerClient& client,
                               const tune::TuneResult& ref,
                               const std::string& what) {
  const serve::StatusReply st = client.status();
  EXPECT_TRUE(st.done) << what << ": " << st.text;
  EXPECT_EQ(st.best_predicted, ref.best_predicted()) << what << ": "
                                                     << st.text;
  EXPECT_EQ(st.evaluated, ref.evaluated_configs) << what << ": " << st.text;
  const std::string exported = client.export_stats();
  ASSERT_FALSE(exported.empty()) << what;
  const core::StatSnapshot stats = core::StatSnapshot::from_string(exported);
  EXPECT_TRUE(stats.same_statistics(ref.stats)) << what << " statistics";
}

/// Re-exec this test binary as a daemon subprocess (the kill -9 and
/// SIGTERM scenarios need a process to kill, not an in-process object).
pid_t spawn_daemon(const std::string& state_dir) {
  // A restarted daemon binds a fresh ephemeral port; drop the old port
  // file so read_daemon_port cannot rendezvous with the dead instance.
  ::remove((state_dir + "/port").c_str());
  const std::string sd = "--state-dir=" + state_dir;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/proc/self/exe", "test_serve", "--tuner-daemon", sd.c_str(),
            "--port=0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Raw framed request without opening a session (tunectl's sessionless
/// path) — lets tests poke the protocol below the TunerClient surface.
net::Frame raw_request(int port, std::uint32_t verb,
                       const std::string& payload) {
  net::Connection conn = net::Connection::connect("127.0.0.1", port, 5.0);
  net::send_frame(conn, net::kHello, serve::kTuneService, 5.0);
  const net::Frame hello = net::recv_frame(conn, 5.0);
  EXPECT_EQ(hello.verb, net::kOk);
  net::send_frame(conn, verb, payload, 5.0);
  return net::recv_frame(conn, 5.0);
}

struct TempDir {
  explicit TempDir(const char* prefix) : path(core::make_temp_dir(prefix)) {}
  ~TempDir() { core::remove_dir_tree(path); }
  std::string path;
};

}  // namespace

// ---------------------------------------------------------------------------
// In-process daemon scenarios
// ---------------------------------------------------------------------------

TEST(Daemon, SingleClientReproducesTheInProcessSweep) {
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_single");
  serve::TunerDaemon daemon({dir.path});
  serve::TunerClient client(study, opt, "solo",
                            client_options(daemon.port()));
  const serve::ClientReport rep = client.run();
  EXPECT_TRUE(rep.done);
  EXPECT_GT(rep.tells, 0);
  EXPECT_EQ(rep.reconnects, 0);
  expect_matches_in_process(client, ref, "single client");
}

TEST(Daemon, TwoConcurrentClientsReproduceTheInProcessSweep) {
  // The flagship concurrency contract: one claim outstanding at a time,
  // every claim evaluated by whichever client holds it, and the interleaving
  // — whatever the scheduler picks — must not be observable in the result.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_pair");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientReport reps[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i)
    threads.emplace_back([&, i] {
      serve::TunerClient c(study, opt, "pair", client_options(daemon.port()));
      reps[i] = c.run();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(reps[0].done);
  EXPECT_TRUE(reps[1].done);

  serve::TunerClient check(study, opt, "pair", client_options(daemon.port()));
  const serve::StatusReply st = check.status();
  // Every tell came from exactly one of the two clients.
  EXPECT_EQ(reps[0].tells + reps[1].tells, st.tells);
  expect_matches_in_process(check, ref, "two concurrent clients");
}

TEST(Daemon, DroppedClientsClaimReissuesWithoutChangingTheAnswer) {
  // Injected churn: the first client walks away holding a claim.  The
  // daemon must re-issue that exact batch to the survivor (nothing can
  // have changed while it was out), so the sweep finishes bit-identically.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_churn");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions drop = client_options(daemon.port());
  drop.drop_after_asks = 1;
  serve::TunerClient dropper(study, opt, "churn", drop);
  const serve::ClientReport drep = dropper.run();
  EXPECT_TRUE(drep.dropped);
  EXPECT_EQ(drep.tells, 0);  // left with the first claim open

  serve::TunerClient survivor(study, opt, "churn",
                              client_options(daemon.port()));
  const serve::ClientReport srep = survivor.run();
  EXPECT_TRUE(srep.done);
  expect_matches_in_process(survivor, ref, "claim re-issued after drop");
}

TEST(Daemon, JoiningWithADifferentIdentityIsRejected) {
  // Concurrent clients must agree on what they are tuning; a mismatched
  // (study, options) join is an error, not a second session.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  TempDir dir("critter_serve_identity");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions copt = client_options(daemon.port());
  copt.max_batches = 1;
  serve::TunerClient first(study, opt, "shared", copt);
  first.run();

  tune::TuneOptions other = opt;
  other.tolerance = opt.tolerance * 2;
  serve::ClientOptions strict = client_options(daemon.port());
  strict.max_reconnects = 0;  // surface the open error, don't retry it
  serve::TunerClient second(study, other, "shared", strict);
  try {
    second.run();
    FAIL() << "mismatched session identity was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different study/options identity"),
              std::string::npos)
        << e.what();
  }
}

TEST(Daemon, SessionlessVerbsAndUnknownSessionsError) {
  TempDir dir("critter_serve_raw");
  serve::TunerDaemon daemon({dir.path});
  const net::Frame st = raw_request(daemon.port(), net::kTuneStatus,
                                    serve::encode_session_ref("nope"));
  EXPECT_EQ(st.verb, net::kErr);
  EXPECT_NE(st.payload.find("unknown tuning session"), std::string::npos);
  // A client-initiated shutdown stops the daemon (tunectl's path).
  const net::Frame sd = raw_request(daemon.port(), net::kTuneShutdown, "");
  EXPECT_EQ(sd.verb, net::kOk);
  const double deadline = core::monotonic_s() + 5.0;
  while (!daemon.stopping() && core::monotonic_s() < deadline)
    core::sleep_ms(10);
  EXPECT_TRUE(daemon.stopping());
}

TEST(Daemon, ARejectedOpenLeavesTheStateDirectoryStartable) {
  // An OPEN the session loader rejects must leave nothing on disk: a
  // manifest written before the rejection would make every later daemon on
  // the directory fail to start with the same error.
  TempDir dir("critter_serve_rejected");
  {
    serve::TunerDaemon daemon({dir.path});
    tune::TuneOptions opt = adaptive_options();
    opt.strategy = "bogus";
    serve::ClientOptions copt = client_options(daemon.port());
    copt.max_reconnects = 0;
    serve::TunerClient client(small_study(), opt, "q", copt);
    EXPECT_THROW(client.run(), std::runtime_error);
  }
  std::unique_ptr<serve::TunerDaemon> restarted;
  EXPECT_NO_THROW(restarted = std::make_unique<serve::TunerDaemon>(
                      serve::DaemonOptions{dir.path}));
  EXPECT_TRUE(core::list_dir(dir.path + "/sessions").empty());
}

TEST(Daemon, AForgedPolicyInAnOpenManifestIsRejected) {
  // The daemon rebuilds options from the manifest a network client sent;
  // a policy outside the enum must fail the OPEN, not build a session.
  TempDir dir("critter_serve_forged");
  serve::TunerDaemon daemon({dir.path});
  serve::OpenRequest orq;
  orq.session = "forged";
  dist::write_study_identity(orq.manifest, small_study(), false);
  dist::write_tune_options(orq.manifest, adaptive_options());
  orq.manifest += "warm_start=0\nprior_snap=0\n";
  const std::size_t at = orq.manifest.find("\npolicy=") + 8;
  orq.manifest.replace(at, orq.manifest.find('\n', at) - at, "7");
  const net::Frame rp =
      raw_request(daemon.port(), net::kTuneOpen, serve::encode_open(orq));
  EXPECT_EQ(rp.verb, net::kErr);
  EXPECT_FALSE(core::file_exists(dir.path + "/sessions/forged"));
}

TEST(Daemon, SparseTransportIsDefaultAndByteEquivalent) {
  // Dirty-rank transport (DESIGN.md §13) is on by default: after the first
  // full payload, every state-bearing TELL ships a sparse patch, and the
  // daemon's spliced state cache must be byte-equivalent to what full
  // transport would have produced.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_sparse");
  serve::TunerDaemon daemon({dir.path});
  serve::TunerClient client(study, opt, "sparse",
                            client_options(daemon.port()));
  const serve::ClientReport rep = client.run();
  EXPECT_TRUE(rep.done);

  const serve::StatusReply st = client.status();
  EXPECT_GT(st.sparse_tells, 0) << st.text;
  // Wire accounting travels in the status reply and its text.
  EXPECT_GT(st.bytes_in, 0);
  EXPECT_GT(st.bytes_out, 0);
  EXPECT_NE(st.text.find("sparse tells"), std::string::npos) << st.text;

  // The byte-equivalence pin: the exported state was grown exclusively by
  // splicing patches, yet it must be the canonical serialization of the
  // statistics it decodes to — splicing may never bend a byte.
  const std::string exported = client.export_stats();
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(core::StatSnapshot::from_string(exported).to_string(), exported);
  // And the patches actually beat full transport on the wire: the total
  // inbound traffic stays under the ship-the-full-state-every-tell bound.
  EXPECT_LT(st.bytes_in,
            st.tells * static_cast<std::int64_t>(exported.size()));
  expect_matches_in_process(client, ref, "sparse transport");
}

TEST(Daemon, JournalAppendsSparseRecordsBetweenFullSlots) {
  // Mid-stride durability: tell 1 publishes a full checkpoint slot; tells
  // 2..N (N < the full-slot period) append sparse records to the journal
  // instead of rewriting the snapshot.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  TempDir dir("critter_serve_journal");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions partial = client_options(daemon.port());
  partial.max_batches = 3;
  serve::TunerClient client(study, opt, "journal", partial);
  EXPECT_EQ(client.run().tells, 3);

  const std::string sdir = dir.path + "/sessions/journal";
  EXPECT_TRUE(core::published(sdir, "ckpt_a.bin") ||
              core::published(sdir, "ckpt_b.bin"));
  EXPECT_TRUE(core::file_exists(sdir + "/ckpt_log.bin"));
}

TEST(Daemon, AFailedJournalWriteFailsOneTellAndTheSessionRecovers) {
  // Every TELL is journaled before it changes the session.  A journal
  // append that fails (the log replaced by a directory) fails that TELL
  // and leaves its claim open on the session's Tuner; once the obstruction
  // is gone, the same session re-issues the batch and finishes with
  // run_study()'s answer.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_obstructed");
  serve::TunerDaemon daemon({dir.path});
  serve::ClientOptions partial = client_options(daemon.port());
  partial.max_batches = 2;  // a full slot, then a log record
  serve::TunerClient before(study, opt, "obstructed", partial);
  ASSERT_EQ(before.run().tells, 2);

  const std::string log = dir.path + "/sessions/obstructed/ckpt_log.bin";
  ASSERT_TRUE(core::file_exists(log));
  ASSERT_EQ(std::remove(log.c_str()), 0);
  core::make_dir(log);
  serve::ClientOptions once = client_options(daemon.port());
  once.max_reconnects = 0;  // give up after the one failed TELL
  serve::TunerClient blocked(study, opt, "obstructed", once);
  EXPECT_THROW(blocked.run(), std::runtime_error);

  core::remove_dir_tree(log);
  serve::TunerClient after(study, opt, "obstructed",
                           client_options(daemon.port()));
  serve::ClientReport rep;
  ASSERT_NO_THROW(rep = after.run());
  EXPECT_TRUE(rep.done);
  expect_matches_in_process(after, ref, "after a failed journal write");
}

TEST(Daemon, WarmSessionReproducesTheInProcessWarmSweep) {
  // A warm-started session must evaluate warm: its statistics start from
  // the published warm snapshot, so the first ASK ships them to the
  // client's mirror — exactly the state run_study's Tuner is built with.
  const tune::Study study = small_study(6);
  tune::TuneOptions opt;
  opt.policy = Policy::OnlinePropagation;
  opt.samples = 1;
  const tune::TuneResult prev = tune::run_study(study, opt);
  tune::TuneOptions warm = opt;
  warm.warm_start = &prev.stats;
  const tune::TuneResult ref = tune::run_study(study, warm);
  ASSERT_FALSE(ref.stats.same_statistics(tune::run_study(study, opt).stats))
      << "the warm start must change the answer, or this test proves nothing";

  TempDir dir("critter_serve_warm");
  serve::TunerDaemon daemon({dir.path});
  serve::TunerClient client(study, warm, "warm",
                            client_options(daemon.port()));
  EXPECT_TRUE(client.run().done);
  expect_matches_in_process(client, ref, "warm session");
}

TEST(Daemon, StopFlushesOnceAndDestructionAfterStopIsANoOp) {
  // stop() is idempotent: the destructor calling it again must not write a
  // second final slot — nor complain once the state directory is gone.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  TempDir dir("critter_serve_stop");
  const std::string sdir = dir.path + "/sessions/once";
  const auto slots = [&] {
    std::string all;
    for (const char* name : {"ckpt_a.bin", "ckpt_b.bin"})
      if (core::file_exists(sdir + "/" + name))
        all += name + core::read_file(sdir + "/" + name);
    return all;
  };
  std::string after_stop;
  {
    serve::TunerDaemon daemon({dir.path});
    serve::ClientOptions partial = client_options(daemon.port());
    partial.max_batches = 2;
    serve::TunerClient client(study, opt, "once", partial);
    EXPECT_EQ(client.run().tells, 2);
    daemon.stop();
    after_stop = slots();
    ASSERT_FALSE(after_stop.empty());
    daemon.stop();
    EXPECT_EQ(slots(), after_stop) << "a second stop() flushed again";
  }
  EXPECT_EQ(slots(), after_stop) << "the destructor flushed again";

  ::testing::internal::CaptureStderr();
  {
    serve::TunerDaemon daemon({dir.path});  // resumes session "once"
    daemon.stop();
    core::remove_dir_tree(dir.path);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("final flush"), std::string::npos) << err;
  EXPECT_FALSE(core::file_exists(dir.path));
}

TEST(Daemon, ARestartedFinishedSessionReportsDone) {
  // A journal records tells, not the empty ask that finished a sweep, so a
  // restarted daemon must find out by asking: `tunectl status` has to keep
  // saying done, and `tunectl watch` has to stop polling.  A session cut
  // short must still read as unfinished.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);
  TempDir dir("critter_serve_restart_done");
  {
    serve::TunerDaemon daemon({dir.path});
    serve::TunerClient full(study, opt, "finished",
                            client_options(daemon.port()));
    EXPECT_TRUE(full.run().done);
    EXPECT_TRUE(full.status().done);
    serve::ClientOptions partial = client_options(daemon.port());
    partial.max_batches = 2;
    serve::TunerClient cut(study, opt, "cut", partial);
    EXPECT_EQ(cut.run().tells, 2);
  }

  serve::TunerDaemon daemon({dir.path});
  const auto status = [&](const std::string& session) {
    const net::Frame f = raw_request(daemon.port(), net::kTuneStatus,
                                     serve::encode_session_ref(session));
    EXPECT_EQ(f.verb, net::kOk);
    return serve::decode_status_reply(f.payload);
  };
  const serve::StatusReply finished = status("finished");
  EXPECT_TRUE(finished.done) << finished.text;
  EXPECT_NE(finished.text.find(", done"), std::string::npos) << finished.text;
  EXPECT_EQ(finished.best_predicted, ref.best_predicted()) << finished.text;
  const serve::StatusReply cut = status("cut");
  EXPECT_FALSE(cut.done) << cut.text;
  EXPECT_EQ(cut.tells, 2) << cut.text;
}

TEST(Daemon, ARestartedDaemonCountsWireTrafficFromItsStart) {
  // A session's wire counters live in memory only, so a restarted daemon
  // counts them from zero and says so, while the journaled tells survive.
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  TempDir dir("critter_serve_restart_wire");
  serve::StatusReply before;
  {
    serve::TunerDaemon daemon({dir.path});
    serve::TunerClient client(study, opt, "wire",
                              client_options(daemon.port()));
    EXPECT_TRUE(client.run().done);
    before = client.status();
  }
  EXPECT_GT(before.bytes_in, 0) << before.text;
  EXPECT_GT(before.bytes_out, 0) << before.text;
  EXPECT_GT(before.sparse_tells, 0) << before.text;
  EXPECT_NE(before.text.find(", wire since daemon start "), std::string::npos)
      << before.text;

  serve::TunerDaemon daemon({dir.path});
  const net::Frame f = raw_request(daemon.port(), net::kTuneStatus,
                                   serve::encode_session_ref("wire"));
  ASSERT_EQ(f.verb, net::kOk);
  const serve::StatusReply after = serve::decode_status_reply(f.payload);
  EXPECT_TRUE(after.done) << after.text;
  EXPECT_EQ(after.tells, before.tells) << after.text;
  EXPECT_EQ(after.bytes_in, 0) << after.text;
  EXPECT_EQ(after.bytes_out, 0) << after.text;
  EXPECT_EQ(after.sparse_tells, 0) << after.text;
  EXPECT_NE(after.text.find(", wire since daemon start 0B in/0B out, 0 "
                            "sparse tells"),
            std::string::npos)
      << after.text;
}

// ---------------------------------------------------------------------------
// Daemon-as-a-process scenarios: kill -9 resume, SIGTERM flush
// ---------------------------------------------------------------------------

TEST(DaemonProcess, KillNineMidSessionResumesBitIdentically) {
  // The durability contract: every tell is journaled before it is
  // acknowledged, so a daemon killed outright and restarted on the same
  // state directory replays the session into the exact state it held —
  // clients pick up mid-sweep and the final answer matches run_study().
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_kill9");
  pid_t pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  int port = serve::read_daemon_port(dir.path);
  serve::ClientOptions partial = client_options(port);
  partial.max_batches = 4;
  serve::TunerClient before(study, opt, "durable", partial);
  const serve::ClientReport prep = before.run();
  EXPECT_EQ(prep.tells, 4);

  ::kill(pid, SIGKILL);
  wait_for_exit(pid);

  pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  port = serve::read_daemon_port(dir.path);
  serve::TunerClient after(study, opt, "durable", client_options(port));
  const serve::ClientReport rep = after.run();
  EXPECT_TRUE(rep.done);
  const serve::StatusReply st = after.status();
  // The resumed session kept the pre-kill tells instead of resweeping.
  EXPECT_EQ(st.tells, prep.tells + rep.tells);
  expect_matches_in_process(after, ref, "kill -9 resume");

  const net::Frame sd = raw_request(port, net::kTuneShutdown, "");
  EXPECT_EQ(sd.verb, net::kOk);
  const int status = wait_for_exit(pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // The shutdown's final flush journals the session's totals, which only
  // the daemon holds: the resumed session must have restored the pre-kill
  // tells' totals too, bit for bit.
  dist::SessionJournal journal(
      dir.path + "/sessions/durable",
      dist::ShardRange{0, 0, static_cast<int>(study.configs.size())},
      /*exchanging=*/false);
  ASSERT_TRUE(journal.resume(study));
  const std::vector<tune::ConfigTotals>& totals = journal.state().totals;
  ASSERT_EQ(totals.size(), ref.per_config_totals.size());
  for (std::size_t i = 0; i < totals.size(); ++i)
    EXPECT_EQ(std::memcmp(&totals[i], &ref.per_config_totals[i],
                          sizeof(tune::ConfigTotals)),
              0)
        << "config " << i << " totals differ from the in-process sweep";
}

TEST(DaemonProcess, SigtermFlushesEverySessionThenResumesFromTheSnapshot) {
  const tune::Study study = small_study();
  const tune::TuneOptions opt = adaptive_options();
  const tune::TuneResult ref = tune::run_study(study, opt);

  TempDir dir("critter_serve_sigterm");
  pid_t pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  int port = serve::read_daemon_port(dir.path);
  serve::ClientOptions partial = client_options(port);
  partial.max_batches = 3;
  serve::TunerClient before(study, opt, "graceful", partial);
  EXPECT_EQ(before.run().tells, 3);

  ::kill(pid, SIGTERM);
  const int status = wait_for_exit(pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // The graceful-shutdown contract: a final self-contained full checkpoint
  // per session, with no increment log left to replay.
  const std::string sdir = dir.path + "/sessions/graceful";
  EXPECT_TRUE(core::published(sdir, "ckpt_a.bin") ||
              core::published(sdir, "ckpt_b.bin"));
  EXPECT_FALSE(core::file_exists(sdir + "/ckpt_log.bin"));

  pid = spawn_daemon(dir.path);
  ASSERT_GT(pid, 0);
  port = serve::read_daemon_port(dir.path);
  serve::TunerClient after(study, opt, "graceful", client_options(port));
  EXPECT_TRUE(after.run().done);
  expect_matches_in_process(after, ref, "SIGTERM flush + resume");

  raw_request(port, net::kTuneShutdown, "");
  wait_for_exit(pid);
}

int run_gtest(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

int main(int argc, char** argv) {
  if (serve::is_tuner_daemon(argc, argv))
    return serve::tuner_daemon_main(argc, argv);
  return run_gtest(argc, argv);
}
