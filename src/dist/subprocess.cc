// SubprocessExecutor and the --shard-worker entry point: one OS process
// per shard, coordinated exclusively through run-directory files
// published atomically (core/fsio.hpp).  Layout:
//
//   <run_dir>/run.txt            run manifest: study identity (workload,
//                                scale, configuration indices), tuning
//                                options, shard ranges, exchange interval,
//                                fault-injection spec
//   <run_dir>/warm.snap[.ok]     optional warm-start snapshot
//   <run_dir>/prior.snap[.ok]    optional model prior (TuneOptions::prior)
//   <run_dir>/shard<k>/          per-shard: result.bin[.ok] (published
//                                ShardResult), the session journal's
//                                checkpoint slots and increment log
//                                (dist/checkpoint.hpp), heartbeat
//                                (atomically rewritten liveness counter),
//                                error.txt, log.txt
//   <run_dir>/exchange/          mailbox: s<k>_r<j>.snap[.ok] round deltas,
//                                s<k>.done final round-count markers
//   <run_dir>/abort[.ok]         published by the launcher on fleet
//                                failure; waiting workers poll it and bail
//
// Fault tolerance (DESIGN.md §10): the launcher classifies worker faults —
// nonzero exit, stalled heartbeat, unusable result — and relaunches with
// exponential backoff per FaultPolicy instead of aborting on first fault.
// A relaunched worker resumes from its last valid checkpoint and replays
// the recorded session prefix, so recovery is bit-identical to an
// uninterrupted run.  Terminal faults either abort the fleet (the strict
// default, with the shard and kept run directory named in the error) or
// degrade: the launcher completes the shard's range in-process.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/fsio.hpp"
#include "dist/checkpoint.hpp"
#include "dist/executor.hpp"
#include "dist/manifest.hpp"
#include "dist/shard_session.hpp"
#include "dist/wire.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace critter::dist {

namespace {

// ---------------------------------------------------------------------------
// ShardResult wire format (framing helpers in dist/wire.hpp)
// ---------------------------------------------------------------------------

// Version 4: appends the per-phase wall-time breakdown (tune::PhaseTimes)
// after the fault counters — timing metadata the fold sums into
// TuneResult::phases; never part of any bit-identity comparison.
constexpr char kResultMagic[8] = {'C', 'R', 'S', 'H', 'R', 'E', 'S', '4'};

std::string serialize_result(const ShardResult& r) {
  WireWriter w;
  w.raw(kResultMagic, sizeof kResultMagic);
  w.i32(r.range.index);
  w.i32(r.range.begin);
  w.i32(r.range.end);
  w.u8(static_cast<std::uint8_t>(r.mode));
  w.str(r.strategy);
  w.i32(r.effective_workers);
  w.i32(r.batch);
  w.str(r.fallback_reason);
  w.i32(r.evaluated);
  w.i32(r.exchange_rounds);
  w.i32(r.recovery.exchange_skips);
  w.i32(r.recovery.checkpoints);
  w.i32(r.recovery.resumed_batches);
  w.i64(r.exchange_bytes);
  w.f64(r.phases.ask);
  w.f64(r.phases.evaluate);
  w.f64(r.phases.tell);
  w.f64(r.phases.exchange);
  w.f64(r.phases.checkpoint);
  for (std::size_t j = 0; j < r.outcomes.size(); ++j) {
    write_outcome(w, r.outcomes[j]);
    write_totals(w, r.totals[j]);
  }
  w.u8(r.stats.empty() ? 0 : 1);
  if (!r.stats.empty()) {
    const std::string blob = r.stats.to_string();
    w.raw(blob.data(), blob.size());
  }
  return std::move(w.out);
}

/// Parse a published result; `study` rebinds the configurations (the wire
/// carries only their absolute indices, which must match the launcher's
/// view of the study).
ShardResult parse_result(const std::string& payload, const tune::Study& study,
                         const ShardRange& expect) {
  WireReader r{payload, "shard result"};
  char magic[sizeof kResultMagic];
  r.raw(magic, sizeof magic);
  CRITTER_CHECK(std::memcmp(magic, kResultMagic, sizeof kResultMagic) == 0,
                "shard result: bad magic");
  ShardResult out;
  out.range.index = r.i32();
  out.range.begin = r.i32();
  out.range.end = r.i32();
  CRITTER_CHECK(out.range.index == expect.index &&
                    out.range.begin == expect.begin &&
                    out.range.end == expect.end,
                "shard result: range does not match the launcher's shard "
                "plan (stale run directory?)");
  out.mode = static_cast<tune::SweepMode>(r.u8());
  out.strategy = r.str();
  out.effective_workers = r.i32();
  out.batch = r.i32();
  out.fallback_reason = r.str();
  out.evaluated = r.i32();
  out.exchange_rounds = r.i32();
  out.recovery.exchange_skips = r.i32();
  out.recovery.checkpoints = r.i32();
  out.recovery.resumed_batches = r.i32();
  out.exchange_bytes = r.i64();
  out.phases.ask = r.f64();
  out.phases.evaluate = r.f64();
  out.phases.tell = r.f64();
  out.phases.exchange = r.f64();
  out.phases.checkpoint = r.f64();
  const int n = expect.end - expect.begin;
  out.outcomes.resize(n);
  out.totals.resize(n);
  for (int j = 0; j < n; ++j) {
    out.outcomes[j].config = study.configs[expect.begin + j];
    read_outcome(r, out.outcomes[j], "shard result");
    read_totals(r, out.totals[j]);
  }
  if (r.u8() != 0) {
    out.stats = core::StatSnapshot::from_string(r.bytes(r.remaining()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exchange mailbox naming
// ---------------------------------------------------------------------------

std::string delta_name(int shard, int round) {
  std::string n = "s";
  n += std::to_string(shard);
  n += "_r";
  n += std::to_string(round);
  n += ".snap";
  return n;
}
std::string done_name(int shard) {
  std::string n = "s";
  n += std::to_string(shard);
  n += ".done";
  return n;
}
/// Fold-progress marker for mailbox GC: "rounds=<n>" = this shard has
/// completed n full fold rounds, i.e. consumed every peer's round-(n-1)
/// delta.  Plain atomic write (monotonic counter; readers tolerate
/// absence).
std::string progress_name(int shard) {
  std::string n = "s";
  n += std::to_string(shard);
  n += ".progress";
  return n;
}

// ---------------------------------------------------------------------------
// Fault injection (test-only)
// ---------------------------------------------------------------------------

/// "<index>:<mode>[:<arg>[:<times>]]" from the CRITTER_SHARD_FAULT
/// environment variable, which every worker (relaunches too) inherits from
/// the launcher.  Modes and their `arg`:
///   crash-after-batch   _exit(42) after `arg` batches of the attempt (1)
///   crash-on-start      _exit(41) before doing anything
///   hang-after-batch    stop beating and sleep forever after `arg` batches
///   corrupt-delta       corrupt the published round-`arg` delta (0)
///   corrupt-checkpoint  write checkpoint #`arg` (2) with one byte corrupted,
///                       then _exit(43)
///   kill-mid-checkpoint tear checkpoint #`arg` (2), then SIGKILL: an
///                       increment's append stops halfway; a full slot's
///                       payload is renamed in without its manifest (the
///                       kill-9 torn point)
///   slow-exchange       delay the round-0 delta publish by `arg` ms (1000)
///   skip-result         finish but never publish the result (always fires)
/// `times` bounds how many worker attempts fire the fault (default 1), via
/// a counter file in the shard directory — a relaunch runs clean, which is
/// what makes recovery testable.
struct FaultSpec {
  std::string mode;
  long arg = 0;
  long times = 1;
};

FaultSpec shard_fault(int index) {
  const char* spec = std::getenv("CRITTER_SHARD_FAULT");
  if (spec == nullptr) return {};
  std::vector<std::string> tok;
  std::istringstream is(spec);
  std::string t;
  while (std::getline(is, t, ':')) tok.push_back(t);
  if (tok.size() < 2) return {};
  if (std::atoi(tok[0].c_str()) != index) return {};
  FaultSpec f;
  f.mode = tok[1];
  if (tok.size() > 2 && !tok[2].empty()) f.arg = std::atol(tok[2].c_str());
  if (tok.size() > 3 && !tok[3].empty()) f.times = std::atol(tok[3].c_str());
  return f;
}

/// Consume one firing of the fault; false once `times` attempts fired.
bool fault_fires(const std::string& shard_dir, const FaultSpec& f) {
  const std::string marker = shard_dir + "/fault_" + f.mode + ".count";
  long fired = 0;
  if (core::file_exists(marker)) {
    try {
      fired = std::atol(core::read_file(marker).c_str());
    } catch (...) {
    }
  }
  if (fired >= f.times) return false;
  core::write_file(marker, std::to_string(fired + 1));
  return true;
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

struct WorkerArgs {
  std::string run_dir;
  int shard = -1;
};

WorkerArgs parse_worker_args(int argc, char** argv) {
  WorkerArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shard-dir=", 0) == 0) a.run_dir = arg.substr(12);
    if (arg.rfind("--shard-index=", 0) == 0)
      a.shard = std::atoi(arg.c_str() + 14);
  }
  CRITTER_CHECK(!a.run_dir.empty() && a.shard >= 0,
                "--shard-worker needs --shard-dir=DIR and --shard-index=N");
  return a;
}

/// Graceful-shutdown flag: SIGTERM/SIGINT ask the worker to flush a final
/// full checkpoint (plus its statistics snapshots, which the checkpoint
/// carries) at the next batch boundary and exit; a relaunch resumes
/// exactly where the flush left off.
volatile std::sig_atomic_t g_worker_terminate = 0;

void worker_signal_handler(int) { g_worker_terminate = 1; }

/// The exit code of a signal-flushed worker: a classified fault (so the
/// launcher relaunches and resumes per its FaultPolicy), distinguishable
/// in diagnostics from a crash.
constexpr int kTerminatedExit = 40;

void check_not_aborted(const std::string& run_dir) {
  // The abort marker goes through the same atomic publish protocol as
  // every other run artifact, so a poll never observes a half-written
  // reason.
  if (!core::published(run_dir, "abort")) return;
  std::string why;
  try {
    why = core::read_published(run_dir, "abort");
  } catch (...) {
  }
  CRITTER_CHECK(false, "run aborted by launcher: " + why);
}

/// Per-shard liveness file: an atomically rewritten monotone counter.  The
/// launcher's stall detector only reads whether the content *changed*, so
/// pid + counter make every write (and every relaunch) distinct.  Beats are
/// best-effort — a worker must never die because its heartbeat write
/// failed.
struct Heartbeat {
  std::string path;
  std::uint64_t n = 0;
  void beat(int batches) {
    // Line 1 is the liveness counter plus the current execution phase (the
    // stall report quotes phase= and batches=); line 2 is a compact metrics
    // snapshot so the monitor can say *why* a shard is slow, not just that
    // it is.
    std::string s = "pid=" + std::to_string(static_cast<long>(::getpid())) +
                    " beat=" + std::to_string(n++) +
                    " batches=" + std::to_string(batches) +
                    " phase=" + obs::current_phase() + "\n" +
                    "metrics: " + obs::metrics_compact() + "\n";
    try {
      core::write_file_atomic(path, s);
    } catch (...) {
    }
  }
};

struct PeerWait {
  bool skipped = false;
  core::StatSnapshot snap;
  std::int64_t bytes = 0;  ///< mailbox payload size (wire accounting)
};

/// The round count of a mailbox marker ("rounds=<n>": a done or progress
/// marker), or -1 when it does not parse.
int marker_rounds(const std::string& marker) {
  int rounds = -1;
  return std::sscanf(marker.c_str(), "rounds=%d", &rounds) == 1 ? rounds : -1;
}

/// Block until peer `p`'s round-`round` delta is available or provably
/// absent (the peer finished earlier).  Strict mode fails on a corrupt
/// delta or past the deadline (today's abort semantics); non-strict
/// returns skipped=true instead — a corrupt publish is permanent (the
/// rename is atomic), so it skips immediately rather than waiting out the
/// deadline.  Beats `hb` while waiting so a legitimately-waiting worker is
/// never stall-killed.  A zero deadline is checkpoint replay's read: every
/// delta the original session absorbed is still published.
PeerWait await_peer_delta(const std::string& run_dir, int p, int round,
                          double deadline_s, bool strict, Heartbeat& hb,
                          int batches) {
  const std::string exchange_dir = run_dir + "/exchange";
  const double deadline = core::monotonic_s() + deadline_s;
  int polls = 0;
  while (true) {
    if (core::published(exchange_dir, delta_name(p, round))) {
      try {
        const std::string payload =
            core::read_published(exchange_dir, delta_name(p, round));
        // Empty payload: the peer session has no shared statistics to
        // trade (isolated mode) — a published, verifiable nothing.
        if (payload.empty()) return {};
        return {false, core::StatSnapshot::from_string(payload),
                static_cast<std::int64_t>(payload.size())};
      } catch (...) {
        if (strict) throw;
        return {true, {}};
      }
    }
    if (core::published(exchange_dir, done_name(p))) {
      const int rounds =
          marker_rounds(core::read_published(exchange_dir, done_name(p)));
      CRITTER_CHECK(rounds >= 0,
                    "stale done marker from shard " + std::to_string(p));
      // The peer publishes every delta before its done marker, so a
      // visible marker with rounds <= round proves no delta is coming.
      if (rounds <= round) return {};
    }
    check_not_aborted(run_dir);
    if (core::monotonic_s() >= deadline) {
      CRITTER_CHECK(!strict, "timed out waiting for shard " +
                                 std::to_string(p) + "'s round-" +
                                 std::to_string(round) + " exchange delta");
      return {true, {}};
    }
    if (++polls % 20 == 0) hb.beat(batches);
    core::sleep_ms(5);
  }
}

int worker_body(const WorkerArgs& args) {
  // Export trace events under the shard index, not the OS pid: the merged
  // fleet timeline then has one stable process row per shard no matter how
  // many relaunches the shard took.
  obs::trace_set_pid(args.shard);
  // Every cross-process artifact — manifest, snapshots, exchange mailbox,
  // abort marker, heartbeat, result — lives in the run directory the
  // launcher created, as do this shard's journal, log and fault counters.
  const std::string& run_dir = args.run_dir;
  const std::string exchange_dir = run_dir + "/exchange";
  const std::string shard_dir = run_dir + "/shard" + std::to_string(args.shard);

  const Manifest m = parse_manifest(core::read_file(run_dir + "/run.txt"));
  const tune::Study study = rebuild_study(m);
  tune::TuneOptions opt = rebuild_options(m);
  const ShardRange range = shard_range_of(m, args.shard);
  core::StatSnapshot warm;
  if (manifest_int(m, "warm_start") != 0) {
    const std::string payload = core::read_published(run_dir, "warm.snap");
    warm = core::StatSnapshot::from_string(payload);
    opt.warm_start = &warm;
  }
  core::StatSnapshot prior;
  if (manifest_int(m, "prior_snap") != 0) {
    const std::string payload = core::read_published(run_dir, "prior.snap");
    prior = core::StatSnapshot::from_string(payload);
    opt.prior = &prior;
  }
  const int nshards = static_cast<int>(manifest_int(m, "nshards"));
  const int every = static_cast<int>(manifest_int(m, "exchange_every"));
  const bool strict = manifest_int(m, "exchange_strict") != 0;
  const int ckpt_every = static_cast<int>(manifest_int(m, "checkpoint_every"));
  const double exchange_deadline_s = manifest_double(m, "exchange_deadline_s");
  const FaultSpec fault = shard_fault(args.shard);

  Heartbeat hb{shard_dir + "/heartbeat"};
  if (fault.mode == "crash-on-start" && fault_fires(shard_dir, fault))
    ::_exit(41);
  obs::set_phase("resume");
  hb.beat(0);

  // --- resume from the session journal, if it holds a checkpoint ---
  // Probe regardless of ckpt_every: a signal-flushed worker leaves a final
  // checkpoint behind even when periodic checkpointing is off, and its
  // relaunch must pick it up.
  std::optional<ShardSession> ss(std::in_place, study, opt, range, nshards,
                                 every);
  SessionJournal journal(shard_dir, range, ss->exchanging());
  bool resumed = false;
  try {
    resumed = ss->resume(
        journal,
        [&](int p, int round) {
          return await_peer_delta(run_dir, p, round, /*deadline_s=*/0.0,
                                  /*strict=*/true, hb, ss->batches())
              .snap;
        },
        [&] { hb.beat(ss->batches()); });
  } catch (const std::exception& e) {
    obs::log_warn("shard %d: checkpoint resume failed (%s) — restarting "
                  "clean",
                  args.shard, e.what());
    ss.emplace(study, opt, range, nshards, every);
  }
  if (!resumed) journal.discard();
  // Mailbox GC (DESIGN.md §13): the launcher grants it only for runs that
  // can never resume-and-replay (no checkpoints, no retries) — a replaying
  // worker re-reads historical deltas, so GC would tear its history out
  // from under it.  Absent key (older manifest) means off.
  const auto git = m.find("gc_exchange");
  const bool gc = ss->exchanging() && git != m.end() && git->second == "1";
  // Mailbox traffic this attempt moved: published delta payloads plus live
  // peer reads (replay re-reads during resume are history, not new wire).
  std::int64_t exchange_bytes = 0;
  // Wall seconds this attempt spent in exchange rounds and checkpoint
  // writes — the worker's share of TuneResult::phases (ask/evaluate/tell
  // come from the Tuner itself).
  double exchange_s = 0.0, checkpoint_s = 0.0;
  int gc_next = 0;  ///< first own-delta round not yet retired by GC

  // One exchange round: publish this shard's round delta, then — unless
  // the sweep ended mid-round — fold in every peer's, in ascending shard
  // order (the determinism contract).
  const auto exchange_round = [&] {
    obs::set_phase("exchange");
    const double round_t0 = core::monotonic_s();
    const std::int64_t round_bytes0 = exchange_bytes;
    const int round = ss->rounds();
    obs::ScopedSpan round_span("dist.exchange_round", "dist", "round",
                               static_cast<std::uint64_t>(round));
    const core::StatSnapshot delta = ss->take_delta();
    std::string payload;
    if (!delta.empty()) payload = delta.to_string();
    if (fault.mode == "slow-exchange" && round == 0 &&
        fault_fires(shard_dir, fault)) {
      // A slow peer, not a dead one: keep beating while stalling so the
      // launcher sees a live worker — peers decide via their own exchange
      // deadline.
      const double until =
          core::monotonic_s() + (fault.arg > 0 ? fault.arg : 1000) / 1000.0;
      while (core::monotonic_s() < until) {
        hb.beat(ss->batches());
        core::sleep_ms(10);
      }
    }
    const int corrupt_round = fault.arg > 0 ? static_cast<int>(fault.arg) : 0;
    if (fault.mode == "corrupt-delta" && round == corrupt_round &&
        fault_fires(shard_dir, fault)) {
      // Corrupt the mailbox copy only (own already folded the real delta):
      // the publish itself is well-formed but the snapshot bytes inside are
      // flipped, so every reader deterministically rejects the blob —
      // corruption at the source, which the manifest cannot catch.
      if (payload.empty()) payload = "x";
      payload[0] = static_cast<char>(payload[0] ^ 0x5a);
    }
    core::publish_file(exchange_dir, delta_name(range.index, round), payload);
    exchange_bytes += static_cast<std::int64_t>(payload.size());
    // Flow id (shard << 16) | round: the publish starts the flow, every
    // peer that absorbs this round's delta finishes it — the merged
    // fleet timeline draws the exchange as arrows between process rows.
    obs::trace_flow(
        's', "exchange", "dist",
        (static_cast<std::uint64_t>(range.index) << 16) |
            static_cast<std::uint64_t>(round));
    for (int p = 0; ss->reads_peers() && p < nshards; ++p) {
      if (p == range.index) continue;
      PeerWait peer = await_peer_delta(run_dir, p, round, exchange_deadline_s,
                                       strict, hb, ss->batches());
      if (peer.skipped) {
        ss->skip(p);
        obs::counter("dist.exchange.skips").add();
      } else if (ss->absorb(peer.snap)) {
        obs::trace_flow('f', "exchange", "dist",
                        (static_cast<std::uint64_t>(p) << 16) |
                            static_cast<std::uint64_t>(round));
      }
      exchange_bytes += peer.bytes;
    }
    ss->end_round();
    obs::counter("dist.exchange.bytes")
        .add(static_cast<std::uint64_t>(exchange_bytes - round_bytes0));
    const double round_dt = core::monotonic_s() - round_t0;
    exchange_s += round_dt;
    obs::histogram("dist.exchange.round_seconds").observe(round_dt);
    obs::set_phase("evaluate");
    if (!gc || !ss->reads_peers()) return;
    // Advertise the fold we just completed, then retire own deltas every
    // peer has provably consumed (their progress counters are past that
    // round).  An unreadable or absent peer marker counts as no progress
    // — GC waits rather than guesses.
    core::write_file_atomic(exchange_dir + "/" + progress_name(range.index),
                            "rounds=" + std::to_string(ss->rounds()) + "\n");
    int folded = ss->rounds();  ///< rounds every peer has folded in
    for (int p = 0; p < nshards && folded > gc_next; ++p) {
      if (p == range.index) continue;
      int rounds = -1;
      try {
        rounds = marker_rounds(
            core::read_file(exchange_dir + "/" + progress_name(p)));
      } catch (...) {
      }
      folded = std::min(folded, rounds);
    }
    for (; gc_next < folded; ++gc_next)
      core::unpublish(exchange_dir, delta_name(range.index, gc_next));
  };

  int checkpoints_taken = 0;
  if (fault.mode == "kill-mid-checkpoint" ||
      fault.mode == "corrupt-checkpoint") {
    const int ordinal = fault.arg > 0 ? static_cast<int>(fault.arg) : 2;
    journal.set_write_seam([&, ordinal](const auto& write) {
      if (checkpoints_taken != ordinal || !fault_fires(shard_dir, fault))
        return write(SessionJournal::Damage::None);
      if (fault.mode == "kill-mid-checkpoint") {
        write(SessionJournal::Damage::Torn);
        ::kill(::getpid(), SIGKILL);
      } else {
        write(SessionJournal::Damage::Corrupt);
        ::_exit(43);
      }
    });
  }
  const auto take_checkpoint = [&] {
    obs::set_phase("checkpoint");
    const double t0 = core::monotonic_s();
    obs::ScopedSpan span("dist.checkpoint", "dist", "seq",
                         static_cast<std::uint64_t>(journal.state().seq + 1));
    ++checkpoints_taken;
    ss->record(journal);
    const double dt = core::monotonic_s() - t0;
    checkpoint_s += dt;
    obs::histogram("dist.checkpoint.write_seconds").observe(dt);
    obs::set_phase("evaluate");
  };

  const long fault_batch = fault.arg > 0 ? fault.arg : 1;
  int attempt_batches = 0;
  obs::set_phase("evaluate");
  while (true) {
    if (g_worker_terminate) {
      // Graceful shutdown: flush a final full checkpoint (state snapshot
      // included) so a relaunch resumes exactly here, then exit with the
      // classified termination code.
      journal.force_full();
      take_checkpoint();
      try {
        core::write_file(shard_dir + "/error.txt",
                         "terminated by signal after " +
                             std::to_string(ss->batches()) +
                             " batches — final checkpoint flushed\n");
      } catch (...) {
      }
      return kTerminatedExit;
    }
    check_not_aborted(run_dir);
    bool stepped;
    {
      const double t0 = core::monotonic_s();
      obs::ScopedSpan span("dist.batch", "dist", "batch",
                           static_cast<std::uint64_t>(ss->batches()));
      stepped = ss->step();
      if (stepped) {
        obs::counter("dist.batches").add();
        obs::histogram("dist.batch_seconds").observe(core::monotonic_s() - t0);
      }
    }
    if (!stepped) break;
    ++attempt_batches;
    hb.beat(ss->batches());
    if (fault.mode == "crash-after-batch" && attempt_batches == fault_batch &&
        fault_fires(shard_dir, fault))
      ::_exit(42);
    if (fault.mode == "hang-after-batch" && attempt_batches == fault_batch &&
        fault_fires(shard_dir, fault))
      while (true) core::sleep_ms(1000);  // a genuine hang: no beats, no exit
    if (ss->round_due()) exchange_round();
    if (ckpt_every > 0 && ss->batches() % ckpt_every == 0) take_checkpoint();
  }
  if (ss->exchanging()) {
    // Trailing partial round: publish so peers still sweeping see it; a
    // finished shard reads no more peers.
    if (ss->round_due()) exchange_round();
    core::publish_file(exchange_dir, done_name(range.index),
                       "rounds=" + std::to_string(ss->rounds()) + "\n");
  }

  ShardResult result = ss->result();
  result.recovery.checkpoints = checkpoints_taken;
  result.exchange_bytes = exchange_bytes;
  // ask/evaluate/tell arrived via the Tuner's own phase clock; the worker
  // loop owns the exchange and checkpoint time.
  result.phases.exchange = exchange_s;
  result.phases.checkpoint = checkpoint_s;

  obs::set_phase("publish");
  if (fault.mode == "skip-result") return 0;
  // Flush the per-shard trace file *before* publishing the result: the
  // launcher merges shard traces as soon as every result is in hand, so
  // the publish is the ordering barrier that makes the file visible.
  obs::trace_flush_env();
  core::publish_file(shard_dir, "result.bin", serialize_result(result));
  return 0;
}

// ---------------------------------------------------------------------------
// Launcher side
// ---------------------------------------------------------------------------

std::string self_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  CRITTER_CHECK(n > 0, "cannot resolve /proc/self/exe for worker re-exec");
  return std::string(buf, static_cast<std::size_t>(n));
}

pid_t spawn_worker(const std::string& binary, const std::string& run_dir,
                   int shard) {
  // Re-point the worker's tracing at a per-shard file; the launcher merges
  // them into one fleet timeline after the run.  Every string the child
  // needs is built before fork, so the child allocates nothing between
  // fork and execv (the launcher's process may run other threads).
  const std::string shard_dir = run_dir + "/shard" + std::to_string(shard);
  std::string trace_env;
  if (obs::trace_enabled())
    trace_env = "CRITTER_TRACE=" + shard_dir + "/trace.json";
  const std::string log = shard_dir + "/log.txt";
  const std::string dir_arg = "--shard-dir=" + run_dir;
  const std::string idx_arg = "--shard-index=" + std::to_string(shard);
  const char* const argv[] = {binary.c_str(), "--shard-worker",
                              dir_arg.c_str(), idx_arg.c_str(), nullptr};
  const pid_t pid = ::fork();
  CRITTER_CHECK(pid >= 0, "fork failed for shard worker");
  if (pid > 0) return pid;
  if (!trace_env.empty()) ::putenv(const_cast<char*>(trace_env.data()));
  // Child: capture output, then become the worker.
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  ::execv(binary.c_str(), const_cast<char* const*>(argv));
  obs::log_error("execv %s failed: %s", binary.c_str(), std::strerror(errno));
  ::_exit(127);
}

std::string describe_exit(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  return "ended abnormally";
}

std::string shard_diagnosis(const std::string& run_dir, int shard) {
  const std::string base = run_dir + "/shard" + std::to_string(shard);
  for (const char* name : {"/error.txt", "/log.txt"}) {
    if (!core::file_exists(base + name)) continue;
    std::string text;
    try {
      text = core::read_file(base + name);
    } catch (...) {
      continue;
    }
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
      text.pop_back();
    if (!text.empty()) return text;
  }
  return "(no diagnostics recorded)";
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

/// " (last phase=evaluate, batch 12)" recovered from a shard's final
/// heartbeat content, so a stall report says what the worker was doing
/// when it went quiet; empty when no heartbeat was ever observed (or it
/// predates the phase field).
std::string describe_last_beat(const std::string& beat) {
  const char* batches_at = std::strstr(beat.c_str(), "batches=");
  const char* phase_at = std::strstr(beat.c_str(), "phase=");
  if (batches_at == nullptr && phase_at == nullptr) return "";
  char phase[64] = {0};
  if (phase_at != nullptr) std::sscanf(phase_at + 6, "%63s", phase);
  const int batches = batches_at != nullptr ? std::atoi(batches_at + 8) : 0;
  std::string out = " (last phase=";
  out += phase[0] != '\0' ? phase : "?";
  out += ", batch " + std::to_string(batches) + ")";
  return out;
}

struct Child {
  ShardRange range;
  pid_t pid = -1;
  bool running = false;
  int attempts = 0;           ///< launches so far
  double launched_at = 0.0;
  std::string beat;           ///< last heartbeat content observed
  double beat_at = 0.0;
  bool beat_seen = false;
  double relaunch_at = -1.0;  ///< >= 0: waiting out a backoff
  bool done = false;          ///< usable result parsed
  bool degraded = false;      ///< abandoned to the launcher's fallback
  std::string last_failure;
  ShardResult result;
};

/// Spawn, supervise, and collect the whole fleet: classify every fault
/// (exit code vs. stalled heartbeat vs. unusable result), relaunch with
/// exponential backoff while retries remain, and on exhaustion either
/// abort the fleet (publishing the abort marker so waiting peers bail) or
/// degrade the shard to an in-launcher completion.
std::vector<ShardResult> run_fleet(const tune::Study& study,
                                   const tune::TuneOptions& opt,
                                   const std::vector<ShardRange>& shards,
                                   const ExchangePolicy& exchange,
                                   const FaultPolicy& fault,
                                   const std::string& binary,
                                   const std::string& run_dir) {
  const bool exchanging = exchange.every > 0 && shards.size() > 1;
  const std::string exchange_dir = run_dir + "/exchange";
  std::vector<Child> fleet(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) fleet[i].range = shards[i];

  const auto shard_dir_of = [&](const Child& c) {
    return run_dir + "/shard" + std::to_string(c.range.index);
  };
  const auto spawn = [&](Child& c) {
    // A stale error file from a previous attempt must not masquerade as
    // this attempt's diagnosis.
    ::remove((shard_dir_of(c) + "/error.txt").c_str());
    c.pid = spawn_worker(binary, run_dir, c.range.index);
    c.running = true;
    ++c.attempts;
    c.launched_at = core::monotonic_s();
    c.beat_seen = false;
    c.relaunch_at = -1.0;
  };
  const auto poll_exits = [&]() {
    for (Child& c : fleet) {
      if (!c.running) continue;
      int status = 0;
      if (::waitpid(c.pid, &status, WNOHANG) == c.pid) c.running = false;
    }
  };
  const auto any_running = [&]() {
    for (const Child& c : fleet)
      if (c.running) return true;
    return false;
  };
  const auto abort_fleet = [&](const std::string& failure) {
    core::publish_file(run_dir, "abort", failure + "\n");
    const double grace_deadline = core::monotonic_s() + 10.0;
    while (any_running() && core::monotonic_s() < grace_deadline) {
      poll_exits();
      core::sleep_ms(10);
    }
    for (Child& c : fleet)
      if (c.running) ::kill(c.pid, SIGKILL);
    while (any_running()) {
      poll_exits();
      core::sleep_ms(5);
    }
    CRITTER_CHECK(false, failure + " — run directory kept at " + run_dir);
  };
  const auto try_finish = [&](Child& c) {
    if (!core::published(shard_dir_of(c), "result.bin")) return false;
    try {
      c.result = parse_result(core::read_published(shard_dir_of(c),
                                                   "result.bin"),
                              study, c.range);
    } catch (const std::exception&) {
      return false;
    }
    c.done = true;
    return true;
  };
  const auto fault_out = [&](Child& c, const std::string& reason) {
    c.last_failure = reason;
    if (c.attempts <= fault.max_retries) {
      double backoff = fault.backoff_initial_s;
      for (int i = 1; i < c.attempts; ++i) backoff *= 2.0;
      const double wait = std::min(backoff, fault.backoff_max_s);
      c.relaunch_at = core::monotonic_s() + wait;
      obs::counter("dist.retries").add();
      obs::histogram("dist.backoff_wait_seconds").observe(wait);
      obs::log_info("shard %d faulted (%s) — relaunch in %gs",
                    c.range.index, reason.c_str(), wait);
      return;
    }
    if (fault.on_exhausted == FaultPolicy::OnExhausted::Degrade) {
      c.degraded = true;
      // Tell waiting peers no more deltas are coming from this shard, so
      // non-strict rounds skip it immediately instead of waiting out the
      // exchange deadline every round.
      const std::string done = done_name(c.range.index);
      if (exchanging && !core::published(exchange_dir, done))
        core::publish_file(exchange_dir, done, "rounds=0\n");
      return;
    }
    std::string failure = "shard worker " + std::to_string(c.range.index) +
                          " (pid " + std::to_string(c.pid) + ") " + reason;
    if (c.attempts > 1)
      failure += " (after " + std::to_string(c.attempts - 1) + " relaunch" +
                 (c.attempts == 2 ? "" : "es") + ")";
    abort_fleet(failure);
  };

  for (Child& c : fleet) spawn(c);
  while (true) {
    bool all_settled = true;
    for (const Child& c : fleet)
      all_settled = all_settled && (c.done || c.degraded);
    if (all_settled) break;
    for (Child& c : fleet) {
      if (c.done || c.degraded) continue;
      if (!c.running) {
        if (c.relaunch_at >= 0.0 && core::monotonic_s() >= c.relaunch_at)
          spawn(c);
        continue;
      }
      int status = 0;
      if (::waitpid(c.pid, &status, WNOHANG) == c.pid) {
        c.running = false;
        // A published, parseable result settles the shard no matter how
        // the process went out (it may have crashed after publishing).
        if (try_finish(c)) continue;
        if (status == 0)
          fault_out(c,
                    "exited cleanly without publishing a usable shard "
                    "result");
        else
          fault_out(c, describe_exit(status) + ": " +
                           shard_diagnosis(run_dir, c.range.index));
        continue;
      }
      // Progress-based stall detection: the startup deadline bounds launch
      // → first heartbeat, the progress deadline bounds the gap between
      // heartbeat advances.
      std::string beat;
      try {
        const std::string heartbeat = shard_dir_of(c) + "/heartbeat";
        if (core::file_exists(heartbeat)) beat = core::read_file(heartbeat);
      } catch (...) {
      }
      if (!beat.empty() && beat != c.beat) {
        c.beat = beat;
        c.beat_at = core::monotonic_s();
        c.beat_seen = true;
        continue;
      }
      const double ref = c.beat_seen ? c.beat_at : c.launched_at;
      const double limit =
          c.beat_seen ? fault.progress_deadline_s : fault.startup_deadline_s;
      if (core::monotonic_s() - ref <= limit) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, &status, 0);
      c.running = false;
      if (try_finish(c)) continue;  // hung after publishing: still usable
      fault_out(c, "stalled: no heartbeat progress within " +
                       format_seconds(limit) + "s" +
                       describe_last_beat(c.beat));
    }
    core::sleep_ms(5);
  }

  // Degraded completion: the launcher sweeps the abandoned ranges itself,
  // in shard order.  Bit-identical with exchange off; with exchange on the
  // fallback session exchanges nothing (the documented §10 relaxation).
  for (Child& c : fleet)
    if (c.degraded)
      c.result = InProcessExecutor().run(study, opt, {c.range}, {})[0];

  std::vector<ShardResult> results;
  results.reserve(fleet.size());
  for (Child& c : fleet) {
    tune::ShardRecovery& rec = c.result.recovery;
    rec.retries = c.attempts - 1;
    rec.recovered = c.done && c.attempts > 1;
    rec.degraded = c.degraded;
    rec.last_failure = c.last_failure;
    results.push_back(std::move(c.result));
  }
  return results;
}

}  // namespace

std::vector<ShardResult> SubprocessExecutor::run(
    const tune::Study& study, const tune::TuneOptions& opt,
    const std::vector<ShardRange>& shards, const ExchangePolicy& exchange) {
  CRITTER_CHECK(!study.workload.empty(),
                "subprocess executor requires a registry workload "
                "(Study::workload) so shard workers can rebuild the study; "
                "ad-hoc studies can only run in-process");
  CRITTER_CHECK(
      !(opts_.fault.on_exhausted == FaultPolicy::OnExhausted::Degrade &&
        exchange.every > 0 && shards.size() > 1 && exchange.strict),
      "degraded shard completion with mid-sweep exchange requires "
      "non-strict mode (ExchangePolicy::strict = false) — a degraded "
      "shard stops exchanging, which strict peers treat as a fault");
  const bool paper_scale = detect_paper_scale(study);
  const std::string binary = self_binary();

  const bool temp_dir = opts_.run_dir.empty();
  const std::string run_dir =
      temp_dir ? core::make_temp_dir("critter-run-") : opts_.run_dir;
  if (!temp_dir) {
    core::make_dir(run_dir);
    CRITTER_CHECK(!core::file_exists(run_dir + "/run.txt"),
                  "run directory " + run_dir +
                      " already holds a run manifest (stale run "
                      "directory?) — point --run-dir at a fresh one");
  }
  const std::string exchange_dir = run_dir + "/exchange";
  core::make_dir(exchange_dir);
  for (const ShardRange& s : shards)
    core::make_dir(run_dir + "/shard" + std::to_string(s.index));

  if (opt.warm_start != nullptr && !opt.warm_start->empty())
    core::publish_file(run_dir, "warm.snap", opt.warm_start->to_string());
  if (opt.prior != nullptr && !opt.prior->empty())
    core::publish_file(run_dir, "prior.snap", opt.prior->to_string());
  const bool warm = opt.warm_start != nullptr && !opt.warm_start->empty();
  core::write_file_atomic(run_dir + "/run.txt",
                          build_run_manifest(study, paper_scale, opt, shards,
                                             exchange, opts_.fault, warm));

  const std::vector<ShardResult> results = run_fleet(
      study, opt, shards, exchange, opts_.fault, binary, run_dir);

  // Fleet timeline (DESIGN.md §14): each worker wrote a per-shard trace
  // (pid = shard index) before publishing its result; merge them with the
  // launcher's own events into the CRITTER_TRACE file.  Best-effort —
  // shards that died before flushing simply have no rows.
  if (const std::string trace_path = obs::trace_env_path();
      !trace_path.empty()) {
    std::vector<std::string> docs;
    std::vector<std::pair<int, std::string>> names;
    for (const ShardRange& s : shards) {
      const std::string p =
          run_dir + "/shard" + std::to_string(s.index) + "/trace.json";
      if (!core::file_exists(p)) continue;
      try {
        docs.push_back(core::read_file(p));
        names.emplace_back(s.index, "shard " + std::to_string(s.index));
      } catch (...) {
      }
    }
    docs.push_back(obs::trace_export_chrome());
    names.emplace_back(static_cast<int>(::getpid()), "launcher");
    try {
      core::write_file(trace_path, obs::trace_merge_chrome(docs, names));
    } catch (const std::exception& e) {
      obs::log_warn("fleet trace merge to %s failed: %s", trace_path.c_str(),
                    e.what());
    }
  }

  // End-of-run mailbox sweep: every result is in hand, so no worker will
  // read another delta — retire whatever the in-run GC couldn't (trailing
  // rounds, early-finisher tails) plus the progress markers.  Idempotent;
  // done markers stay (they are the mailbox's historical record).
  if (exchange.every > 0 && shards.size() > 1) {
    for (const ShardResult& r : results) {
      for (int j = 0; j < r.exchange_rounds; ++j)
        core::unpublish(exchange_dir, delta_name(r.range.index, j));
      core::unpublish(exchange_dir, progress_name(r.range.index));
    }
  }

  if (temp_dir) core::remove_dir_tree(run_dir);
  return results;
}

bool is_shard_worker(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--shard-worker") == 0) return true;
  return false;
}

int shard_worker_main(int argc, char** argv) {
  // Graceful shutdown: SIGTERM/SIGINT set a flag the sweep loop checks at
  // each batch boundary — the worker flushes a final full checkpoint and
  // exits instead of dying mid-batch.
  struct sigaction sa {};
  sa.sa_handler = worker_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  WorkerArgs args;
  try {
    args = parse_worker_args(argc, argv);
  } catch (const std::exception& e) {
    obs::log_error("%s", e.what());
    return 2;
  }
  try {
    return worker_body(args);
  } catch (const std::exception& e) {
    try {
      core::write_file(args.run_dir + "/shard" + std::to_string(args.shard) +
                           "/error.txt",
                       std::string(e.what()) + "\n");
    } catch (...) {
    }
    obs::log_error("shard worker %d failed: %s", args.shard, e.what());
    return 1;
  }
}

}  // namespace critter::dist
