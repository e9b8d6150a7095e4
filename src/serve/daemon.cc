#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "core/wire_codec.hpp"
#include "dist/checkpoint.hpp"
#include "dist/manifest.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tune/evaluator.hpp"
#include "tune/strategy.hpp"
#include "tune/sweep.hpp"
#include "util/check.hpp"

namespace critter::serve {

using core::StatSnapshot;

namespace {

volatile std::sig_atomic_t g_daemon_terminate = 0;
void daemon_signal_handler(int) { g_daemon_terminate = 1; }

/// Observe the enclosing scope's wall time into a latency histogram —
/// the per-request serve.*_seconds instruments.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(obs::Histogram& h)
      : h_(h), t0_(core::monotonic_s()) {}
  ~ScopedHistTimer() { h_.observe(core::monotonic_s() - t0_); }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  obs::Histogram& h_;
  double t0_;
};

/// Journal one record (every TELL is journaled before it is acknowledged),
/// timed into serve.journal_flush_seconds.
void journal_record(dist::SessionJournal& journal,
                    dist::SessionJournal::Step step,
                    const std::vector<tune::ConfigTotals>& totals) {
  ScopedHistTimer flush_timer(obs::histogram("serve.journal_flush_seconds"));
  journal.record(std::move(step), totals);
}

}  // namespace

// ---------------------------------------------------------------------------
// Session: one (workload, options) tuning state, shared by all clients
// ---------------------------------------------------------------------------

struct TunerDaemon::Session {
  std::string name;
  std::string dir;            ///< <state_dir>/sessions/<name>
  /// The identity clients must agree on: the manifest and the warm-start
  /// and prior snapshots' bytes ("" = none), exactly as OPEN sent them.
  std::string manifest_text, warm, prior;
  tune::Study study;
  std::unique_ptr<tune::Tuner> tuner;

  std::mutex mu;
  std::condition_variable cv;
  // At most one outstanding claim (the determinism contract): `claimed`
  // while a batch is out, `owner` the holding connection (0 = the holder
  // disconnected — the cached batch re-issues unchanged to the next asker).
  bool claimed = false;
  std::uint64_t owner = 0;
  std::vector<int> batch;

  // The session's durable journal (dist::SessionJournal, no exchange
  // state — a daemon session has no peers).  Its state() is the one copy of
  // the told batches and of the authoritative serialized statistics
  // (DESIGN.md §13): "" while empty, otherwise the exact full binary
  // payload.  The daemon holds them only as bytes — no strategy on this
  // side reads statistics, so TELL validates and journals without decoding
  // a table.  `state_gen` names the bytes — bumped whenever a TELL ships
  // them, so a client whose generation token matches holds these exact
  // bytes and ASK ships nothing.
  std::optional<dist::SessionJournal> journal;
  std::uint64_t state_gen = 1;

  // Wire accounting: request/reply payload bytes handled for this session
  // (kTuneStatus surfaces them; bench_tuner derives bytes_per_tell).  Not
  // journaled: they count from this daemon's start, while the tell count
  // survives a restart.
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
};

// ---------------------------------------------------------------------------
// Construction / resume
// ---------------------------------------------------------------------------

TunerDaemon::TunerDaemon(DaemonOptions opt) : opt_(std::move(opt)) {
  CRITTER_CHECK(!opt_.state_dir.empty(), "tuner daemon needs a state directory");
  core::make_dir(opt_.state_dir);
  core::make_dir(opt_.state_dir + "/sessions");
  load_sessions();
  server_ = std::make_unique<net::Server>(
      opt_.port, kTuneService,
      [this](const net::Frame& rq, std::uint64_t conn) {
        return handle_request(rq, conn);
      },
      [this](std::uint64_t conn) { release_claims(conn); },
      opt_.op_deadline_s);
  // Port file last: a reader that sees it can connect immediately.
  core::write_file_atomic(opt_.state_dir + "/port",
                          std::to_string(server_->port()) + "\n");
}

TunerDaemon::~TunerDaemon() { stop(); }

int TunerDaemon::port() const { return server_->port(); }

bool TunerDaemon::stopping() const { return stop_.load(); }

void TunerDaemon::stop() {
  // Runs once: the destructor calls stop() again after an explicit one,
  // and a second final flush would rewrite every slot for nothing — or
  // fail loudly once the owner has removed the state directory.
  std::call_once(stop_once_, [this] {
    stop_.store(true);  // askers blocked on a claim give up
    server_->stop();
    // Final flush: a full checkpoint per session — including sessions
    // opened or resumed but not told since — so a restart resumes from here
    // without replaying any increment log.
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& [name, s] : sessions_) {
      std::lock_guard<std::mutex> slk(s->mu);
      try {
        s->journal->force_full();
        journal_record(*s->journal, {}, s->tuner->totals());
      } catch (const std::exception& e) {
        obs::log_error("tuner daemon: final flush of session %s failed: %s",
                       name.c_str(), e.what());
      }
    }
  });
}

std::unique_ptr<TunerDaemon::Session> TunerDaemon::load_session(
    const std::string& name, std::string manifest, std::string warm,
    std::string prior) {
  auto s = std::make_unique<Session>();
  s->name = name;
  s->dir = opt_.state_dir + "/sessions/" + name;
  const dist::Manifest m = dist::parse_manifest(manifest);
  s->study = dist::rebuild_study(m);
  tune::TuneOptions opt = dist::rebuild_options(m);
  // The Tuner copies what it keeps of both snapshots at construction.
  StatSnapshot warm_snap, prior_snap;
  if (!warm.empty()) {
    warm_snap = StatSnapshot::from_string(warm);
    opt.warm_start = &warm_snap;
  }
  if (!prior.empty()) {
    prior_snap = StatSnapshot::from_string(prior);
    opt.prior = &prior_snap;
  }
  s->tuner = std::make_unique<tune::Tuner>(s->study, opt);

  // Journal replay: the best full slot, then the longest valid increment
  // prefix on top, kept as bytes.  Asks are a pure function of told
  // outcomes and ingested priors, so the resumed strategy re-proposes
  // exactly the recorded batches — anything else is a divergence bug, not
  // a degraded resume, and the throw fails the daemon's start.  A session
  // with no slot starts from its warm start: the state the in-process Tuner
  // holds after construction, so the first ASK ships it to the evaluating
  // client.
  s->journal.emplace(
      s->dir,
      dist::ShardRange{0, 0, static_cast<int>(s->study.configs.size())},
      /*exchanging=*/false);
  if (s->journal->resume(s->study)) {
    s->tuner->resume(/*stats=*/nullptr, s->journal->state().told,
                     s->journal->state().totals);
    // The replay re-asks only the journaled batches, and only an empty ask
    // marks a Tuner done, so ask once more: a finished session reads as
    // done before any client asks, and an unfinished one holds its next
    // batch as an orphaned claim, which the next ASK re-issues unchanged.
    if (!s->journal->state().told.empty()) {
      s->batch = s->tuner->ask();
      s->claimed = !s->batch.empty();
    }
  } else if (!warm.empty()) {
    const StatSnapshot seeded = s->tuner->export_state();
    if (!seeded.empty()) s->journal->replace_bytes(seeded.to_string());
  }
  s->manifest_text = std::move(manifest);
  s->warm = std::move(warm);
  s->prior = std::move(prior);
  return s;
}

void TunerDaemon::load_sessions() {
  for (const std::string& name :
       core::list_dir(opt_.state_dir + "/sessions")) {
    const std::string dir = opt_.state_dir + "/sessions/" + name;
    if (!valid_session_name(name) || !core::file_exists(dir + "/manifest.txt"))
      continue;  // a torn create never got its identity; nothing to resume
    const auto snapshot = [&](const char* file) {
      return core::published(dir, file) ? core::read_published(dir, file)
                                        : std::string();
    };
    sessions_[name] = load_session(name, core::read_file(dir + "/manifest.txt"),
                                   snapshot("warm.snap"), snapshot("prior.snap"));
  }
}

TunerDaemon::Session& TunerDaemon::open_session(const OpenRequest& rq) {
  CRITTER_CHECK(valid_session_name(rq.session),
                "tune open: invalid session name '" + rq.session + "'");
  std::lock_guard<std::mutex> lk(sessions_mu_);
  auto it = sessions_.find(rq.session);
  if (it != sessions_.end()) {
    // Joining: concurrent clients must agree on what they are tuning.
    Session& s = *it->second;
    CRITTER_CHECK(rq.manifest == s.manifest_text,
                  "tune open: session '" + rq.session +
                      "' exists with a different study/options identity");
    CRITTER_CHECK(rq.warm == s.warm && rq.prior == s.prior,
                  "tune open: session '" + rq.session +
                      "' exists with different warm/prior snapshots");
    return s;
  }
  // Fresh session: build it through the loader a restart uses, then
  // persist the identity — snapshots first, the manifest last — so an OPEN
  // the loader rejects leaves nothing on disk for a restart to trip on.
  auto s = load_session(rq.session, rq.manifest, rq.warm, rq.prior);
  core::make_dir(s->dir);
  if (!s->warm.empty()) core::publish_file(s->dir, "warm.snap", s->warm);
  if (!s->prior.empty()) core::publish_file(s->dir, "prior.snap", s->prior);
  core::write_file_atomic(s->dir + "/manifest.txt", s->manifest_text);
  Session& ref = *s;
  sessions_[rq.session] = std::move(s);
  return ref;
}

TunerDaemon::Session& TunerDaemon::resolve_session(const std::string& name) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  auto it = sessions_.find(name);
  CRITTER_CHECK(it != sessions_.end(),
                "unknown tuning session '" + name + "' — open it first");
  return *it->second;
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

void TunerDaemon::release_claims(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  for (auto& [name, s] : sessions_) {
    std::lock_guard<std::mutex> slk(s->mu);
    if (s->claimed && s->owner == conn_id) {
      // Orphan, don't abandon: the cached batch re-issues unchanged —
      // client churn costs wall-clock, never determinism (§10 semantics).
      s->owner = 0;
      s->cv.notify_all();
    }
  }
}

std::string TunerDaemon::handle_request(const net::Frame& rq,
                                        std::uint64_t conn_id) {
  switch (rq.verb) {
    case net::kTuneOpen: {
      const OpenRequest orq = decode_open(rq.payload);
      Session& s = open_session(orq);
      std::lock_guard<std::mutex> lk(s.mu);
      OpenReply rp;
      rp.nconfigs = static_cast<std::int32_t>(s.study.configs.size());
      rp.tells = s.journal->state().batches;
      rp.done = s.tuner->done();
      return encode_open_reply(rp);
    }
    case net::kTuneAsk: {
      obs::ScopedSpan span("serve.ask", "serve");
      ScopedHistTimer timer(obs::histogram("serve.ask_seconds"));
      obs::counter("serve.asks").add();
      const AskRequest arq = decode_ask_request(rq.payload);
      Session& s = resolve_session(arq.session);
      std::unique_lock<std::mutex> lk(s.mu);
      s.bytes_in += static_cast<std::int64_t>(rq.payload.size());
      while (s.claimed && s.owner != 0 && s.owner != conn_id) {
        if (stop_.load())
          throw std::runtime_error("tuner daemon: shutting down");
        s.cv.wait_for(lk, std::chrono::milliseconds(50));
      }
      AskReply rp;
      if (!s.claimed) {
        if (s.tuner->done()) {
          rp.done = true;
          const std::string payload = encode_ask_reply(rp);
          s.bytes_out += static_cast<std::int64_t>(payload.size());
          return payload;
        }
        const std::vector<int> batch = s.tuner->ask();
        if (batch.empty()) {
          rp.done = true;
          const std::string payload = encode_ask_reply(rp);
          s.bytes_out += static_cast<std::int64_t>(payload.size());
          return payload;
        }
        s.batch = batch;
        s.claimed = true;
      }
      s.owner = conn_id;
      rp.batch = s.batch;
      rp.control = s.tuner->control();
      rp.state_gen = s.state_gen;
      if (arq.have_gen == s.state_gen) {
        // The asker's mirror already holds these exact bytes (generations
        // only bump when the bytes change, and only TELLs of the single
        // outstanding claim change them) — ship nothing.
        rp.state_mode = 0;
      } else {
        rp.state_mode = 1;
        // "" = empty statistics, skip import
        rp.state = s.journal->state().full_bytes;
      }
      const std::string payload = encode_ask_reply(rp);
      s.bytes_out += static_cast<std::int64_t>(payload.size());
      return payload;
    }
    case net::kTuneTell: {
      obs::ScopedSpan span("serve.tell", "serve");
      ScopedHistTimer timer(obs::histogram("serve.tell_seconds"));
      obs::counter("serve.tells").add();
      core::WireReader r{rq.payload, "tune tell"};
      const std::string name = decode_tell_session(r);
      Session& s = resolve_session(name);
      std::lock_guard<std::mutex> lk(s.mu);
      s.bytes_in += static_cast<std::int64_t>(rq.payload.size());
      TellRequest trq;
      decode_tell_body(r, s.study, &trq);
      CRITTER_CHECK(s.claimed && trq.batch == s.batch,
                    "tune tell: not the claimed batch of session '" + name +
                        "'");
      CRITTER_CHECK(s.owner == conn_id || s.owner == 0,
                    "tune tell: the claimed batch belongs to another client");
      // The state field (serve/protocol.hpp) is "" (statistics unchanged)
      // or the whole payload, which replaces the session's bytes once it
      // passes the decoder's own checks — nothing is decoded, and the
      // session Tuner, which never reads statistics, imports nothing.
      dist::SessionJournal::Step step;
      const bool changed = !trq.state.empty();
      if (changed) {
        core::check_snapshot_payload(trq.state);
        step.full_bytes = std::move(trq.state);
      }
      // The record lands before anything changes: a failed write leaves the
      // claim open on a Tuner that still holds it, so the client re-asks the
      // same batch.  decode_tell_body sized the outcomes and totals to the
      // claimed batch and bound each outcome to its position, which is all
      // tell_evaluated checks beyond the claim itself.
      std::vector<tune::ConfigTotals> totals = s.tuner->totals();
      for (std::size_t k = 0; k < trq.batch.size(); ++k)
        totals[static_cast<std::size_t>(trq.batch[k])] += trq.totals[k];
      step.told.push_back({trq.batch, trq.outcomes});
      journal_record(*s.journal, std::move(step), totals);
      s.tuner->tell_evaluated(trq.outcomes, trq.totals);
      if (changed) {
        ++s.state_gen;
        obs::counter("serve.tells.full").add();
      }
      s.claimed = false;
      s.owner = 0;
      s.batch.clear();
      s.cv.notify_all();
      const std::string payload = encode_tell_reply(s.state_gen);
      s.bytes_out += static_cast<std::int64_t>(payload.size());
      return payload;
    }
    case net::kTuneExport: {
      Session& s = resolve_session(decode_session_ref(rq.payload));
      std::lock_guard<std::mutex> lk(s.mu);
      // The cache IS the serialized state (serialize ∘ parse is exact) —
      // no per-export re-serialization.
      return s.journal->state().full_bytes;
    }
    case net::kTuneStatus: {
      Session& s = resolve_session(decode_session_ref(rq.payload));
      std::lock_guard<std::mutex> lk(s.mu);
      StatusReply rp;
      rp.done = s.tuner->done();
      rp.tells = s.journal->state().batches;
      for (const dist::ShardCheckpoint::ToldBatch& tb : s.journal->state().told)
        for (const tune::ConfigOutcome& oc : tb.outcomes)
          if (oc.evaluated) ++rp.evaluated;
      if (rp.evaluated > 0)
        rp.best_predicted = s.tuner->result().best_predicted();
      rp.bytes_in = s.bytes_in;
      rp.bytes_out = s.bytes_out;
      rp.text = "session " + s.name + ": " + std::to_string(rp.tells) +
                " tells, " + std::to_string(rp.evaluated) + " evaluated" +
                (rp.done ? ", done" : "") +
                (rp.best_predicted >= 0
                     ? ", best=" + std::to_string(rp.best_predicted)
                     : "") +
                ", wire since daemon start " + std::to_string(rp.bytes_in) +
                "B in/" + std::to_string(rp.bytes_out) + "B out";
      rp.metrics = obs::metrics_json();
      return encode_status_reply(rp);
    }
    case net::kTuneShutdown: {
      stop_.store(true);
      return "";
    }
    default:
      throw std::runtime_error("tuner daemon: unexpected verb " +
                               std::to_string(rq.verb));
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

int read_daemon_port(const std::string& state_dir, double deadline_s) {
  const std::string path = state_dir + "/port";
  const double deadline = core::monotonic_s() + deadline_s;
  while (true) {
    if (core::file_exists(path)) {
      const int port = std::atoi(core::read_file(path).c_str());
      if (port > 0) return port;
    }
    CRITTER_CHECK(core::monotonic_s() < deadline,
                  "tuner daemon did not publish " + path + " within " +
                      std::to_string(deadline_s) + "s");
    core::sleep_ms(10);
  }
}

bool is_tuner_daemon(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--tuner-daemon") == 0) return true;
  return false;
}

int tuner_daemon_main(int argc, char** argv) {
  DaemonOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--state-dir=", 0) == 0) opt.state_dir = a.substr(12);
    if (a.rfind("--port=", 0) == 0) opt.port = std::atoi(a.c_str() + 7);
  }
  if (opt.state_dir.empty()) {
    obs::log_error("usage: --tuner-daemon --state-dir=DIR [--port=N]");
    return 2;
  }
  return run_daemon(opt);
}

int run_daemon(const DaemonOptions& opt) {
  struct sigaction sa {};
  sa.sa_handler = daemon_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  try {
    TunerDaemon daemon(opt);
    std::printf("critter-tuner-daemon port=%d\n", daemon.port());
    std::fflush(stdout);
    while (!daemon.stopping() && g_daemon_terminate == 0) core::sleep_ms(20);
    // stop() flushes a final full checkpoint per session — the graceful
    // SIGTERM/SIGINT contract.
    daemon.stop();
  } catch (const std::exception& e) {
    obs::log_error("tuner daemon: %s", e.what());
    return 1;
  }
  return 0;
}

}  // namespace critter::serve
