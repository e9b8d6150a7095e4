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
  std::string manifest_text;  ///< the identity clients must agree on
  tune::Study study;
  tune::TuneOptions opt;
  StatSnapshot warm, prior;  ///< stable storage opt points into
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
  // side reads statistics, so TELL splices and journals without decoding a
  // table.  `state_gen` names the bytes — bumped exactly when they change,
  // so a client whose generation token matches holds these exact bytes and
  // ASK ships nothing.
  std::optional<dist::SessionJournal> journal;
  std::uint64_t state_gen = 1;

  // Wire accounting: request/reply payload bytes handled for this session,
  // and how many tells arrived as sparse patches (kTuneStatus surfaces
  // them; bench_tuner derives bytes_per_tell).
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t sparse_tells = 0;
};

// ---------------------------------------------------------------------------
// Construction / resume
// ---------------------------------------------------------------------------

TunerDaemon::TunerDaemon(DaemonOptions opt) : opt_(std::move(opt)) {
  CRITTER_CHECK(!opt_.state_dir.empty(), "tuner daemon needs a state directory");
  core::make_dir(opt_.state_dir);
  core::make_dir(opt_.state_dir + "/sessions");
  resume_sessions();
  listener_ = std::make_unique<net::Listener>(opt_.port);
  // Port file last: a reader that sees it can connect immediately.
  core::write_file_atomic(opt_.state_dir + "/port",
                          std::to_string(listener_->port()) + "\n");
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TunerDaemon::~TunerDaemon() { stop(); }

int TunerDaemon::port() const { return listener_->port(); }

bool TunerDaemon::stopping() const { return stop_.load(); }

void TunerDaemon::wait() {
  while (!stop_.load()) core::sleep_ms(20);
}

void TunerDaemon::stop() {
  // Runs once: the destructor calls stop() again after an explicit one,
  // and a second final flush would rewrite every slot for nothing — or
  // fail loudly once the owner has removed the state directory.
  std::call_once(stop_once_, [this] {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      threads.swap(conn_threads_);
    }
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
    if (listener_) listener_->close();
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
    const std::string& name) {
  auto s = std::make_unique<Session>();
  s->name = name;
  s->dir = opt_.state_dir + "/sessions/" + name;
  s->manifest_text = core::read_file(s->dir + "/manifest.txt");
  const dist::Manifest m = dist::parse_manifest(s->manifest_text);
  s->study = dist::rebuild_study(m);
  s->opt = dist::rebuild_options(m);
  if (dist::manifest_int(m, "warm_start") != 0) {
    s->warm = StatSnapshot::from_string(core::read_published(s->dir, "warm.snap"));
    s->opt.warm_start = &s->warm;
  }
  if (dist::manifest_int(m, "prior_snap") != 0) {
    s->prior =
        StatSnapshot::from_string(core::read_published(s->dir, "prior.snap"));
    s->opt.prior = &s->prior;
  }
  s->tuner = std::make_unique<tune::Tuner>(s->study, s->opt);

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
    s->journal->replay(*s->tuner);
    s->tuner->restore_totals(s->journal->state().totals);
  } else if (s->opt.warm_start != nullptr) {
    const StatSnapshot seeded = s->tuner->export_state();
    if (!seeded.empty()) s->journal->replace_bytes(seeded.to_string());
  }
  return s;
}

void TunerDaemon::resume_sessions() {
  for (const std::string& name :
       core::list_dir(opt_.state_dir + "/sessions")) {
    if (!valid_session_name(name)) continue;
    if (!core::file_exists(opt_.state_dir + "/sessions/" + name +
                           "/manifest.txt"))
      continue;  // a torn create never got its identity; nothing to resume
    sessions_[name] = load_session(name);
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
    const std::string warm = s.warm.empty() ? std::string() : s.warm.to_string();
    const std::string prior =
        s.prior.empty() ? std::string() : s.prior.to_string();
    CRITTER_CHECK(rq.warm == warm && rq.prior == prior,
                  "tune open: session '" + rq.session +
                      "' exists with different warm/prior snapshots");
    return s;
  }
  // Fresh session: persist the identity first (manifest + snapshots), then
  // build the in-memory state through the same loader a restart uses.
  const std::string dir = opt_.state_dir + "/sessions/" + rq.session;
  core::make_dir(dir);
  if (!rq.warm.empty()) core::publish_file(dir, "warm.snap", rq.warm);
  if (!rq.prior.empty()) core::publish_file(dir, "prior.snap", rq.prior);
  core::write_file_atomic(dir + "/manifest.txt", rq.manifest);
  auto s = load_session(rq.session);
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

void TunerDaemon::accept_loop() {
  while (!stop_.load()) {
    net::Connection conn = listener_->accept(0.2);
    if (!conn.valid()) continue;
    const std::uint64_t id = next_conn_id_.fetch_add(1);
    std::lock_guard<std::mutex> lk(conn_mu_);
    conn_threads_.emplace_back(
        [this, id](net::Connection c) { serve_connection(std::move(c), id); },
        std::move(conn));
  }
}

void TunerDaemon::serve_connection(net::Connection conn,
                                   std::uint64_t conn_id) {
  const double deadline = opt_.op_deadline_s;
  try {
    net::Frame hello = net::recv_frame(conn, deadline);
    if (hello.verb != net::kHello || hello.payload != kTuneService) {
      net::send_frame(conn, net::kErr, "tuner daemon: bad handshake",
                      deadline);
      release_claims(conn_id);
      return;
    }
    net::send_frame(conn, net::kOk, "", deadline);
    while (!stop_.load()) {
      if (!conn.readable(0.2)) continue;
      net::Frame rq;
      if (!net::recv_frame_opt(conn, rq, deadline)) break;
      net::Frame rp;
      try {
        rp = handle_request(rq, conn_id);
      } catch (const std::exception& e) {
        rp = {net::kErr, e.what()};
      }
      net::send_frame(conn, rp.verb, rp.payload, deadline);
      if (rq.verb == net::kTuneShutdown) break;
    }
  } catch (const std::exception&) {
    // A torn frame or timed-out peer ends this connection only; its claim
    // (if any) re-issues to the next asker below.
  }
  release_claims(conn_id);
}

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

net::Frame TunerDaemon::handle_request(const net::Frame& rq,
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
      return {net::kOk, encode_open_reply(rp)};
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
          return {net::kOk, payload};
        }
        const std::vector<int> batch = s.tuner->ask();
        if (batch.empty()) {
          rp.done = true;
          const std::string payload = encode_ask_reply(rp);
          s.bytes_out += static_cast<std::int64_t>(payload.size());
          return {net::kOk, payload};
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
      return {net::kOk, payload};
    }
    case net::kTuneTell: {
      obs::ScopedSpan span("serve.tell", "serve");
      ScopedHistTimer timer(obs::histogram("serve.tell_seconds"));
      obs::counter("serve.tells").add();
      core::WireReader r{rq.payload};
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
      // Three-way state field (serve/protocol.hpp): "" = statistics
      // unchanged; a mode-0 sparse patch against the generation the client
      // was shipped at ASK; or a full payload.  Either splices into the
      // session's bytes after a structural check — nothing is decoded, and
      // the session Tuner, which never reads statistics, imports nothing.
      // The journal record carries the field verbatim as its patch.
      dist::SessionJournal::Step step;
      if (!trq.state.empty()) {
        const bool sparse = core::is_sparse_payload(trq.state);
        CRITTER_CHECK(!sparse || trq.base_gen == s.state_gen,
                      "tune tell: sparse state patch against a stale "
                      "generation — re-ask and send full state");
        step.full_bytes =
            dist::patched_bytes(s.journal->state().full_bytes, trq.state);
        step.full_patch = std::move(trq.state);
        if (sparse) {
          ++s.sparse_tells;
          obs::counter("serve.tells.sparse").add();
        } else {
          obs::counter("serve.tells.full").add();
        }
        ++s.state_gen;
      }
      s.tuner->tell_evaluated(trq.outcomes, trq.totals);
      step.told.push_back({trq.batch, std::move(trq.outcomes)});
      journal_record(*s.journal, std::move(step), s.tuner->totals());
      s.claimed = false;
      s.owner = 0;
      s.batch.clear();
      s.cv.notify_all();
      const std::string payload = encode_tell_reply(s.state_gen);
      s.bytes_out += static_cast<std::int64_t>(payload.size());
      return {net::kOk, payload};
    }
    case net::kTuneExport: {
      Session& s = resolve_session(decode_session_ref(rq.payload));
      std::lock_guard<std::mutex> lk(s.mu);
      // The cache IS the serialized state (serialize ∘ parse is exact) —
      // no per-export re-serialization.
      return {net::kOk, s.journal->state().full_bytes};
    }
    case net::kTuneImport: {
      std::string name, snapshot;
      decode_import(rq.payload, &name, &snapshot);
      Session& s = resolve_session(name);
      std::lock_guard<std::mutex> lk(s.mu);
      s.bytes_in += static_cast<std::int64_t>(rq.payload.size());
      // from_string expands mode-1 sparse deltas; to_string canonicalizes
      // the bytes to the full binary payload either way.  import_state
      // enforces the before-the-first-ask rule.
      const StatSnapshot imported = StatSnapshot::from_string(snapshot);
      s.tuner->import_state(imported);
      // Out of band: the journal re-bases with a full slot at the next tell.
      s.journal->replace_bytes(imported.to_string());
      ++s.state_gen;
      return {net::kOk, ""};
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
      rp.sparse_tells = s.sparse_tells;
      rp.text = "session " + s.name + ": " + std::to_string(rp.tells) +
                " tells, " + std::to_string(rp.evaluated) + " evaluated" +
                (rp.done ? ", done" : "") +
                (rp.best_predicted >= 0
                     ? ", best=" + std::to_string(rp.best_predicted)
                     : "") +
                ", wire " + std::to_string(rp.bytes_in) + "B in/" +
                std::to_string(rp.bytes_out) + "B out, " +
                std::to_string(rp.sparse_tells) + " sparse tells";
      rp.metrics = obs::metrics_json();
      return {net::kOk, encode_status_reply(rp)};
    }
    case net::kTuneShutdown: {
      stop_.store(true);
      return {net::kOk, ""};
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
  std::string state_dir;
  int port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--state-dir=", 0) == 0) state_dir = a.substr(12);
    if (a.rfind("--port=", 0) == 0) port = std::atoi(a.c_str() + 7);
  }
  if (state_dir.empty()) {
    obs::log_error("usage: --tuner-daemon --state-dir=DIR [--port=N]");
    return 2;
  }
  struct sigaction sa {};
  sa.sa_handler = daemon_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  try {
    TunerDaemon daemon({state_dir, port});
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
