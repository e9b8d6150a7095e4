#include "serve/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "core/wire_codec.hpp"
#include "dist/checkpoint.hpp"
#include "dist/manifest.hpp"
#include "dist/wire.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tune/evaluator.hpp"
#include "tune/strategy.hpp"
#include "tune/sweep.hpp"
#include "util/check.hpp"

namespace critter::serve {

using core::StatSnapshot;
using dist::ShardCheckpoint;
using dist::ShardRange;

namespace {

volatile std::sig_atomic_t g_daemon_terminate = 0;
void daemon_signal_handler(int) { g_daemon_terminate = 1; }

// ---------------------------------------------------------------------------
// CRJTELL2: the daemon's incremental journal record
// ---------------------------------------------------------------------------
//
// One record per tell between full checkpoint slots, appended framed
// (dist::frame_log_record) to <session>/ckpt_log.bin:
//
//   [8B magic "CRJTELL2"] [i64 seq]
//   [i32 k] k × { [i32 position] [outcome] [totals] }
//   [i64 blob_len] [state blob]
//
// The state blob is the TELL's wire state field *verbatim*: "" (statistics
// unchanged), a mode-0 sparse patch whose base is the session state after
// the previous record — exactly what the telling client patched against —
// or a full payload (wholesale replacement).  Resume splices the blobs
// in sequence onto the base slot's serialized statistics, so no
// re-encoding happens on either the journal or the resume path and the
// reconstructed bytes are the live daemon's to the last bit.  Totals are
// absolute post-tell values for the batch's positions (the only ones a
// tell touches) — replay overwrites.  Version 2 records sit in
// util::checksum64 log frames and carry checksum64 chunks; a version-1 log
// fails its first frame check and replays nothing.
//
// The magic is deliberately not CRCKINC*: dist::load_latest_checkpoint
// applies any log it finds as shard increments, and the first CRJTELL2
// record fails that parse — ending the (empty) increment prefix — so the
// shared loader returns the base slot untouched and the daemon replays the
// log itself.

constexpr char kTellRecordMagic[8] = {'C', 'R', 'J', 'T', 'E', 'L', 'L', '2'};

/// Full-slot cadence: the journal replays at most this many records, and
/// the log holds at most this many state blobs before it is truncated by
/// the next full slot.
constexpr int kTellsPerFull = 16;

struct TellRecord {
  std::int64_t seq = 0;
  ShardCheckpoint::ToldBatch told;
  std::vector<std::pair<int, tune::ConfigTotals>> totals;
  std::string state_blob;
};

std::string encode_tell_record(std::int64_t seq,
                               const ShardCheckpoint::ToldBatch& tb,
                               const std::vector<tune::ConfigTotals>& all_totals,
                               const std::string& state_blob) {
  core::WireWriter w;
  w.raw(kTellRecordMagic, 8);
  w.i64(seq);
  w.i32(static_cast<std::int32_t>(tb.positions.size()));
  for (std::size_t j = 0; j < tb.positions.size(); ++j) {
    const int pos = tb.positions[j];
    w.i32(pos);
    dist::write_outcome(w, tb.outcomes[j]);
    dist::write_totals(w, all_totals[static_cast<std::size_t>(pos)]);
  }
  w.i64(static_cast<std::int64_t>(state_blob.size()));
  w.raw(state_blob.data(), state_blob.size());
  return w.out;
}

bool is_tell_record(const std::string& payload) {
  return payload.size() >= 8 &&
         std::memcmp(payload.data(), kTellRecordMagic, 8) == 0;
}

/// Parse and validate one unframed CRJTELL2 payload.  Throws on anything
/// implausible — the caller treats a bad record as the end of the valid
/// log prefix, exactly like a torn frame.
TellRecord parse_tell_record(const std::string& payload,
                             const tune::Study& study) {
  CRITTER_CHECK(is_tell_record(payload), "tell journal record: bad magic");
  const int nconfigs = static_cast<int>(study.configs.size());
  core::WireReader r{payload};
  r.pos = 8;
  TellRecord rec;
  rec.seq = r.i64();
  CRITTER_CHECK(rec.seq > 0, "tell journal record: bad sequence number");
  const std::int32_t k = r.i32();
  CRITTER_CHECK(k > 0 && k <= nconfigs,
                "tell journal record: implausible batch size");
  rec.told.positions.resize(static_cast<std::size_t>(k));
  rec.told.outcomes.resize(static_cast<std::size_t>(k));
  rec.totals.resize(static_cast<std::size_t>(k));
  int prev = -1;
  for (std::int32_t j = 0; j < k; ++j) {
    const std::int32_t pos = r.i32();
    CRITTER_CHECK(pos > prev && pos < nconfigs,
                  "tell journal record: positions not ascending in-range");
    prev = pos;
    rec.told.positions[static_cast<std::size_t>(j)] = pos;
    rec.told.outcomes[static_cast<std::size_t>(j)].config =
        study.configs[static_cast<std::size_t>(pos)];
    dist::read_outcome(r, rec.told.outcomes[static_cast<std::size_t>(j)],
                       "tell journal record");
    rec.totals[static_cast<std::size_t>(j)].first = pos;
    dist::read_totals(r, rec.totals[static_cast<std::size_t>(j)].second);
  }
  const std::int64_t blob_len = r.i64();
  CRITTER_CHECK(blob_len >= 0 &&
                    r.pos + static_cast<std::size_t>(blob_len) ==
                        payload.size(),
                "tell journal record: bad state blob length");
  rec.state_blob.assign(payload.data() + r.pos,
                        static_cast<std::size_t>(blob_len));
  return rec;
}

/// Apply one TELL state blob to a session's serialized statistics — the
/// live TELL handler and journal replay share it.  "" leaves the bytes
/// unchanged; a sparse patch splices onto them; a full payload replaces
/// them.  Either way every incoming chunk is checked with the decoder's
/// structural rules, and no table is ever built.
void splice_state_blob(std::string& state_bytes, const std::string& blob) {
  if (blob.empty()) return;  // statistics unchanged at this tell
  if (core::is_sparse_payload(blob)) {
    state_bytes = core::apply_sparse_patch(state_bytes, blob);
    return;
  }
  core::check_snapshot_payload(blob);
  state_bytes = blob;  // full payload: wholesale replacement
}

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

  // Authoritative serialized session statistics (DESIGN.md §13): "" while
  // empty, otherwise the exact full binary payload.  The daemon holds them
  // only as bytes — no strategy on this side reads statistics, so TELL
  // splices and journals without decoding a table.  `state_gen` names the
  // bytes — bumped exactly when they change, so a client whose generation
  // token matches holds these exact bytes and ASK ships nothing.
  std::string state_bytes;
  std::uint64_t state_gen = 1;

  // Journal bookkeeping, in the shard worker's checkpoint format with no
  // exchange state — a daemon session has no peers.  Full slots every
  // kTellsPerFull tells; CRJTELL2 records in ckpt_log.bin in between.
  std::vector<ShardCheckpoint::ToldBatch> told;
  std::int64_t seq = 0;
  std::int64_t base_seq = 0;  ///< seq of the newest full slot on disk
  std::string next_full_slot = "ckpt_a.bin";
  /// Next journal_tell must write a full slot: set when an out-of-band
  /// state change (kTuneImport) or a resumed/stale increment log would
  /// leave log records splicing onto the wrong base.
  bool force_full_slot = false;

  // Wire accounting: request/reply payload bytes handled for this session,
  // and how many tells arrived as sparse patches (kTuneStatus surfaces
  // them; bench_tuner derives bytes_per_tell).
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t sparse_tells = 0;

  ShardRange range() const {
    return {0, 0, static_cast<int>(study.configs.size())};
  }
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
    // Final flush: a full checkpoint per session, so a restart resumes from
    // here without replaying any increment log.
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (auto& [name, s] : sessions_) {
      std::lock_guard<std::mutex> slk(s->mu);
      try {
        flush_session(*s);
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

  // Journal replay: the best full slot, then the longest valid CRJTELL2
  // prefix of ckpt_log.bin on top — seq-continuous records whose state
  // blobs byte-splice in sequence onto the slot's serialized statistics,
  // which the session keeps as bytes.  Asks are a pure function of told
  // outcomes and ingested priors, so the resumed strategy re-proposes
  // exactly the recorded batches — anything else is a divergence bug, not
  // a degraded resume.  A session with no slot starts from its warm
  // start: the state the in-process Tuner holds after construction, so
  // the first ASK ships it to the evaluating client.
  ShardCheckpoint ck;
  std::int64_t base_seq = 0;
  std::string base_slot;
  if (dist::load_latest_checkpoint(s->dir, s->study, s->range(), &ck,
                                   &base_seq, &base_slot)) {
    s->told = std::move(ck.told);
    s->seq = ck.seq;
    s->base_seq = ck.seq;
    s->state_bytes = std::move(ck.full_bytes);
    std::vector<tune::ConfigTotals> totals(ck.totals.begin(), ck.totals.end());
    const std::string log_path = s->dir + "/ckpt_log.bin";
    if (core::file_exists(log_path)) {
      // Whatever the log holds, the next journaled tell starts a fresh
      // full slot: appending after a stale or partially-replayed log would
      // strand the new records behind a broken prefix on the next resume.
      s->force_full_slot = true;
      std::int64_t prev_seq = ck.seq;
      for (const std::string& payload :
           dist::scan_log_records(core::read_file(log_path))) {
        TellRecord rec;
        try {
          rec = parse_tell_record(payload, s->study);
          CRITTER_CHECK(rec.seq == prev_seq + 1,
                        "tell journal record out of sequence");
          splice_state_blob(s->state_bytes, rec.state_blob);
        } catch (const std::exception&) {
          break;  // torn/stale tail: everything before it is consistent
        }
        prev_seq = rec.seq;
        for (const auto& [pos, t] : rec.totals)
          totals[static_cast<std::size_t>(pos)] = t;
        s->told.push_back(std::move(rec.told));
        s->seq = rec.seq;
      }
    }
    for (const ShardCheckpoint::ToldBatch& tb : s->told) {
      const std::vector<int> b = s->tuner->ask();
      CRITTER_CHECK(b == tb.positions,
                    "session journal replay diverged: the resumed strategy "
                    "proposed a different batch");
      s->tuner->tell(tb.outcomes);
    }
    s->tuner->restore_totals(std::move(totals));
    s->next_full_slot =
        base_slot == "ckpt_a.bin" ? "ckpt_b.bin" : "ckpt_a.bin";
  } else if (s->opt.warm_start != nullptr) {
    const StatSnapshot seeded = s->tuner->export_state();
    if (!seeded.empty()) s->state_bytes = seeded.to_string();
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
// Journal
// ---------------------------------------------------------------------------

void TunerDaemon::journal_tell(Session& s, const std::string& state_blob) {
  ScopedHistTimer flush_timer(obs::histogram("serve.journal_flush_seconds"));
  // Between full slots, one constant-sized CRJTELL2 record per tell: the
  // told batch, its totals, and the TELL's state blob verbatim — the
  // sparse patch a client sent splices on resume exactly as it spliced
  // live, so the journal stays bitwise without re-serializing the whole
  // session state per tell (the original full-checkpoint-per-tell scheme
  // cost O(tells²) journal bytes; DESIGN.md §13).  Every kTellsPerFull
  // tells a full slot re-bases the log: `s.state_bytes` is already the
  // serialized statistics, so even the full slot serializes no snapshot.
  ++s.seq;
  const bool full_slot = s.base_seq == 0 || s.force_full_slot ||
                         s.seq - s.base_seq >= kTellsPerFull;
  if (!full_slot) {
    core::append_file(s.dir + "/ckpt_log.bin",
                      dist::frame_log_record(encode_tell_record(
                          s.seq, s.told.back(), s.tuner->totals(),
                          state_blob)));
    return;
  }
  ShardCheckpoint c;
  c.seq = s.seq;
  c.batches = static_cast<int>(s.told.size());
  c.rounds = 0;
  c.in_round = c.batches;  // the non-exchanging worker's cursor shape
  c.told = s.told;
  c.totals = s.tuner->totals();
  c.full_bytes = s.state_bytes;  // written verbatim: no re-serialization
  const std::string slot = s.next_full_slot;
  core::publish_file(s.dir, slot, dist::serialize_checkpoint(c));
  // Only after the new base is fully published: drop the increment log
  // extending the previous base (a crash in between resumes from whichever
  // base survives; a stale log fails seq continuity and is ignored).
  ::remove((s.dir + "/ckpt_log.bin").c_str());
  s.base_seq = s.seq;
  s.force_full_slot = false;
  s.next_full_slot = slot == "ckpt_a.bin" ? "ckpt_b.bin" : "ckpt_a.bin";
}

void TunerDaemon::flush_session(Session& s) {
  // A flush must be self-contained — it covers sessions opened (or
  // resumed) but not told since, and the final slot a restart resumes
  // from — so it always forces a full slot (there is no freshly told
  // batch to journal incrementally).
  s.force_full_slot = true;
  journal_tell(s, "");
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
      rp.tells = static_cast<std::int32_t>(s.told.size());
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
        rp.state = s.state_bytes;  // "" = empty statistics, skip import
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
      if (!trq.state.empty()) {
        const bool sparse = core::is_sparse_payload(trq.state);
        CRITTER_CHECK(!sparse || trq.base_gen == s.state_gen,
                      "tune tell: sparse state patch against a stale "
                      "generation — re-ask and send full state");
        splice_state_blob(s.state_bytes, trq.state);
        if (sparse) {
          ++s.sparse_tells;
          obs::counter("serve.tells.sparse").add();
        } else {
          obs::counter("serve.tells.full").add();
        }
        ++s.state_gen;
      }
      s.tuner->tell_evaluated(trq.outcomes, trq.totals);
      s.told.push_back({trq.batch, std::move(trq.outcomes)});
      journal_tell(s, trq.state);
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
      return {net::kOk, s.state_bytes};
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
      s.state_bytes = imported.to_string();
      ++s.state_gen;
      // Out-of-band state change between full slots: journal records after
      // it would splice onto bytes no resume can reconstruct — force the
      // next journaled tell to re-base with a full slot.
      s.force_full_slot = true;
      return {net::kOk, ""};
    }
    case net::kTuneStatus: {
      Session& s = resolve_session(decode_session_ref(rq.payload));
      std::lock_guard<std::mutex> lk(s.mu);
      StatusReply rp;
      rp.done = s.tuner->done();
      rp.tells = static_cast<std::int32_t>(s.told.size());
      for (const ShardCheckpoint::ToldBatch& tb : s.told)
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
