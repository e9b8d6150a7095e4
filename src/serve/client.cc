#include "serve/client.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "dist/manifest.hpp"
#include "tune/evaluator.hpp"
#include "tune/sweep.hpp"
#include "util/check.hpp"

namespace critter::serve {

using core::StatSnapshot;

TunerClient::TunerClient(const tune::Study& study,
                         const tune::TuneOptions& opt, std::string session,
                         ClientOptions copt)
    : study_(study),
      opt_(opt),
      session_(std::move(session)),
      copt_(std::move(copt)) {
  CRITTER_CHECK(valid_session_name(session_),
                "invalid tuning session name '" + session_ + "'");
  // The session identity every participant must agree on, in the run-
  // manifest codec — generated from (study, options) so cooperating
  // clients produce it byte-identically.
  std::string manifest;
  dist::write_study_identity(manifest, study_,
                             dist::detect_paper_scale(study_));
  dist::write_tune_options(manifest, opt_);
  const bool warm = opt_.warm_start != nullptr && !opt_.warm_start->empty();
  const bool prior = opt_.prior != nullptr && !opt_.prior->empty();
  manifest += "warm_start=" + std::string(warm ? "1" : "0") + "\n";
  manifest += "prior_snap=" + std::string(prior ? "1" : "0") + "\n";
  OpenRequest orq;
  orq.session = session_;
  orq.manifest = std::move(manifest);
  if (warm) orq.warm = opt_.warm_start->to_string();
  if (prior) orq.prior = opt_.prior->to_string();
  open_payload_ = encode_open(orq);
  // The daemon owns the snapshots and the strategy from here on; the
  // mirror evaluates whole-study batches with state imported per ask, so
  // it runs the daemon's full range regardless of the caller's slicing.
  opt_.warm_start = nullptr;
  opt_.prior = nullptr;
  opt_.config_begin = 0;
  opt_.config_end = -1;
  mirror_ = std::make_unique<tune::SweepDriver>(study_, opt_);
}

TunerClient::~TunerClient() = default;

net::Client& TunerClient::connection() {
  if (conn_ != nullptr) return *conn_;
  // A (re)connect invalidates the generation cache: tokens are only
  // comparable within one daemon lifetime, and a restarted daemon restarts
  // them — the first ask after any reconnect must fetch full state.
  held_state_.clear();
  held_gen_ = 0;
  auto conn = std::make_unique<net::Client>(copt_.host, copt_.port,
                                            kTuneService,
                                            copt_.connect_deadline_s,
                                            copt_.op_deadline_s);
  const OpenReply rp =
      decode_open_reply(conn->request(net::kTuneOpen, open_payload_));
  CRITTER_CHECK(rp.nconfigs == static_cast<std::int32_t>(study_.configs.size()),
                "tuner daemon session disagrees about the study size");
  conn_ = std::move(conn);
  return *conn_;
}

ClientReport TunerClient::run() {
  ClientReport rep;
  const int nconf = static_cast<int>(study_.configs.size());
  double backoff = copt_.backoff_initial_s;
  int consecutive_failures = 0;
  while (true) {
    if (copt_.max_batches > 0 && rep.tells >= copt_.max_batches) break;
    try {
      net::Client& conn = connection();
      double t0 = core::monotonic_s();
      AskRequest arq;
      arq.session = session_;
      arq.have_gen = held_gen_;
      const std::string arf =
          conn.request(net::kTuneAsk, encode_ask_request(arq));
      rep.ask_tell_wall_s += core::monotonic_s() - t0;
      ++rep.asks;
      ++lifetime_asks_;
      if (copt_.drop_after_asks > 0 &&
          lifetime_asks_ >= copt_.drop_after_asks) {
        // Injected churn: walk away with the claim open; the daemon must
        // re-issue it unchanged.
        conn_.reset();
        rep.dropped = true;
        break;
      }
      const AskReply ar = decode_ask_reply(arf);
      if (ar.done) {
        rep.done = true;
        break;
      }
      // Mirror Tuner::evaluate(): import the session statistics the claim
      // was issued against, run the batch under the issued hints, and
      // extract exactly what the evaluation grew/accumulated.  Mode 0
      // means the daemon verified our generation token: the mirror already
      // holds these exact bytes from the previous iteration — no payload,
      // no parse, no import (the steady-state single-client fast path).
      if (ar.state_mode != 0) {
        if (!ar.state.empty()) {
          const StatSnapshot state = StatSnapshot::from_string(ar.state);
          if (!state.empty()) mirror_->import_stats(state);
        }
        held_state_ = ar.state;
        held_gen_ = ar.state_gen;
      }
      std::vector<tune::ConfigOutcome> out(
          static_cast<std::size_t>(nconf));
      for (int i = 0; i < nconf; ++i)
        out[static_cast<std::size_t>(i)].config =
            study_.configs[static_cast<std::size_t>(i)];
      std::vector<tune::ConfigTotals> tot(static_cast<std::size_t>(nconf));
      mirror_->run_batch(ar.batch, ar.control, out, tot);
      TellRequest trq;
      trq.session = session_;
      trq.batch = ar.batch;
      for (int pos : ar.batch) {
        trq.outcomes.push_back(out[static_cast<std::size_t>(pos)]);
        trq.totals.push_back(tot[static_cast<std::size_t>(pos)]);
      }
      // Ship the post-evaluation state whole — bytes, never a stats diff,
      // whose merge round trip drifts by ulps — or nothing when its bytes
      // are the ones the daemon issued the claim against.
      const StatSnapshot after = mirror_->stats();
      std::string after_bytes;
      if (!after.empty()) after_bytes = after.to_string();
      if (after_bytes != held_state_) trq.state = std::move(after_bytes);
      t0 = core::monotonic_s();
      const std::string trf = conn.request(net::kTuneTell, encode_tell(trq));
      rep.ask_tell_wall_s += core::monotonic_s() - t0;
      held_gen_ = decode_tell_reply(trf);
      if (!trq.state.empty()) held_state_ = std::move(trq.state);
      ++rep.tells;
      consecutive_failures = 0;
      backoff = copt_.backoff_initial_s;
    } catch (const std::exception& e) {
      // Abandon the in-flight operation and restart from ASK: if the tell
      // landed, the re-ask claims the next batch; if not, the orphaned one
      // re-issues and re-evaluates to the identical result.
      conn_.reset();
      ++rep.reconnects;
      if (++consecutive_failures > copt_.max_reconnects)
        throw std::runtime_error(
            "tuner client: giving up after " +
            std::to_string(consecutive_failures) +
            " consecutive failures — last: " + e.what());
      core::sleep_ms(static_cast<int>(backoff * 1000));
      backoff = std::min(backoff * 2, copt_.backoff_max_s);
    }
  }
  return rep;
}

std::string TunerClient::export_stats() {
  return connection().request(net::kTuneExport,
                              encode_session_ref(session_));
}

StatusReply TunerClient::status() {
  return decode_status_reply(
      connection().request(net::kTuneStatus, encode_session_ref(session_)));
}

}  // namespace critter::serve
