#include "dist/shard_session.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "tune/sweep.hpp"
#include "util/check.hpp"

namespace critter::dist {

namespace {

tune::TuneOptions in_range(tune::TuneOptions opt, const ShardRange& range) {
  opt.config_begin = range.begin;
  opt.config_end = range.end;
  return opt;
}

std::string bytes_of(const core::StatSnapshot& snap) {
  return snap.empty() ? std::string() : snap.to_string();
}

}  // namespace

ShardSession::ShardSession(const tune::Study& study,
                           const tune::TuneOptions& opt,
                           const ShardRange& range, int nshards, int every)
    : tuner_(study, in_range(opt, range)),
      range_(range),
      nshards_(nshards),
      every_(nshards > 1 && every > 0 ? every : 0) {
  if (!exchanging()) return;
  mark_ = exchange_state();
  own_ = mark_;
  mark_dirty_ = own_dirty_ = true;
}

core::StatSnapshot ShardSession::exchange_state() const {
  core::StatSnapshot s = tuner_.export_state();
  if (tune::resets_statistics(tuner_.options()))
    for (core::KernelTable& t : s.ranks) t.clear_statistics();
  return s;
}

bool ShardSession::step() {
  std::vector<int> batch = tuner_.ask();
  if (batch.empty()) {
    done_ = true;
    return false;
  }
  std::vector<tune::ConfigOutcome> outcomes = tuner_.evaluate(batch);
  tuner_.tell(outcomes);
  pending_.told.push_back({std::move(batch), std::move(outcomes)});
  ++batches_;
  ++in_round_;
  return true;
}

core::StatSnapshot ShardSession::take_delta() {
  core::StatSnapshot now = exchange_state();
  core::StatSnapshot delta = now.diff(mark_);
  if (!own_.empty())
    own_.merge(delta);
  else
    own_ = delta;
  mark_ = std::move(now);
  mark_dirty_ = own_dirty_ = true;
  return delta;
}

bool ShardSession::absorb(const core::StatSnapshot& delta) {
  if (delta.empty()) return false;
  tuner_.merge_state(delta);
  return true;
}

void ShardSession::skip(int peer) {
  pending_.skipped.emplace_back(rounds_, peer);
  ++skips_;
}

void ShardSession::end_round() {
  mark_ = exchange_state();
  mark_dirty_ = true;
  next_round();
}

void ShardSession::record(SessionJournal& journal) {
  pending_.rounds = rounds_;
  pending_.in_round = in_round_;
  pending_.full_bytes = bytes_of(tuner_.export_state());
  // mark/own are assigned only at exchange rounds (and when the session
  // starts or resumes): while neither was assigned since the last durable
  // record, the record skips their serialization.
  if (mark_dirty_) pending_.mark_bytes = bytes_of(mark_);
  if (own_dirty_) pending_.own_bytes = bytes_of(own_);
  journal.record(std::move(pending_), tuner_.totals());
  pending_ = {};
  mark_dirty_ = own_dirty_ = false;
}

bool ShardSession::resume(
    SessionJournal& journal,
    const std::function<core::StatSnapshot(int, int)>& read_peer,
    util::FunctionRef on_batch) {
  SessionJournal::Decoded decoded;
  if (!journal.resume(tuner_.study(), &decoded)) return false;
  const ShardCheckpoint& ck = journal.state();
  // The cursors advance as step() and end_round() advance them, and each
  // completed round hands the strategy the peer deltas it absorbed live.
  tuner_.resume(&decoded.full, ck.told, ck.totals, [&](int) {
    ++batches_;
    ++in_round_;
    if (on_batch) on_batch();
    std::vector<core::StatSnapshot> absorbed;
    if (!round_due()) return absorbed;
    for (int p = 0; p < nshards_; ++p) {
      const bool skipped = std::count(ck.skipped.begin(), ck.skipped.end(),
                                      std::pair{rounds_, p}) > 0;
      if (p == range_.index || skipped) continue;
      core::StatSnapshot delta = read_peer(p, rounds_);
      if (!delta.empty()) absorbed.push_back(std::move(delta));
    }
    next_round();
    return absorbed;
  });
  CRITTER_CHECK(batches_ == ck.batches && rounds_ == ck.rounds &&
                    in_round_ == ck.in_round,
                "checkpoint replay diverged: round cursors do not match");
  if (ck.has_exchange_state) {
    mark_ = std::move(decoded.mark);
    own_ = std::move(decoded.own);
    mark_dirty_ = own_dirty_ = true;
  }
  skips_ = ck.exchange_skips;
  resumed_batches_ = ck.batches;
  return true;
}

ShardResult ShardSession::result() const {
  const tune::TuneResult r = tuner_.result();
  ShardResult out;
  out.range = range_;
  out.outcomes.assign(r.per_config.begin() + range_.begin,
                      r.per_config.begin() + range_.end);
  out.totals.assign(r.per_config_totals.begin() + range_.begin,
                    r.per_config_totals.begin() + range_.end);
  out.mode = r.mode;
  out.strategy = r.strategy;
  out.effective_workers = r.effective_workers;
  out.batch = r.batch;
  out.fallback_reason = r.fallback_reason;
  out.evaluated = r.evaluated_configs;
  out.stats = exchanging() ? own_ : r.stats;
  out.phases = r.phases;
  out.exchange_rounds = rounds_;
  out.exchange_skips = skips_;
  out.resumed_batches = resumed_batches_;
  return out;
}

}  // namespace critter::dist
