#include "dist/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "core/fsio.hpp"
#include "dist/wire.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter::dist {

namespace {

// Version 02: the trailer is util::checksum64.  The magic is checked before
// the trailer, so a version-01 slot fails as "bad magic", not as corrupt.
constexpr char kCheckpointMagic[8] = {'C', 'R', 'C', 'K', 'P', 'T', '0', '2'};

/// A length-prefixed byte blob: a snapshot payload or a patch field.
void write_blob(WireWriter& w, const std::string& bytes) {
  w.i64(static_cast<std::int64_t>(bytes.size()));
  w.raw(bytes.data(), bytes.size());
}

std::string read_blob(WireReader& r) {
  const std::int64_t len = r.i64();
  CRITTER_CHECK(len >= 0, std::string(r.what) + ": negative blob length");
  return std::string(r.bytes(static_cast<std::size_t>(len)));
}

core::StatSnapshot decode_or_empty(const std::string& bytes) {
  if (bytes.empty()) return {};
  return core::StatSnapshot::from_string(bytes);
}

// Skips and told batches are encoded the same way in slots and increments.

void write_skips(WireWriter& w,
                 const std::vector<std::pair<int, int>>& skipped) {
  w.i32(static_cast<std::int32_t>(skipped.size()));
  for (const auto& [round, peer] : skipped) {
    w.i32(round);
    w.i32(peer);
  }
}

void write_told(WireWriter& w,
                const std::vector<ShardCheckpoint::ToldBatch>& told) {
  w.i32(static_cast<std::int32_t>(told.size()));
  for (const ShardCheckpoint::ToldBatch& b : told) {
    w.i32(static_cast<std::int32_t>(b.positions.size()));
    for (std::size_t k = 0; k < b.positions.size(); ++k) {
      w.i32(b.positions[k]);
      write_outcome(w, b.outcomes[k]);
    }
  }
}

/// At most `max` (round, peer) skips, none naming this shard.
std::vector<std::pair<int, int>> read_skips(WireReader& r, int max,
                                            const ShardRange& range,
                                            const char* what) {
  const std::int32_t n = r.i32();
  CRITTER_CHECK(n >= 0 && n <= max &&
                    static_cast<std::size_t>(n) <= r.remaining() / 8,
                std::string(what) + ": implausible skip list");
  std::vector<std::pair<int, int>> skipped;
  skipped.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t round = r.i32();
    const std::int32_t peer = r.i32();
    CRITTER_CHECK(round >= 0 && peer >= 0 && peer != range.index,
                  std::string(what) + ": implausible skip entry");
    skipped.emplace_back(round, peer);
  }
  return skipped;
}

/// At most `max` told batches, their positions ascending inside `range`.
std::vector<ShardCheckpoint::ToldBatch> read_told(WireReader& r, int max,
                                                  const tune::Study& study,
                                                  const ShardRange& range,
                                                  const char* what) {
  const std::int32_t ntold = r.i32();
  CRITTER_CHECK(ntold >= 0 && ntold <= max &&
                    static_cast<std::size_t>(ntold) <= r.remaining() / 4,
                std::string(what) + ": implausible batch count");
  std::vector<ShardCheckpoint::ToldBatch> told(
      static_cast<std::size_t>(ntold));
  const int nconf = static_cast<int>(study.configs.size());
  for (ShardCheckpoint::ToldBatch& tb : told) {
    const std::int32_t k = r.i32();
    CRITTER_CHECK(k > 0 && k <= nconf,
                  std::string(what) + ": implausible batch");
    tb.positions.resize(static_cast<std::size_t>(k));
    tb.outcomes.resize(static_cast<std::size_t>(k));
    for (std::int32_t j = 0; j < k; ++j) {
      const std::int32_t pos = r.i32();
      CRITTER_CHECK(pos >= range.begin && pos < range.end && pos < nconf &&
                        (j == 0 || tb.positions[j - 1] < pos),
                    std::string(what) +
                        ": batch position outside the shard range or out "
                        "of order");
      tb.positions[static_cast<std::size_t>(j)] = pos;
      tb.outcomes[static_cast<std::size_t>(j)].config = study.configs[pos];
      read_outcome(r, tb.outcomes[static_cast<std::size_t>(j)], what);
    }
  }
  return told;
}

}  // namespace

std::string serialize_checkpoint(const ShardCheckpoint& c) {
  WireWriter w;
  w.raw(kCheckpointMagic, sizeof kCheckpointMagic);
  w.i64(c.seq);
  w.i32(c.batches);
  w.i32(c.rounds);
  w.i32(c.in_round);
  w.i32(c.exchange_skips);
  write_skips(w, c.skipped);
  write_told(w, c.told);
  w.i32(static_cast<std::int32_t>(c.totals.size()));
  for (const tune::ConfigTotals& t : c.totals) write_totals(w, t);
  w.u8(c.has_exchange_state ? 1 : 0);
  write_blob(w, c.full_bytes);
  if (c.has_exchange_state) {
    write_blob(w, c.mark_bytes);
    write_blob(w, c.own_bytes);
  }
  // Payload-level checksum: the publish manifest already guards the file in
  // transit, this trailer guards the bytes at the source — any flip or
  // truncation is rejected before a single field is trusted.
  const std::uint64_t sum = util::checksum64(w.out.data(), w.out.size());
  w.raw(&sum, sizeof sum);
  return std::move(w.out);
}

ShardCheckpoint parse_checkpoint(const std::string& payload,
                                 const tune::Study& study,
                                 const ShardRange& range) {
  CRITTER_CHECK(payload.size() >= sizeof kCheckpointMagic + 8,
                "shard checkpoint: payload too short");
  WireReader r{payload, "shard checkpoint"};
  char magic[sizeof kCheckpointMagic];
  r.raw(magic, sizeof magic);
  CRITTER_CHECK(std::memcmp(magic, kCheckpointMagic, sizeof magic) == 0,
                "shard checkpoint: bad magic");
  std::uint64_t declared = 0;
  std::memcpy(&declared, payload.data() + payload.size() - 8, 8);
  CRITTER_CHECK(util::checksum64(payload.data(), payload.size() - 8) ==
                    declared,
                "shard checkpoint: checksum trailer mismatch (corrupt or "
                "torn checkpoint)");
  ShardCheckpoint c;
  c.seq = r.i64();
  c.batches = r.i32();
  c.rounds = r.i32();
  c.in_round = r.i32();
  c.exchange_skips = r.i32();
  CRITTER_CHECK(c.seq >= 1 && c.batches >= 0 && c.rounds >= 0 &&
                    c.in_round >= 0 && c.exchange_skips >= 0,
                "shard checkpoint: implausible cursors");
  c.skipped = read_skips(r, c.exchange_skips, range, "shard checkpoint");
  c.told = read_told(r, c.batches, study, range, "shard checkpoint");
  CRITTER_CHECK(static_cast<int>(c.told.size()) == c.batches,
                "shard checkpoint: told-batch count does not match the "
                "cursor");
  const std::int32_t ntotals = r.i32();
  CRITTER_CHECK(ntotals == range.end - range.begin,
                "shard checkpoint: totals do not cover the shard range");
  c.totals.resize(static_cast<std::size_t>(ntotals));
  for (std::int32_t i = 0; i < ntotals; ++i)
    read_totals(r, c.totals[static_cast<std::size_t>(i)]);
  c.has_exchange_state = r.u8() != 0;
  c.full_bytes = read_blob(r);
  if (c.has_exchange_state) {
    c.mark_bytes = read_blob(r);
    c.own_bytes = read_blob(r);
  }
  CRITTER_CHECK(r.remaining() == 8,
                "shard checkpoint: trailing garbage");
  c.full = decode_or_empty(c.full_bytes);
  c.mark = decode_or_empty(c.mark_bytes);
  c.own = decode_or_empty(c.own_bytes);
  return c;
}

namespace {

// Version 2: the statistics fields switched from StatSnapshot::diff deltas
// (merged back on resume) to byte patches (spliced on resume).  Version 3:
// the log frames and the snapshot chunks the patches carry are checksummed
// with util::checksum64.  An older log cannot extend a CRCKINC3 reader's
// base — its frames fail the scan or parse_increment rejects the old
// magic, SessionJournal::resume stops at the first unreadable record, and
// the resume costs at most the increments since the last full slot.
constexpr char kIncrementMagic[8] = {'C', 'R', 'C', 'K', 'I', 'N', 'C', '3'};

std::string read_patch_blob(WireReader& r) {
  std::string out = read_blob(r);
  // Shape check only ("" / sparse / full snapshot payload); the chunk-level
  // validation happens when apply_increment splices and re-decodes.
  CRITTER_CHECK(out.empty() || core::is_sparse_payload(out) ||
                    out.front() == 'C',
                "checkpoint increment: patch blob is neither empty, sparse, "
                "nor a snapshot payload");
  return out;
}

}  // namespace

std::string serialize_increment(const CheckpointIncrement& inc) {
  WireWriter w;
  w.raw(kIncrementMagic, sizeof kIncrementMagic);
  w.i64(inc.base_seq);
  w.i64(inc.seq);
  w.i32(inc.batches);
  w.i32(inc.rounds);
  w.i32(inc.in_round);
  w.i32(inc.exchange_skips);
  write_skips(w, inc.new_skipped);
  write_told(w, inc.new_told);
  w.i32(static_cast<std::int32_t>(inc.dirty_totals.size()));
  for (const auto& [idx, t] : inc.dirty_totals) {
    w.i32(idx);
    write_totals(w, t);
  }
  w.u8(inc.has_exchange_state ? 1 : 0);
  write_blob(w, inc.full_patch);
  if (inc.has_exchange_state) {
    write_blob(w, inc.mark_patch);
    write_blob(w, inc.own_patch);
  }
  return std::move(w.out);
}

CheckpointIncrement parse_increment(const std::string& payload,
                                    const tune::Study& study,
                                    const ShardRange& range) {
  WireReader r{payload, "checkpoint increment"};
  char magic[sizeof kIncrementMagic];
  r.raw(magic, sizeof magic);
  CRITTER_CHECK(std::memcmp(magic, kIncrementMagic, sizeof magic) == 0,
                "checkpoint increment: bad magic");
  CheckpointIncrement inc;
  inc.base_seq = r.i64();
  inc.seq = r.i64();
  inc.batches = r.i32();
  inc.rounds = r.i32();
  inc.in_round = r.i32();
  inc.exchange_skips = r.i32();
  CRITTER_CHECK(inc.base_seq >= 1 && inc.seq > inc.base_seq &&
                    inc.batches >= 0 && inc.rounds >= 0 && inc.in_round >= 0 &&
                    inc.exchange_skips >= 0,
                "checkpoint increment: implausible cursors");
  inc.new_skipped =
      read_skips(r, inc.exchange_skips, range, "checkpoint increment");
  inc.new_told = read_told(r, inc.batches, study, range,
                           "checkpoint increment");
  const std::int32_t ndirty = r.i32();
  const std::int32_t nrange = range.end - range.begin;
  CRITTER_CHECK(ndirty >= 0 && ndirty <= nrange,
                "checkpoint increment: implausible dirty-totals count");
  inc.dirty_totals.resize(static_cast<std::size_t>(ndirty));
  for (std::int32_t i = 0; i < ndirty; ++i) {
    const std::int32_t idx = r.i32();
    CRITTER_CHECK(idx >= 0 && idx < nrange &&
                      (i == 0 || inc.dirty_totals[i - 1].first < idx),
                  "checkpoint increment: dirty-totals index outside the "
                  "shard range or out of order");
    inc.dirty_totals[static_cast<std::size_t>(i)].first = idx;
    read_totals(r, inc.dirty_totals[static_cast<std::size_t>(i)].second);
  }
  inc.has_exchange_state = r.u8() != 0;
  inc.full_patch = read_patch_blob(r);
  if (inc.has_exchange_state) {
    inc.mark_patch = read_patch_blob(r);
    inc.own_patch = read_patch_blob(r);
  }
  CRITTER_CHECK(r.done(), "checkpoint increment: trailing garbage");
  return inc;
}

namespace {

/// Move an increment's cursors, new batches, new skips and dirty totals
/// into `ck` — everything but the statistics payloads.
void advance(ShardCheckpoint& ck, CheckpointIncrement&& inc) {
  ck.seq = inc.seq;
  ck.batches = inc.batches;
  ck.rounds = inc.rounds;
  ck.in_round = inc.in_round;
  ck.exchange_skips = inc.exchange_skips;
  ck.skipped.insert(ck.skipped.end(), inc.new_skipped.begin(),
                    inc.new_skipped.end());
  for (ShardCheckpoint::ToldBatch& tb : inc.new_told)
    ck.told.push_back(std::move(tb));
  for (auto& [idx, t] : inc.dirty_totals)
    ck.totals[static_cast<std::size_t>(idx)] = t;
}

}  // namespace

void apply_increment(ShardCheckpoint& ck, std::int64_t base_seq,
                     CheckpointIncrement&& inc) {
  CRITTER_CHECK(inc.base_seq == base_seq,
                "checkpoint increment: extends a different base checkpoint");
  CRITTER_CHECK(inc.seq == ck.seq + 1, "checkpoint increment: sequence gap");
  CRITTER_CHECK(inc.batches ==
                    ck.batches + static_cast<int>(inc.new_told.size()),
                "checkpoint increment: batch cursor does not add up");
  CRITTER_CHECK(inc.exchange_skips ==
                    ck.exchange_skips + static_cast<int>(inc.new_skipped.size()),
                "checkpoint increment: skip cursor does not add up");
  CRITTER_CHECK(inc.rounds >= ck.rounds,
                "checkpoint increment: round cursor went backwards");
  CRITTER_CHECK(inc.has_exchange_state == ck.has_exchange_state,
                "checkpoint increment: exchange-state flag mismatch");
  for (const auto& [idx, t] : inc.dirty_totals)
    CRITTER_CHECK(static_cast<std::size_t>(idx) < ck.totals.size(),
                  "checkpoint increment: dirty-totals index out of range");
  // Resolve every byte patch (and re-decode the results — which validates
  // each spliced payload chunk by chunk) before mutating anything, so a
  // patch that does not fit its base leaves `ck` untouched.
  std::string full_bytes = patched_bytes(ck.full_bytes, inc.full_patch);
  std::string mark_bytes, own_bytes;
  if (inc.has_exchange_state) {
    mark_bytes = patched_bytes(ck.mark_bytes, inc.mark_patch);
    own_bytes = patched_bytes(ck.own_bytes, inc.own_patch);
  }
  core::StatSnapshot full, mark, own;
  if (!inc.full_patch.empty()) full = decode_or_empty(full_bytes);
  if (!inc.mark_patch.empty()) mark = decode_or_empty(mark_bytes);
  if (!inc.own_patch.empty()) own = decode_or_empty(own_bytes);
  advance(ck, std::move(inc));
  ck.full_bytes = std::move(full_bytes);
  if (!inc.full_patch.empty()) ck.full = std::move(full);
  if (inc.has_exchange_state) {
    ck.mark_bytes = std::move(mark_bytes);
    ck.own_bytes = std::move(own_bytes);
    if (!inc.mark_patch.empty()) ck.mark = std::move(mark);
    if (!inc.own_patch.empty()) ck.own = std::move(own);
  }
}

std::string frame_log_record(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  const std::uint64_t len = payload.size();
  const std::uint64_t sum = util::checksum64(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&len), 8);
  out.append(reinterpret_cast<const char*>(&sum), 8);
  out.append(payload);
  return out;
}

std::vector<std::string> scan_log_records(const std::string& blob) {
  std::vector<std::string> records;
  std::size_t pos = 0;
  while (blob.size() - pos >= 16) {
    std::uint64_t len = 0, sum = 0;
    std::memcpy(&len, blob.data() + pos, 8);
    std::memcpy(&sum, blob.data() + pos + 8, 8);
    if (len > blob.size() - pos - 16) break;  // torn append
    const char* p = blob.data() + pos + 16;
    if (util::checksum64(p, static_cast<std::size_t>(len)) != sum) break;
    records.emplace_back(p, static_cast<std::size_t>(len));
    pos += 16 + static_cast<std::size_t>(len);
  }
  return records;
}

std::string patched_bytes(const std::string& base, const std::string& patch) {
  if (patch.empty()) return base;  // unchanged
  if (core::is_sparse_payload(patch))
    return core::apply_sparse_patch(base, patch);
  core::check_snapshot_payload(patch);
  return patch;  // full payload: wholesale replacement
}

std::string make_patch(const std::string& base, const std::string& cur) {
  if (base == cur) return {};
  if (base.empty()) return cur;
  CRITTER_CHECK(!cur.empty(),
                "checkpoint increment: statistics state reset to empty");
  return core::encode_sparse_patch(base, cur);
}

// ---------------------------------------------------------------------------
// SessionJournal
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kSlotNames[2] = {"ckpt_a.bin", "ckpt_b.bin"};
constexpr const char* kLogName = "ckpt_log.bin";

}  // namespace

SessionJournal::SessionJournal(std::string dir, ShardRange range,
                               bool exchanging)
    : dir_(std::move(dir)), range_(range), exchanging_(exchanging) {
  reset();
}

void SessionJournal::reset() {
  state_ = {};
  state_.totals.resize(static_cast<std::size_t>(range_.end - range_.begin));
  state_.has_exchange_state = exchanging_;
  base_seq_ = 0;
  next_slot_ = 0;
  force_full_ = false;
}

bool SessionJournal::resume(const tune::Study& study, Decoded* decoded) {
  ShardCheckpoint best;
  int best_slot = -1;
  for (int slot = 0; slot < 2; ++slot) {
    if (!core::published(dir_, kSlotNames[slot])) continue;
    try {
      ShardCheckpoint c = parse_checkpoint(
          core::read_published(dir_, kSlotNames[slot]), study, range_);
      if (best_slot < 0 || c.seq > best.seq) {
        best = std::move(c);
        best_slot = slot;
      }
    } catch (const std::exception&) {
      // Torn or corrupt slot: fall back to the other one, or clean restart.
    }
  }
  if (best_slot < 0) return false;
  const std::int64_t base_seq = best.seq;
  const std::string log_path = dir_ + "/" + kLogName;
  const bool had_log = core::file_exists(log_path);
  if (had_log) {
    for (const std::string& payload :
         scan_log_records(core::read_file(log_path))) {
      try {
        apply_increment(best, base_seq,
                        parse_increment(payload, study, range_));
      } catch (const std::exception&) {
        break;  // discontinuity (e.g. a log outliving its base): stop here
      }
    }
  }
  if (decoded != nullptr)
    *decoded = {std::move(best.full), std::move(best.mark),
                std::move(best.own)};
  best.full = best.mark = best.own = {};
  state_ = std::move(best);
  base_seq_ = base_seq;
  next_slot_ = 1 - best_slot;
  // Whatever the log held, re-base: an increment appended behind a torn,
  // corrupt or stale tail would be unreachable by the next resume.
  force_full_ = had_log;
  return true;
}

void SessionJournal::discard() {
  for (const char* name : kSlotNames) {
    for (const char* suffix : {"", ".ok", ".tmp", ".ok.tmp"})
      std::remove((dir_ + "/" + name + suffix).c_str());
  }
  std::remove((dir_ + "/" + kLogName).c_str());
  reset();
}

bool SessionJournal::next_is_full() const {
  return force_full_ || base_seq_ == 0 ||
         state_.seq - base_seq_ >= kIncrementsPerFull;
}

void SessionJournal::replace_bytes(std::string full_bytes) {
  state_.full_bytes = std::move(full_bytes);
  force_full_ = true;
}

void SessionJournal::record(Step step,
                            const std::vector<tune::ConfigTotals>& totals) {
  const bool full_slot = next_is_full();
  CheckpointIncrement inc;
  inc.base_seq = base_seq_;
  inc.seq = state_.seq + 1;
  inc.batches = state_.batches + static_cast<int>(step.told.size());
  inc.rounds = exchanging_ ? step.rounds : 0;
  inc.in_round = exchanging_ ? step.in_round : inc.batches;
  inc.exchange_skips =
      state_.exchange_skips + static_cast<int>(step.skipped.size());
  inc.new_skipped = std::move(step.skipped);
  inc.new_told = std::move(step.told);
  // The totals a record rewrites are those of its new batches' positions:
  // a tell touches no others.
  std::vector<int> dirty;
  for (const ShardCheckpoint::ToldBatch& tb : inc.new_told)
    for (int pos : tb.positions) dirty.push_back(pos - range_.begin);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (int idx : dirty)
    inc.dirty_totals.emplace_back(
        idx, totals[static_cast<std::size_t>(range_.begin + idx)]);
  inc.has_exchange_state = exchanging_;
  inc.full_patch = std::move(step.full_patch);
  inc.mark_patch = std::move(step.mark_patch);
  inc.own_patch = std::move(step.own_patch);
  // Take the new payloads and free the old ones before the record buffers
  // are allocated, which keeps the peak heap (and the pages it faults in)
  // down.  A move-assignment would hand each old buffer to `step` instead,
  // keeping it alive through the write.
  if (step.full_bytes) state_.full_bytes.swap(*step.full_bytes);
  if (step.mark_bytes) state_.mark_bytes.swap(*step.mark_bytes);
  if (step.own_bytes) state_.own_bytes.swap(*step.own_bytes);
  step = {};
  const std::string framed =
      full_slot ? std::string() : frame_log_record(serialize_increment(inc));
  advance(state_, std::move(inc));
  // Until this write lands the disk is behind state_, and only a full slot
  // can catch it up.
  force_full_ = true;
  if (full_slot) {
    state_.totals.assign(totals.begin() + range_.begin,
                         totals.begin() + range_.end);
    write(true, serialize_checkpoint(state_));
    base_seq_ = state_.seq;
    next_slot_ = 1 - next_slot_;
  } else {
    write(false, framed);
  }
  force_full_ = false;
}

void SessionJournal::write(bool full_slot, const std::string& bytes) {
  const std::string log_path = dir_ + "/" + kLogName;
  const char* slot = kSlotNames[next_slot_];
  const auto write_as = [&](Damage damage) {
    std::string bad;
    if (damage == Damage::Corrupt) {
      bad = bytes;
      bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x5a);
    }
    const std::string& out = damage == Damage::Corrupt ? bad : bytes;
    if (!full_slot) {
      if (damage == Damage::Torn)
        core::append_file(log_path, out.substr(0, out.size() / 2));
      else
        core::append_file(log_path, out);
      return;
    }
    if (damage == Damage::Torn) {
      // The kill -9 point of a publish: the payload renamed into place,
      // its manifest never written.
      core::write_file_atomic(dir_ + "/" + slot, out);
      return;
    }
    core::publish_file(dir_, slot, out);
    if (damage != Damage::None) return;
    // Only after the new base is fully published: drop the log extending
    // the previous base.  A crash in between resumes from the new slot,
    // whose seq the stale log's records do not extend.
    std::remove(log_path.c_str());
  };
  if (seam_)
    seam_(write_as);
  else
    write_as(Damage::None);
}

}  // namespace critter::dist
