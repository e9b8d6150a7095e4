#include "dist/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "core/fsio.hpp"
#include "dist/wire.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter::dist {

namespace {

// The one record identifier, of full slots and log records alike.  A slot's
// reader checks it before the trailer, so a slot of an older format fails as
// "bad magic", not as corruption.
constexpr char kRecordMagic[8] = {'C', 'R', 'C', 'K', 'R', 'E', 'C', '1'};

/// A length-prefixed payload field.
void write_blob(WireWriter& w, const std::string& bytes) {
  w.i64(static_cast<std::int64_t>(bytes.size()));
  w.raw(bytes.data(), bytes.size());
}

std::string read_payload_field(WireReader& r) {
  const std::int64_t len = r.i64();
  CRITTER_CHECK(len >= 0, "journal record: negative blob length");
  std::string out(r.bytes(static_cast<std::size_t>(len)));
  // Shape check only; apply_record validates every chunk before it takes
  // the payload.
  CRITTER_CHECK(out.empty() || out.front() == 'C',
                "journal record: payload field is neither empty nor a "
                "snapshot payload");
  return out;
}

/// (range-relative index, totals) entries, as a record holds them.
void write_totals_entries(
    WireWriter& w,
    const std::vector<std::pair<int, tune::ConfigTotals>>& entries) {
  w.i32(static_cast<std::int32_t>(entries.size()));
  for (const auto& [idx, t] : entries) {
    w.i32(idx);
    write_totals(w, t);
  }
}

/// A whole range's totals, entry by entry, as a full checkpoint holds them.
void write_totals_entries(WireWriter& w,
                          const std::vector<tune::ConfigTotals>& range) {
  w.i32(static_cast<std::int32_t>(range.size()));
  for (std::size_t i = 0; i < range.size(); ++i) {
    w.i32(static_cast<std::int32_t>(i));
    write_totals(w, range[i]);
  }
}

/// A log frame's header: the record's length, then its checksum64.
constexpr std::size_t kLogHeader = 16;

/// Fill the log frame header at the front of `framed` from the record after
/// it.
void fill_log_header(std::string& framed) {
  const std::uint64_t len = framed.size() - kLogHeader;
  const std::uint64_t sum =
      util::checksum64(framed.data() + kLogHeader, framed.size() - kLogHeader);
  std::memcpy(framed.data(), &len, 8);
  std::memcpy(framed.data() + 8, &sum, 8);
}

/// The one record writer.  `r` supplies the cursors, skips, batches and
/// totals: a JournalRecord's own, or a whole ShardCheckpoint written as the
/// record that extends nothing.  The record follows `head` bytes left for a
/// log frame's header, and the buffer is sized once for the payload fields
/// and a slot's checksum trailer, so neither envelope copies the record
/// again.
template <class R>
std::string write_record(std::int64_t base_seq, const R& r,
                         const std::string& full, const std::string& mark,
                         const std::string& own, std::size_t head = 0) {
  WireWriter w;
  w.out.assign(head, '\0');
  w.raw(kRecordMagic, sizeof kRecordMagic);
  w.i64(base_seq);
  w.i64(r.seq);
  w.i32(r.batches);
  w.i32(r.rounds);
  w.i32(r.in_round);
  w.i32(r.exchange_skips);
  w.i32(static_cast<std::int32_t>(r.skipped.size()));
  for (const auto& [round, peer] : r.skipped) {
    w.i32(round);
    w.i32(peer);
  }
  w.i32(static_cast<std::int32_t>(r.told.size()));
  for (const ShardCheckpoint::ToldBatch& b : r.told) {
    w.i32(static_cast<std::int32_t>(b.positions.size()));
    for (std::size_t k = 0; k < b.positions.size(); ++k) {
      w.i32(b.positions[k]);
      write_outcome(w, b.outcomes[k]);
    }
  }
  write_totals_entries(w, r.totals);
  w.u8(r.has_exchange_state ? 1 : 0);
  const std::size_t blobs =
      8 + full.size() +
      (r.has_exchange_state ? 16 + mark.size() + own.size() : 0);
  w.out.reserve(w.out.size() + blobs + sizeof(std::uint64_t));
  write_blob(w, full);
  if (r.has_exchange_state) {
    write_blob(w, mark);
    write_blob(w, own);
  }
  return std::move(w.out);
}

/// Swap `rec`'s cursors and totals entries with `ck`'s.  A second swap
/// undoes the first.
void swap_cursors(ShardCheckpoint& ck, JournalRecord& rec) {
  std::swap(ck.seq, rec.seq);
  std::swap(ck.batches, rec.batches);
  std::swap(ck.rounds, rec.rounds);
  std::swap(ck.in_round, rec.in_round);
  std::swap(ck.exchange_skips, rec.exchange_skips);
  for (auto& [idx, t] : rec.totals)
    std::swap(ck.totals[static_cast<std::size_t>(idx)], t);
}

/// Apply `rec` to `ck`, all but the statistics payloads.  `rec` keeps the
/// cursors and totals it replaced, so retreat() can undo it.
void advance(ShardCheckpoint& ck, JournalRecord& rec) {
  swap_cursors(ck, rec);
  ck.skipped.insert(ck.skipped.end(), rec.skipped.begin(), rec.skipped.end());
  ck.told.insert(ck.told.end(), std::make_move_iterator(rec.told.begin()),
                 std::make_move_iterator(rec.told.end()));
}

/// Undo advance(ck, rec).
void retreat(ShardCheckpoint& ck, JournalRecord& rec) {
  swap_cursors(ck, rec);
  ck.skipped.resize(ck.skipped.size() - rec.skipped.size());
  ck.told.resize(ck.told.size() - rec.told.size());
}

}  // namespace

std::string serialize_record(const JournalRecord& rec) {
  return write_record(rec.base_seq, rec, rec.full_patch, rec.mark_patch,
                      rec.own_patch);
}

std::string serialize_record(const ShardCheckpoint& ck) {
  // Extending the empty state, every payload travels whole.
  return write_record(0, ck, ck.full_bytes, ck.mark_bytes, ck.own_bytes);
}

JournalRecord parse_record(std::string_view payload, const tune::Study& study,
                           const ShardRange& range) {
  WireReader r{payload, "journal record"};
  char magic[sizeof kRecordMagic];
  r.raw(magic, sizeof magic);
  CRITTER_CHECK(std::memcmp(magic, kRecordMagic, sizeof magic) == 0,
                "journal record: bad magic");
  JournalRecord rec;
  rec.base_seq = r.i64();
  rec.seq = r.i64();
  rec.batches = r.i32();
  rec.rounds = r.i32();
  rec.in_round = r.i32();
  rec.exchange_skips = r.i32();
  CRITTER_CHECK(rec.base_seq >= 0 && rec.seq > rec.base_seq &&
                    rec.batches >= 0 && rec.rounds >= 0 && rec.in_round >= 0 &&
                    rec.exchange_skips >= 0,
                "journal record: implausible cursors");

  // At most exchange_skips (round, peer) skips, none naming this shard.
  const std::int32_t nskipped = r.i32();
  CRITTER_CHECK(nskipped >= 0 && nskipped <= rec.exchange_skips &&
                    static_cast<std::size_t>(nskipped) <= r.remaining() / 8,
                "journal record: implausible skip list");
  rec.skipped.reserve(static_cast<std::size_t>(nskipped));
  for (std::int32_t i = 0; i < nskipped; ++i) {
    const std::int32_t round = r.i32();
    const std::int32_t peer = r.i32();
    CRITTER_CHECK(round >= 0 && peer >= 0 && peer != range.index,
                  "journal record: implausible skip entry");
    rec.skipped.emplace_back(round, peer);
  }

  // At most `batches` told batches, their positions ascending in the range.
  const std::int32_t ntold = r.i32();
  CRITTER_CHECK(ntold >= 0 && ntold <= rec.batches &&
                    static_cast<std::size_t>(ntold) <= r.remaining() / 4,
                "journal record: implausible batch count");
  rec.told.resize(static_cast<std::size_t>(ntold));
  const int nconf = static_cast<int>(study.configs.size());
  for (ShardCheckpoint::ToldBatch& tb : rec.told) {
    const std::int32_t k = r.i32();
    CRITTER_CHECK(k > 0 && k <= nconf, "journal record: implausible batch");
    tb.positions.resize(static_cast<std::size_t>(k));
    tb.outcomes.resize(static_cast<std::size_t>(k));
    for (std::int32_t j = 0; j < k; ++j) {
      const std::int32_t pos = r.i32();
      CRITTER_CHECK(pos >= range.begin && pos < range.end && pos < nconf &&
                        (j == 0 || tb.positions[j - 1] < pos),
                    "journal record: batch position outside the shard range "
                    "or out of order");
      tb.positions[static_cast<std::size_t>(j)] = pos;
      tb.outcomes[static_cast<std::size_t>(j)].config = study.configs[pos];
      read_outcome(r, tb.outcomes[static_cast<std::size_t>(j)],
                   "journal record");
    }
  }

  const std::int32_t ntotals = r.i32();
  const std::int32_t nrange = range.end - range.begin;
  CRITTER_CHECK(ntotals >= 0 && ntotals <= nrange,
                "journal record: implausible totals count");
  rec.totals.resize(static_cast<std::size_t>(ntotals));
  for (std::int32_t i = 0; i < ntotals; ++i) {
    const std::int32_t idx = r.i32();
    CRITTER_CHECK(idx >= 0 && idx < nrange &&
                      (i == 0 || rec.totals[i - 1].first < idx),
                  "journal record: totals index outside the shard range or "
                  "out of order");
    rec.totals[static_cast<std::size_t>(i)].first = idx;
    read_totals(r, rec.totals[static_cast<std::size_t>(i)].second);
  }

  rec.has_exchange_state = r.u8() != 0;
  rec.full_patch = read_payload_field(r);
  if (rec.has_exchange_state) {
    rec.mark_patch = read_payload_field(r);
    rec.own_patch = read_payload_field(r);
  }
  CRITTER_CHECK(r.done(), "journal record: trailing garbage");
  return rec;
}

void apply_record(ShardCheckpoint& ck, std::int64_t base_seq,
                  JournalRecord&& rec) {
  CRITTER_CHECK(rec.base_seq == base_seq,
                "journal record: extends a different base checkpoint");
  // A full checkpoint rebuilds the empty state; any other record follows
  // the previous one.
  CRITTER_CHECK(rec.base_seq == 0 ? ck.seq == 0 : rec.seq == ck.seq + 1,
                "journal record: sequence gap");
  CRITTER_CHECK(rec.batches == ck.batches + static_cast<int>(rec.told.size()),
                "journal record: batch cursor does not add up");
  CRITTER_CHECK(rec.exchange_skips ==
                    ck.exchange_skips + static_cast<int>(rec.skipped.size()),
                "journal record: skip cursor does not add up");
  CRITTER_CHECK(rec.rounds >= ck.rounds,
                "journal record: round cursor went backwards");
  CRITTER_CHECK(rec.has_exchange_state == ck.has_exchange_state,
                "journal record: exchange-state flag mismatch");
  CRITTER_CHECK(rec.base_seq != 0 || rec.totals.size() == ck.totals.size(),
                "journal record: a full checkpoint must hold totals for the "
                "whole shard range");
  for (const auto& [idx, t] : rec.totals)
    CRITTER_CHECK(idx >= 0 && static_cast<std::size_t>(idx) < ck.totals.size(),
                  "journal record: totals index out of range");
  // Check every payload before anything moves, so a field that is not a
  // payload leaves `ck` untouched.  "" leaves the bytes as they are; a
  // payload replaces them.
  const auto check = [](const std::string& field) {
    if (!field.empty()) core::check_snapshot_payload(field);
  };
  const auto take = [](std::string& bytes, std::string& field) {
    if (!field.empty()) bytes = std::move(field);
  };
  check(rec.full_patch);
  if (rec.has_exchange_state) {
    check(rec.mark_patch);
    check(rec.own_patch);
  }
  advance(ck, rec);
  take(ck.full_bytes, rec.full_patch);
  if (rec.has_exchange_state) {
    take(ck.mark_bytes, rec.mark_patch);
    take(ck.own_bytes, rec.own_patch);
  }
}

std::string seal_slot(std::string record) {
  // The publish manifest guards the file in transit; this trailer guards
  // the bytes at the source, so a flip or a truncation is rejected before a
  // single field is trusted.
  const std::uint64_t sum = util::checksum64(record.data(), record.size());
  record.append(reinterpret_cast<const char*>(&sum), sizeof sum);
  return record;
}

std::string_view open_slot(std::string_view slot) {
  CRITTER_CHECK(slot.size() >= sizeof kRecordMagic + 8,
                "journal slot: payload too short");
  CRITTER_CHECK(std::memcmp(slot.data(), kRecordMagic, sizeof kRecordMagic) ==
                    0,
                "journal slot: bad magic");
  std::uint64_t declared = 0;
  std::memcpy(&declared, slot.data() + slot.size() - 8, 8);
  CRITTER_CHECK(util::checksum64(slot.data(), slot.size() - 8) == declared,
                "journal slot: checksum trailer mismatch (corrupt or torn "
                "slot)");
  return slot.substr(0, slot.size() - 8);
}

std::string frame_log_record(const std::string& payload) {
  std::string out;
  out.reserve(kLogHeader + payload.size());
  out.assign(kLogHeader, '\0');
  out.append(payload);
  fill_log_header(out);
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

// ---------------------------------------------------------------------------
// SessionJournal
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kSlotNames[2] = {"ckpt_a.bin", "ckpt_b.bin"};
constexpr const char* kLogName = "ckpt_log.bin";

/// The state before any record: what a full checkpoint applies to.
ShardCheckpoint empty_state(const ShardRange& range, bool exchanging) {
  ShardCheckpoint ck;
  ck.totals.resize(static_cast<std::size_t>(range.end - range.begin));
  ck.has_exchange_state = exchanging;
  return ck;
}

/// What a log record carries for one payload: the step's bytes, whole,
/// when they differ from the journaled `was`, and "" (unchanged) otherwise.
const std::string& log_field(const std::optional<std::string>& now,
                             const std::string& was) {
  static const std::string unchanged;
  return now && *now != was ? *now : unchanged;
}

/// True when a step empties a payload, which a log record's "" cannot say.
bool empties(const std::optional<std::string>& now, const std::string& was) {
  return now && now->empty() && !was.empty();
}

}  // namespace

SessionJournal::SessionJournal(std::string dir, ShardRange range,
                               bool exchanging)
    : dir_(std::move(dir)), range_(range), exchanging_(exchanging) {
  reset();
}

void SessionJournal::reset() {
  state_ = empty_state(range_, exchanging_);
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
      const std::string bytes = core::read_published(dir_, kSlotNames[slot]);
      JournalRecord rec = parse_record(open_slot(bytes), study, range_);
      if (best_slot >= 0 && rec.seq <= best.seq) continue;
      ShardCheckpoint ck = empty_state(range_, exchanging_);
      apply_record(ck, 0, std::move(rec));
      best = std::move(ck);
      best_slot = slot;
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
        apply_record(best, base_seq, parse_record(payload, study, range_));
      } catch (const std::exception&) {
        break;  // discontinuity (e.g. a log outliving its base): stop here
      }
    }
  }
  // The one decode: every chunk was validated as it was spliced in.
  if (decoded != nullptr) {
    const auto decode = [](const std::string& bytes) {
      return bytes.empty() ? core::StatSnapshot{}
                           : core::StatSnapshot::from_string(bytes);
    };
    *decoded = {decode(best.full_bytes), decode(best.mark_bytes),
                decode(best.own_bytes)};
  }
  state_ = std::move(best);
  base_seq_ = base_seq;
  next_slot_ = 1 - best_slot;
  // Whatever the log held, re-base: a record appended behind a torn,
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
  const bool full_slot = next_is_full() ||
                         empties(step.full_bytes, state_.full_bytes) ||
                         empties(step.mark_bytes, state_.mark_bytes) ||
                         empties(step.own_bytes, state_.own_bytes);
  JournalRecord rec;
  rec.base_seq = full_slot ? 0 : base_seq_;
  rec.seq = state_.seq + 1;
  rec.batches = state_.batches + static_cast<int>(step.told.size());
  rec.rounds = exchanging_ ? step.rounds : 0;
  rec.in_round = exchanging_ ? step.in_round : rec.batches;
  rec.exchange_skips =
      state_.exchange_skips + static_cast<int>(step.skipped.size());
  rec.skipped = std::move(step.skipped);
  rec.told = std::move(step.told);
  // A record rewrites the totals at its new batches' positions, since a
  // tell touches no others; a full slot rewrites the whole range.
  std::vector<int> dirty;
  if (full_slot) {
    for (int idx = 0; idx < range_.end - range_.begin; ++idx)
      dirty.push_back(idx);
  } else {
    for (const ShardCheckpoint::ToldBatch& tb : rec.told)
      for (int pos : tb.positions) dirty.push_back(pos - range_.begin);
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }
  for (int idx : dirty)
    rec.totals.emplace_back(
        idx, totals[static_cast<std::size_t>(range_.begin + idx)]);
  rec.has_exchange_state = exchanging_;
  // state_ takes the record with the step's payloads, and swapping them
  // twice gives them back.  The replaced payloads wait in `step`.
  const auto swap_payloads = [&] {
    if (step.full_bytes) state_.full_bytes.swap(*step.full_bytes);
    if (step.mark_bytes) state_.mark_bytes.swap(*step.mark_bytes);
    if (step.own_bytes) state_.own_bytes.swap(*step.own_bytes);
  };
  // Until this record lands the disk is behind the owner, and only a full
  // slot can catch it up.  If the write throws, state_ stays at the last
  // durable record and the next record is a full slot.
  force_full_ = true;
  if (!full_slot) {
    // Written from the step's bytes in place, after the frame header it
    // then fills: each payload is copied once, into the framed record.
    std::string framed = write_record(
        rec.base_seq, rec, log_field(step.full_bytes, state_.full_bytes),
        log_field(step.mark_bytes, state_.mark_bytes),
        log_field(step.own_bytes, state_.own_bytes), kLogHeader);
    fill_log_header(framed);
    write(false, framed);
    advance(state_, rec);
    swap_payloads();
  } else {
    // A full slot is the state after this record, written whole: take the
    // record first, and give it back if the write throws.
    advance(state_, rec);
    swap_payloads();
    try {
      write(true, seal_slot(serialize_record(state_)));
    } catch (...) {
      swap_payloads();
      retreat(state_, rec);
      throw;
    }
    base_seq_ = state_.seq;
    next_slot_ = 1 - next_slot_;
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
