#include "dist/checkpoint.hpp"

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

/// Write a snapshot's serialized payload.  When the caller carries the
/// pre-serialized bytes (ShardCheckpoint::*_bytes) they are written
/// verbatim — the blob is then bit-identical to the splice base the log's
/// byte patches were computed against, and the snapshot is not serialized
/// a second time.
void write_snapshot_blob(WireWriter& w, const core::StatSnapshot& snap,
                         const std::string& bytes) {
  if (!bytes.empty()) {
    w.i64(static_cast<std::int64_t>(bytes.size()));
    w.raw(bytes.data(), bytes.size());
    return;
  }
  if (snap.empty()) {
    w.i64(0);
    return;
  }
  const std::string blob = snap.to_string();
  w.i64(static_cast<std::int64_t>(blob.size()));
  w.raw(blob.data(), blob.size());
}

/// Read a snapshot blob, keeping both the decoded snapshot and the raw
/// bytes (the splice base for byte patches).
core::StatSnapshot read_snapshot_blob(WireReader& r, std::string* bytes) {
  const std::int64_t len = r.i64();
  CRITTER_CHECK(len >= 0 && r.pos + static_cast<std::size_t>(len) <=
                                r.in.size(),
                "shard checkpoint: truncated snapshot blob");
  if (bytes) bytes->clear();
  if (len == 0) return {};
  const std::string_view blob =
      std::string_view(r.in).substr(r.pos, static_cast<std::size_t>(len));
  r.pos += static_cast<std::size_t>(len);
  if (bytes) bytes->assign(blob);
  return core::StatSnapshot::from_string(blob);
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
  w.i32(static_cast<std::int32_t>(c.skipped.size()));
  for (const auto& [round, peer] : c.skipped) {
    w.i32(round);
    w.i32(peer);
  }
  w.i32(static_cast<std::int32_t>(c.told.size()));
  for (const ShardCheckpoint::ToldBatch& b : c.told) {
    w.i32(static_cast<std::int32_t>(b.positions.size()));
    for (std::size_t k = 0; k < b.positions.size(); ++k) {
      w.i32(b.positions[k]);
      write_outcome(w, b.outcomes[k]);
    }
  }
  w.i32(static_cast<std::int32_t>(c.totals.size()));
  for (const tune::ConfigTotals& t : c.totals) write_totals(w, t);
  w.u8(c.has_exchange_state ? 1 : 0);
  write_snapshot_blob(w, c.full, c.full_bytes);
  if (c.has_exchange_state) {
    write_snapshot_blob(w, c.mark, c.mark_bytes);
    write_snapshot_blob(w, c.own, c.own_bytes);
  }
  // Payload-level checksum: the publish manifest already guards the file in
  // transit, this trailer guards the bytes at the source — any flip or
  // truncation is rejected before a single field is trusted.
  const std::uint64_t sum = util::checksum64(w.out.data(), w.out.size());
  w.raw(&sum, sizeof sum);
  return w.out;
}

ShardCheckpoint parse_checkpoint(const std::string& payload,
                                 const tune::Study& study,
                                 const ShardRange& range) {
  CRITTER_CHECK(payload.size() >= sizeof kCheckpointMagic + 8,
                "shard checkpoint: payload too short");
  WireReader r{payload};
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
  const std::int32_t nskips = r.i32();
  CRITTER_CHECK(nskips >= 0 && nskips <= c.exchange_skips,
                "shard checkpoint: implausible skip list");
  c.skipped.reserve(static_cast<std::size_t>(nskips));
  for (std::int32_t i = 0; i < nskips; ++i) {
    const std::int32_t round = r.i32();
    const std::int32_t peer = r.i32();
    CRITTER_CHECK(round >= 0 && peer >= 0 && peer != range.index,
                  "shard checkpoint: implausible skip entry");
    c.skipped.emplace_back(round, peer);
  }
  const std::int32_t ntold = r.i32();
  CRITTER_CHECK(ntold == c.batches,
                "shard checkpoint: told-batch count does not match the "
                "cursor");
  c.told.resize(static_cast<std::size_t>(ntold));
  const int nconf = static_cast<int>(study.configs.size());
  for (std::int32_t b = 0; b < ntold; ++b) {
    const std::int32_t k = r.i32();
    CRITTER_CHECK(k > 0 && k <= nconf, "shard checkpoint: implausible batch");
    ShardCheckpoint::ToldBatch& tb = c.told[static_cast<std::size_t>(b)];
    tb.positions.resize(static_cast<std::size_t>(k));
    tb.outcomes.resize(static_cast<std::size_t>(k));
    for (std::int32_t j = 0; j < k; ++j) {
      const std::int32_t pos = r.i32();
      CRITTER_CHECK(pos >= range.begin && pos < range.end &&
                        pos < nconf &&
                        (j == 0 || tb.positions[j - 1] < pos),
                    "shard checkpoint: batch position outside the shard "
                    "range or out of order");
      tb.positions[static_cast<std::size_t>(j)] = pos;
      tb.outcomes[static_cast<std::size_t>(j)].config = study.configs[pos];
      read_outcome(r, tb.outcomes[static_cast<std::size_t>(j)],
                   "shard checkpoint");
    }
  }
  const std::int32_t ntotals = r.i32();
  CRITTER_CHECK(ntotals == range.end - range.begin,
                "shard checkpoint: totals do not cover the shard range");
  c.totals.resize(static_cast<std::size_t>(ntotals));
  for (std::int32_t i = 0; i < ntotals; ++i)
    read_totals(r, c.totals[static_cast<std::size_t>(i)]);
  c.has_exchange_state = r.u8() != 0;
  c.full = read_snapshot_blob(r, &c.full_bytes);
  if (c.has_exchange_state) {
    c.mark = read_snapshot_blob(r, &c.mark_bytes);
    c.own = read_snapshot_blob(r, &c.own_bytes);
  }
  CRITTER_CHECK(r.pos == payload.size() - 8,
                "shard checkpoint: trailing garbage");
  return c;
}

namespace {

// Version 2: the statistics fields switched from StatSnapshot::diff deltas
// (merged back on resume) to byte patches (spliced on resume).  Version 3:
// the log frames and the snapshot chunks the patches carry are checksummed
// with util::checksum64.  An older log cannot extend a CRCKINC3 reader's
// base — its frames fail the scan or parse_increment rejects the old
// magic, load_latest_checkpoint stops at the first unreadable record, and
// the resume costs at most the increments since the last full slot.
constexpr char kIncrementMagic[8] = {'C', 'R', 'C', 'K', 'I', 'N', 'C', '3'};

void write_patch_blob(WireWriter& w, const std::string& patch) {
  w.i64(static_cast<std::int64_t>(patch.size()));
  w.raw(patch.data(), patch.size());
}

std::string read_patch_blob(WireReader& r) {
  const std::int64_t len = r.i64();
  CRITTER_CHECK(len >= 0 && r.pos + static_cast<std::size_t>(len) <=
                                r.in.size(),
                "checkpoint increment: truncated patch blob");
  std::string out(r.in.data() + r.pos, static_cast<std::size_t>(len));
  r.pos += static_cast<std::size_t>(len);
  // Shape check only ("" / sparse / full snapshot payload); the chunk-level
  // validation happens when apply_increment splices and re-decodes.
  CRITTER_CHECK(out.empty() || core::is_sparse_payload(out) ||
                    out.front() == 'C',
                "checkpoint increment: patch blob is neither empty, sparse, "
                "nor a snapshot payload");
  return out;
}

/// Resolve one increment patch field against the base payload bytes.
std::string patch_bytes(const std::string& base, const std::string& patch) {
  if (patch.empty()) return base;  // unchanged
  if (core::is_sparse_payload(patch)) return core::apply_sparse_patch(base, patch);
  return patch;  // wholesale replacement (empty -> non-empty transitions)
}

core::StatSnapshot decode_or_empty(const std::string& bytes) {
  if (bytes.empty()) return {};
  return core::StatSnapshot::from_string(bytes);
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
  w.i32(static_cast<std::int32_t>(inc.new_skipped.size()));
  for (const auto& [round, peer] : inc.new_skipped) {
    w.i32(round);
    w.i32(peer);
  }
  w.i32(static_cast<std::int32_t>(inc.new_told.size()));
  for (const ShardCheckpoint::ToldBatch& b : inc.new_told) {
    w.i32(static_cast<std::int32_t>(b.positions.size()));
    for (std::size_t k = 0; k < b.positions.size(); ++k) {
      w.i32(b.positions[k]);
      write_outcome(w, b.outcomes[k]);
    }
  }
  w.i32(static_cast<std::int32_t>(inc.dirty_totals.size()));
  for (const auto& [idx, t] : inc.dirty_totals) {
    w.i32(idx);
    write_totals(w, t);
  }
  w.u8(inc.has_exchange_state ? 1 : 0);
  write_patch_blob(w, inc.full_patch);
  if (inc.has_exchange_state) {
    write_patch_blob(w, inc.mark_patch);
    write_patch_blob(w, inc.own_patch);
  }
  return w.out;
}

CheckpointIncrement parse_increment(const std::string& payload,
                                    const tune::Study& study,
                                    const ShardRange& range) {
  WireReader r{payload};
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
  const std::int32_t nskips = r.i32();
  CRITTER_CHECK(nskips >= 0 && nskips <= inc.exchange_skips,
                "checkpoint increment: implausible skip list");
  inc.new_skipped.reserve(static_cast<std::size_t>(nskips));
  for (std::int32_t i = 0; i < nskips; ++i) {
    const std::int32_t round = r.i32();
    const std::int32_t peer = r.i32();
    CRITTER_CHECK(round >= 0 && peer >= 0 && peer != range.index,
                  "checkpoint increment: implausible skip entry");
    inc.new_skipped.emplace_back(round, peer);
  }
  const std::int32_t ntold = r.i32();
  CRITTER_CHECK(ntold >= 0 && ntold <= inc.batches,
                "checkpoint increment: implausible batch count");
  inc.new_told.resize(static_cast<std::size_t>(ntold));
  const int nconf = static_cast<int>(study.configs.size());
  for (std::int32_t b = 0; b < ntold; ++b) {
    const std::int32_t k = r.i32();
    CRITTER_CHECK(k > 0 && k <= nconf,
                  "checkpoint increment: implausible batch");
    ShardCheckpoint::ToldBatch& tb = inc.new_told[static_cast<std::size_t>(b)];
    tb.positions.resize(static_cast<std::size_t>(k));
    tb.outcomes.resize(static_cast<std::size_t>(k));
    for (std::int32_t j = 0; j < k; ++j) {
      const std::int32_t pos = r.i32();
      CRITTER_CHECK(pos >= range.begin && pos < range.end && pos < nconf &&
                        (j == 0 || tb.positions[j - 1] < pos),
                    "checkpoint increment: batch position outside the shard "
                    "range or out of order");
      tb.positions[static_cast<std::size_t>(j)] = pos;
      tb.outcomes[static_cast<std::size_t>(j)].config = study.configs[pos];
      read_outcome(r, tb.outcomes[static_cast<std::size_t>(j)],
                   "checkpoint increment");
    }
  }
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
  CRITTER_CHECK(r.pos == payload.size(),
                "checkpoint increment: trailing garbage");
  return inc;
}

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
  std::string full_bytes = patch_bytes(ck.full_bytes, inc.full_patch);
  std::string mark_bytes, own_bytes;
  if (inc.has_exchange_state) {
    mark_bytes = patch_bytes(ck.mark_bytes, inc.mark_patch);
    own_bytes = patch_bytes(ck.own_bytes, inc.own_patch);
  }
  core::StatSnapshot full, mark, own;
  if (!inc.full_patch.empty()) full = decode_or_empty(full_bytes);
  if (!inc.mark_patch.empty()) mark = decode_or_empty(mark_bytes);
  if (!inc.own_patch.empty()) own = decode_or_empty(own_bytes);
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

std::string checkpoint_slot_name(std::int64_t seq) {
  return (seq % 2 != 0) ? "ckpt_a.bin" : "ckpt_b.bin";
}

bool load_latest_checkpoint(const std::string& dir, const tune::Study& study,
                            const ShardRange& range, ShardCheckpoint* out,
                            std::int64_t* base_seq, std::string* base_slot) {
  bool found = false;
  for (const char* name : {"ckpt_a.bin", "ckpt_b.bin"}) {
    if (!core::published(dir, name)) continue;
    try {
      ShardCheckpoint c =
          parse_checkpoint(core::read_published(dir, name), study, range);
      if (!found || c.seq > out->seq) {
        *out = std::move(c);
        *base_slot = name;
        found = true;
      }
    } catch (const std::exception&) {
      // Torn or corrupt slot: fall back to the other one, or clean restart.
    }
  }
  if (!found) return false;
  *base_seq = out->seq;
  const std::string log_path = dir + "/ckpt_log.bin";
  if (core::file_exists(log_path)) {
    for (const std::string& payload :
         scan_log_records(core::read_file(log_path))) {
      try {
        apply_increment(*out, *base_seq,
                        parse_increment(payload, study, range));
      } catch (const std::exception&) {
        break;  // discontinuity (e.g. a log outliving its base): stop here
      }
    }
  }
  return true;
}

void discard_checkpoints(const std::string& dir) {
  for (const char* name : {"ckpt_a.bin", "ckpt_b.bin"}) {
    for (const char* suffix : {"", ".ok", ".tmp", ".ok.tmp"})
      std::remove((dir + "/" + name + suffix).c_str());
  }
  std::remove((dir + "/ckpt_log.bin").c_str());
}

}  // namespace critter::dist
