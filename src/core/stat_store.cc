#include "core/stat_store.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "core/fsio.hpp"
#include "core/wire_codec.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter::core {

// ---------------------------------------------------------------------------
// KernelTable lifecycle
// ---------------------------------------------------------------------------

void KernelTable::new_epoch() {
  ++epoch;
  for (auto& [key, ks] : K) ks.reset_epoch_counters();
}

void KernelTable::clear_statistics() {
  K.clear();
  key_of_hash.clear();
  pending_eager.clear();
  pending_tombstones.clear();
}

namespace {

/// Table-level merge of one kernel's statistics: moments via Chan, counters
/// summed, flags OR-ed, coverage hash resolved deterministically.
void merge_kernel_stats(KernelStats& a, const KernelStats& b) {
  a.merge(b);  // n, mean, m2
  a.invocations_this_epoch += b.invocations_this_epoch;
  a.executions_this_epoch += b.executions_this_epoch;
  a.total_invocations += b.total_invocations;
  a.total_executions += b.total_executions;
  const bool steady = a.global_steady || b.global_steady;
  if (a.agg_hash == 0) {
    a.agg_hash = b.agg_hash;
  } else if (b.agg_hash != 0 && b.agg_hash != a.agg_hash && !a.global_steady) {
    // Conflicting partial coverage from independent evaluations: the two
    // hash chains cannot be combined, so coverage restarts and the kernel
    // re-aggregates from scratch — the conservative direction.
    a.agg_hash = 0;
  }
  a.global_steady = steady;
  a.extrapolation_observed = a.extrapolation_observed || b.extrapolation_observed;
  a.registered = a.registered || b.registered;
}

/// Delta of one kernel's statistics on top of `base` (exact merge inverse).
KernelStats diff_kernel_stats(const KernelStats& after, const KernelStats& base) {
  KernelStats d = after;
  d.unmerge(base);  // n, mean, m2
  // Per-epoch counters are dead across the barrier (every evaluation calls
  // new_epoch() first); zeroing them keeps merge sums meaningless-but-stable.
  d.invocations_this_epoch = 0;
  d.executions_this_epoch = 0;
  d.total_invocations = after.total_invocations - base.total_invocations;
  d.total_executions = after.total_executions - base.total_executions;
  // agg_hash/flags carry the after-state; merge_kernel_stats resolves them.
  return d;
}

bool stats_equal(const KernelStats& a, const KernelStats& b) {
  return a.n == b.n && a.mean == b.mean && a.m2 == b.m2 &&
         a.total_invocations == b.total_invocations &&
         a.total_executions == b.total_executions &&
         a.agg_hash == b.agg_hash && a.global_steady == b.global_steady &&
         a.extrapolation_observed == b.extrapolation_observed &&
         a.registered == b.registered;
}

bool bucket_equal(const SizeModelBucket& a, const SizeModelBucket& b) {
  return a.n == b.n && a.sx == b.sx && a.sy == b.sy && a.sxx == b.sxx &&
         a.sxy == b.sxy && a.syy == b.syy && a.min_x == b.min_x &&
         a.max_x == b.max_x;
}

bool size_model_equal(const SizeModel& a, const SizeModel& b) {
  if (a.bucket_count() != b.bucket_count()) return false;
  bool eq = true;
  std::unordered_map<std::uint64_t, SizeModelBucket> bb;
  b.for_each([&](std::uint64_t id, const SizeModelBucket& bk) { bb[id] = bk; });
  a.for_each([&](std::uint64_t id, const SizeModelBucket& ak) {
    auto it = bb.find(id);
    if (it == bb.end() || !bucket_equal(ak, it->second)) eq = false;
  });
  return eq;
}

}  // namespace

void KernelTable::merge(const KernelTable& other) {
  for (const auto& [key, ks] : other.K) {
    auto [it, inserted] = K.try_emplace(key, ks);
    if (!inserted) merge_kernel_stats(it->second, ks);
  }
  for (const auto& [h, key] : other.key_of_hash) key_of_hash.try_emplace(h, key);
  // Tombstones first: the delta's evaluation absorbed our pending entry at
  // first sighting (its K contribution arrives with the absorbed moments
  // shed — see diff()), so re-absorb *our* copy into the now-registered K
  // entry and erase it.  The first sibling's tombstone consumes the entry;
  // later siblings find it gone — the absorbed samples count exactly once.
  for (std::uint64_t h : other.pending_tombstones) {
    const auto pit = pending_eager.find(h);
    if (pit == pending_eager.end()) continue;
    const auto kit = key_of_hash.find(h);
    if (kit != key_of_hash.end()) {
      const auto kk = K.find(kit->second);
      if (kk != K.end() && kk->second.registered)
        kk->second.merge(pit->second);  // moments only, like the profiler's
                                        // first-sighting absorption
    }
    pending_eager.erase(pit);
  }
  for (const auto& [h, ks] : other.pending_eager) {
    // Kernel already registered here (e.g. by an earlier sibling delta of
    // the same batch): pending growth feeds the K entry directly instead
    // of being created only to be purged below.
    const auto kit = key_of_hash.find(h);
    if (kit != key_of_hash.end()) {
      const auto kk = K.find(kit->second);
      if (kk != K.end() && kk->second.registered) {
        kk->second.merge(ks);
        continue;
      }
    }
    auto [it, inserted] = pending_eager.try_emplace(h, ks);
    if (!inserted) merge_kernel_stats(it->second, ks);
  }
  // A pending entry is dead once its kernel is registered in K on either
  // side: absorb its samples there (they were collected for that kernel,
  // only ahead of its local sighting) and erase it.  Within one batch the
  // tombstone pass above already consumed the delta-absorbed entries; this
  // sweep handles independent-table merges (a sharded sweep's final fold),
  // where the two sides' pending samples are disjoint by construction.
  for (auto it = pending_eager.begin(); it != pending_eager.end();) {
    const auto kit = key_of_hash.find(it->first);
    const auto kk = kit != key_of_hash.end() ? K.find(kit->second) : K.end();
    if (kk != K.end() && kk->second.registered) {
      kk->second.merge(it->second);
      it = pending_eager.erase(it);
    } else {
      ++it;
    }
  }
  channels.merge_from(other.channels);
  size_model.merge_from(other.size_model);
  epoch = std::max(epoch, other.epoch);
}

KernelTable KernelTable::diff(const KernelTable& base) const {
  KernelTable d;
  // Base pending-eager entries we no longer carry were absorbed into K at
  // first sighting.  Tombstone them and shed the absorbed moments from the
  // K delta: the merge target re-absorbs its own copy of the entry via the
  // tombstone, exactly once even when several same-batch siblings absorbed
  // the same entry.
  std::unordered_map<KernelKey, const KernelStats*, KernelKeyHash> absorbed;
  for (const auto& [h, ks] : base.pending_eager) {
    if (pending_eager.count(h) != 0) continue;
    d.pending_tombstones.push_back(h);
    const auto kit = key_of_hash.find(h);
    if (kit != key_of_hash.end()) absorbed.emplace(kit->second, &ks);
  }
  std::sort(d.pending_tombstones.begin(), d.pending_tombstones.end());

  for (const auto& [key, ks] : K) {
    const auto bit = base.K.find(key);
    const auto ab = absorbed.find(key);
    if (bit == base.K.end()) {
      if (ab == absorbed.end()) {
        d.K.emplace(key, ks);
      } else {
        KernelStats dk = ks;
        dk.unmerge(*ab->second);  // moments only: first-sighting absorption
                                  // merged moments only
        d.K.emplace(key, dk);
      }
      continue;
    }
    const KernelStats& bs = bit->second;
    if (ab == absorbed.end() && stats_equal(ks, bs)) continue;
    KernelStats dk = diff_kernel_stats(ks, bs);
    if (ab != absorbed.end()) dk.unmerge(*ab->second);
    d.K.emplace(key, dk);
  }
  for (const auto& [h, key] : key_of_hash)
    if (base.key_of_hash.count(h) == 0) d.key_of_hash.emplace(h, key);
  for (const auto& [h, ks] : pending_eager) {
    const auto bit = base.pending_eager.find(h);
    if (bit == base.pending_eager.end()) {
      d.pending_eager.emplace(h, ks);
    } else if (!stats_equal(ks, bit->second)) {
      d.pending_eager.emplace(h, diff_kernel_stats(ks, bit->second));
    }
  }
  channels.for_each([&](std::uint64_t h, const Channel& ch) {
    if (!base.channels.known(h)) d.channels.insert_raw(ch);
  });
  d.size_model = size_model;
  d.size_model.unmerge_from(base.size_model);
  d.epoch = epoch;
  return d;
}

bool KernelTable::same_statistics(const KernelTable& other) const {
  if (K.size() != other.K.size() ||
      key_of_hash.size() != other.key_of_hash.size() ||
      pending_eager.size() != other.pending_eager.size() ||
      epoch != other.epoch)
    return false;
  for (const auto& [key, ks] : K) {
    const auto it = other.K.find(key);
    if (it == other.K.end() || !stats_equal(ks, it->second)) return false;
  }
  for (const auto& [h, key] : key_of_hash) {
    const auto it = other.key_of_hash.find(h);
    if (it == other.key_of_hash.end() || !(it->second == key)) return false;
  }
  for (const auto& [h, ks] : pending_eager) {
    const auto it = other.pending_eager.find(h);
    if (it == other.pending_eager.end() || !stats_equal(ks, it->second))
      return false;
  }
  return channels.same_channels(other.channels) &&
         size_model_equal(size_model, other.size_model);
}

// ---------------------------------------------------------------------------
// StatSnapshot
// ---------------------------------------------------------------------------

void StatSnapshot::merge(const StatSnapshot& delta) {
  CRITTER_CHECK(delta.ranks.size() == ranks.size(),
                "snapshot merge rank-count mismatch");
  for (std::size_t r = 0; r < ranks.size(); ++r) ranks[r].merge(delta.ranks[r]);
}

StatSnapshot StatSnapshot::diff(const StatSnapshot& base) const {
  CRITTER_CHECK(base.ranks.size() == ranks.size(),
                "snapshot diff rank-count mismatch");
  StatSnapshot d;
  d.ranks.reserve(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r)
    d.ranks.push_back(ranks[r].diff(base.ranks[r]));
  return d;
}

bool StatSnapshot::same_statistics(const StatSnapshot& other) const {
  if (ranks.size() != other.ranks.size()) return false;
  for (std::size_t r = 0; r < ranks.size(); ++r)
    if (!ranks[r].same_statistics(other.ranks[r])) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Serialization
//
// Records are written in one deterministic order (kernels sorted by key
// hash, registries in ascending-hash order) through core/wire_codec.hpp.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'C', 'R', 'S', 'T', 'A', 'T', '0', '\n'};
// Version 3: per-rank length-prefixed chunks checksummed with
// util::checksum64 (XXH64), and the delta pending-tombstone list is
// serialized (file-borne exchange deltas).  Version 2 had the same layout
// under a byte-serial chunk checksum this build no longer computes, and
// version 1 had no chunk framing; both are rejected by version before any
// checksum is consulted.
constexpr std::uint32_t kVersion = 3;

using util::checksum64;  // the rank-chunk checksum

constexpr std::uint8_t kFlagGlobalSteady = 1;
constexpr std::uint8_t kFlagExtrapObserved = 2;
constexpr std::uint8_t kFlagRegistered = 4;

std::uint8_t pack_flags(const KernelStats& ks) {
  return (ks.global_steady ? kFlagGlobalSteady : 0) |
         (ks.extrapolation_observed ? kFlagExtrapObserved : 0) |
         (ks.registered ? kFlagRegistered : 0);
}

void unpack_flags(KernelStats& ks, std::uint8_t f) {
  ks.global_steady = (f & kFlagGlobalSteady) != 0;
  ks.extrapolation_observed = (f & kFlagExtrapObserved) != 0;
  ks.registered = (f & kFlagRegistered) != 0;
}

template <class Map>
std::vector<typename Map::const_pointer> sorted_by_key(const Map& m) {
  std::vector<typename Map::const_pointer> out;
  out.reserve(m.size());
  for (const auto& kv : m) out.push_back(&kv);
  std::sort(out.begin(), out.end(),
            [](auto* a, auto* b) { return a->first < b->first; });
  return out;
}

std::vector<const KernelArena::value_type*> sorted_kernels(
    const KernelTable& t) {
  std::vector<const KernelArena::value_type*> out;
  out.reserve(t.K.size());
  for (const auto& kv : t.K) out.push_back(&kv);
  std::sort(out.begin(), out.end(), [](auto* a, auto* b) {
    return a->first.hash() < b->first.hash();
  });
  return out;
}

// --- binary records --------------------------------------------------------

void write_key_binary(WireWriter& w, const KernelKey& key) {
  w.u8(static_cast<std::uint8_t>(key.cls));
  for (auto dim : key.dims) w.i64(dim);
  w.u64(key.chan);
}

KernelKey read_key_binary(WireReader& r) {
  const auto cls = static_cast<KernelClass>(r.u8());
  std::array<std::int64_t, 4> dims{};
  for (auto& dim : dims) dim = r.i64();
  const std::uint64_t chan = r.u64();
  return KernelKey{cls, dims, chan};
}

void write_stats_binary(WireWriter& w, const KernelStats& ks) {
  w.i64(ks.n);
  w.f64(ks.mean);
  w.f64(ks.m2);
  w.i64(ks.invocations_this_epoch);
  w.i64(ks.executions_this_epoch);
  w.i64(ks.total_invocations);
  w.i64(ks.total_executions);
  w.u64(ks.agg_hash);
  w.u8(pack_flags(ks));
}

KernelStats read_stats_binary(WireReader& r) {
  KernelStats ks;
  ks.n = r.i64();
  ks.mean = r.f64();
  ks.m2 = r.f64();
  ks.invocations_this_epoch = r.i64();
  ks.executions_this_epoch = r.i64();
  ks.total_invocations = r.i64();
  ks.total_executions = r.i64();
  ks.agg_hash = r.u64();
  unpack_flags(ks, r.u8());
  return ks;
}

/// Record-count sanity bounds: a truncated or corrupt count must fail fast
/// with a clear error instead of driving a near-endless read loop or an
/// allocation far beyond any plausible snapshot.
constexpr std::uint64_t kMaxRanks = 1u << 16;
constexpr std::uint64_t kMaxRecords = 1ull << 32;
constexpr std::uint64_t kMaxChunkBytes = 1ull << 33;

/// One rank table's records, without framing.
void write_rank_binary(WireWriter& w, const KernelTable& t) {
  w.i64(t.epoch);
  w.u64(t.K.size());
  for (const auto* kv : sorted_kernels(t)) {
    write_key_binary(w, kv->first);
    write_stats_binary(w, kv->second);
  }
  w.u64(t.key_of_hash.size());
  for (const auto* kv : sorted_by_key(t.key_of_hash)) {
    w.u64(kv->first);
    write_key_binary(w, kv->second);
  }
  w.u64(t.pending_eager.size());
  for (const auto* kv : sorted_by_key(t.pending_eager)) {
    w.u64(kv->first);
    write_stats_binary(w, kv->second);
  }
  w.u64(t.pending_tombstones.size());
  for (std::uint64_t h : t.pending_tombstones) w.u64(h);
  w.u64(t.channels.size());
  t.channels.for_each([&](std::uint64_t, const Channel& ch) {
    w.i64(ch.offset);
    w.u8(ch.lattice ? 1 : 0);
    w.u64(ch.dims.size());
    for (const ChannelDim& d : ch.dims) {
      w.i64(d.stride);
      w.i64(d.size);
    }
  });
  w.u64(t.size_model.bucket_count());
  t.size_model.for_each([&](std::uint64_t id, const SizeModelBucket& b) {
    w.u64(id);
    w.i64(b.n);
    w.f64(b.sx);
    w.f64(b.sy);
    w.f64(b.sxx);
    w.f64(b.sxy);
    w.f64(b.syy);
    w.f64(b.min_x);
    w.f64(b.max_x);
  });
}

/// The one reader of a rank chunk's record layout — the mirror of
/// write_rank_binary.  Every decoded record goes to `sink`: TableSink
/// builds a KernelTable from them, NullSink drops them, so a validate-only
/// walk makes exactly the structural checks a full decode makes (record
/// counts, bounds, channel shapes) without building any table.
template <class Sink>
void walk_rank_binary(WireReader& r, Sink&& sink) {
  sink.epoch(r.i64());
  const std::uint64_t nk = r.u64();
  CRITTER_CHECK(nk <= kMaxRecords, "stat snapshot: implausible kernel count");
  for (std::uint64_t i = 0; i < nk; ++i) {
    const KernelKey key = read_key_binary(r);
    sink.kernel(key, read_stats_binary(r));
  }
  const std::uint64_t nh = r.u64();
  CRITTER_CHECK(nh <= kMaxRecords, "stat snapshot: implausible key count");
  for (std::uint64_t i = 0; i < nh; ++i) {
    const std::uint64_t h = r.u64();
    sink.key(h, read_key_binary(r));
  }
  const std::uint64_t np = r.u64();
  CRITTER_CHECK(np <= kMaxRecords, "stat snapshot: implausible pending count");
  for (std::uint64_t i = 0; i < np; ++i) {
    const std::uint64_t h = r.u64();
    sink.pending(h, read_stats_binary(r));
  }
  const std::uint64_t nt = r.u64();
  CRITTER_CHECK(nt <= kMaxRecords,
                "stat snapshot: implausible tombstone count");
  for (std::uint64_t i = 0; i < nt; ++i) sink.tombstone(r.u64());
  const std::uint64_t nc = r.u64();
  CRITTER_CHECK(nc <= kMaxRecords, "stat snapshot: implausible channel count");
  for (std::uint64_t i = 0; i < nc; ++i) {
    Channel ch;
    ch.offset = r.i64();
    ch.lattice = r.u8() != 0;
    const std::uint64_t nd = r.u64();
    CRITTER_CHECK(nd <= (1u << 20), "stat snapshot: implausible channel");
    CRITTER_CHECK(nd <= r.remaining() / 16,
                  "stat snapshot: truncated payload");
    ch.dims.resize(nd);
    for (ChannelDim& d : ch.dims) {
      d.stride = r.i64();
      d.size = r.i64();
    }
    sink.channel(ch);
  }
  const std::uint64_t nb = r.u64();
  CRITTER_CHECK(nb <= kMaxRecords, "stat snapshot: implausible bucket count");
  for (std::uint64_t i = 0; i < nb; ++i) {
    const std::uint64_t id = r.u64();
    SizeModelBucket b;
    b.n = r.i64();
    b.sx = r.f64();
    b.sy = r.f64();
    b.sxx = r.f64();
    b.sxy = r.f64();
    b.syy = r.f64();
    b.min_x = r.f64();
    b.max_x = r.f64();
    sink.bucket(id, b);
  }
}

struct TableSink {
  KernelTable& t;
  void epoch(std::int64_t e) { t.epoch = e; }
  void kernel(const KernelKey& k, const KernelStats& s) { t.K.emplace(k, s); }
  void key(std::uint64_t h, const KernelKey& k) { t.key_of_hash.emplace(h, k); }
  void pending(std::uint64_t h, const KernelStats& s) {
    t.pending_eager.emplace(h, s);
  }
  void tombstone(std::uint64_t h) { t.pending_tombstones.push_back(h); }
  void channel(const Channel& ch) { t.channels.insert_raw(ch); }
  void bucket(std::uint64_t id, const SizeModelBucket& b) {
    t.size_model.set_bucket(id, b);
  }
};

struct NullSink {
  void epoch(std::int64_t) {}
  void kernel(const KernelKey&, const KernelStats&) {}
  void key(std::uint64_t, const KernelKey&) {}
  void pending(std::uint64_t, const KernelStats&) {}
  void tombstone(std::uint64_t) {}
  void channel(const Channel&) {}
  void bucket(std::uint64_t, const SizeModelBucket&) {}
};

std::string save_binary_string(const StatSnapshot& snap) {
  WireWriter w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(snap.ranks.size()));
  for (const KernelTable& t : snap.ranks) {
    // Each rank chunk is framed with its byte length and checksum so a
    // reader rejects truncation and corruption before decoding a single
    // record.  The records are serialized straight into the output buffer;
    // the frame header is backpatched once the chunk's extent is known —
    // no scratch stream, no chunk copy.
    const std::size_t frame = w.out.size();
    w.u64(0);  // length placeholder
    w.u64(0);  // checksum placeholder
    const std::size_t body = w.out.size();
    write_rank_binary(w, t);
    const std::uint64_t len = w.out.size() - body;
    const std::uint64_t sum = checksum64(w.out.data() + body, len);
    std::memcpy(w.out.data() + frame, &len, 8);
    std::memcpy(w.out.data() + frame + 8, &sum, 8);
  }
  return std::move(w.out);
}

/// The one payload reader, for a decode and a validation alike: magic,
/// version, rank count, then each rank chunk's length, checksum and
/// records.  With `out` it builds every table (TableSink); without, it
/// drops the records (NullSink), so a validation makes exactly the checks
/// a decode makes.
void walk_payload(std::string_view bytes, StatSnapshot* out) {
  WireReader r{bytes, "stat snapshot"};
  char magic[sizeof kMagic];
  r.raw(magic, sizeof magic);
  CRITTER_CHECK(std::memcmp(magic, kMagic, sizeof kMagic) == 0,
                "stat snapshot: bad binary magic");
  const std::uint32_t version = r.u32();
  CRITTER_CHECK(version == kVersion,
                "stat snapshot: unsupported version " +
                    std::to_string(version) + " (current " +
                    std::to_string(kVersion) + ")");
  const std::uint32_t nranks = r.u32();
  CRITTER_CHECK(nranks >= 1 && nranks <= kMaxRanks,
                "stat snapshot: implausible rank count");
  // Every rank carries at least its 16-byte frame header: bound the count
  // by the bytes present before building any table.
  CRITTER_CHECK(nranks <= r.remaining() / 16,
                "stat snapshot: truncated payload");
  if (out != nullptr) out->ranks.resize(nranks);
  for (std::uint32_t rank = 0; rank < nranks; ++rank) {
    const std::uint64_t len = r.u64();
    CRITTER_CHECK(len <= kMaxChunkBytes,
                  "stat snapshot: implausible rank-chunk size");
    const std::uint64_t sum = r.u64();
    // The length field sits outside the checksummed region; bytes() bounds
    // it by the bytes actually present, so a corrupt value hits the
    // truncation error without driving any allocation — the chunk is
    // checksummed and decoded in place, never copied.
    const std::string_view body = r.bytes(len);
    CRITTER_CHECK(checksum64(body.data(), body.size()) == sum,
                  "stat snapshot: rank-chunk checksum mismatch (corrupt or "
                  "truncated file)");
    WireReader cr{body, "stat snapshot"};
    if (out != nullptr) {
      KernelTable& t = out->ranks[rank];
      t.init_world(static_cast<int>(nranks));
      walk_rank_binary(cr, TableSink{t});
    } else {
      walk_rank_binary(cr, NullSink{});
    }
    CRITTER_CHECK(cr.done(), "stat snapshot: trailing bytes in rank chunk");
  }
  CRITTER_CHECK(r.done(), "stat snapshot: trailing content after final rank");
}

}  // namespace

std::uint32_t StatSnapshot::current_version() { return kVersion; }

std::string StatSnapshot::to_string() const { return save_binary_string(*this); }

StatSnapshot StatSnapshot::from_string(std::string_view bytes) {
  StatSnapshot snap;
  walk_payload(bytes, &snap);
  return snap;
}

void check_snapshot_payload(std::string_view bytes) {
  walk_payload(bytes, nullptr);
}

void StatSnapshot::save_file(const std::string& path) const {
  write_file(path, to_string());
}

KernelStats moments_to_stats(const KernelMoments& m) {
  KernelStats ks;
  ks.n = m.n;
  ks.mean = m.mean;
  ks.m2 = m.n > 1 ? m.variance * static_cast<double>(m.n - 1) : 0.0;
  return ks;
}

KernelMoments stats_to_moments(const KernelKey& key, const KernelStats& ks) {
  KernelMoments m;
  m.key = key;
  m.n = ks.n;
  m.mean = ks.mean;
  m.variance = ks.n > 1 ? ks.m2 / static_cast<double>(ks.n - 1) : 0.0;
  return m;
}

std::vector<KernelMoments> extract_moments(const StatSnapshot& snap) {
  // Fold rank tables in rank order; per-key the fold is a Chan moment
  // merge, so the pooled moments are a pure function of the snapshot.
  std::unordered_map<std::uint64_t, std::pair<KernelKey, KernelStats>> pooled;
  for (const KernelTable& t : snap.ranks) {
    for (const auto* kv : sorted_kernels(t)) {
      if (kv->second.n == 0) continue;
      auto [it, inserted] =
          pooled.try_emplace(kv->first.hash(), kv->first, KernelStats{});
      it->second.second.merge(kv->second);
    }
  }
  std::vector<KernelMoments> out;
  out.reserve(pooled.size());
  for (const auto& [hash, entry] : pooled)
    out.push_back(stats_to_moments(entry.first, entry.second));
  std::sort(out.begin(), out.end(),
            [](const KernelMoments& a, const KernelMoments& b) {
              return a.key.hash() < b.key.hash();
            });
  return out;
}

StatSnapshot StatSnapshot::load_file(const std::string& path) {
  const std::string bytes = read_file(path);
  try {
    return from_string(bytes);
  } catch (const std::exception& e) {
    // Re-anchor deep parse failures to the file: "which snapshot file was
    // bad" is the actionable part when a sweep folds many of them.
    throw std::runtime_error("stat snapshot: failed to load '" + path +
                             "': " + e.what());
  }
}

}  // namespace critter::core
