// Statistics-lifecycle subsystem (core/stat_store): the kernel arena that
// holds K, deterministic merge, exact merge inverse (diff), snapshot/restore
// round-trips on a profiler Store, and versioned binary serialization
// round-trips including SizeModel state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/stat_store.hpp"
#include "tune/tuner.hpp"

namespace core = critter::core;
namespace tune = critter::tune;
using critter::Policy;

namespace {

core::KernelKey key_of(int cls, std::int64_t m, std::int64_t n) {
  return core::KernelKey{static_cast<core::KernelClass>(cls), {m, n, 0, 0}, 0};
}

core::KernelStats samples(std::initializer_list<double> xs) {
  core::KernelStats ks;
  for (double x : xs) {
    ks.add_sample(x);
    ++ks.total_invocations;
    ++ks.total_executions;
  }
  ks.registered = true;
  return ks;
}

/// A populated table: a few kernels, a sub-channel, a size-model bucket.
core::KernelTable make_table(int nranks, int salt) {
  core::KernelTable t;
  t.init_world(nranks);
  for (int k = 0; k < 3; ++k) {
    const core::KernelKey key = key_of(k, 64 + salt, 32);
    t.K.emplace(key, samples({1.0 + salt, 2.0 + salt, 3.0 + k}));
    t.key_of_hash.emplace(key.hash(), key);
  }
  std::vector<int> row;
  for (int r = 0; r < std::max(1, nranks / 2); ++r) row.push_back(r);
  t.channels.add_channel(row);
  t.size_model.observe(key_of(0, 64, 32), 1e6 * (1 + salt), 1e-3);
  t.size_model.observe(key_of(0, 128, 64), 2e6 * (1 + salt), 2e-3);
  t.epoch = salt;
  return t;
}

/// A real statistics snapshot grown by an actual sweep (exercises every
/// field the serializer must carry, including eager/extrapolate state).
core::StatSnapshot sweep_snapshot(Policy policy, bool extrapolate) {
  auto study = tune::slate_cholesky_study(false);
  study.configs.resize(4);
  tune::TuneOptions opt;
  opt.policy = policy;
  opt.samples = 2;
  opt.tolerance = 0.5;
  opt.extrapolate = extrapolate;
  const tune::TuneResult r = tune::run_study(study, opt);
  EXPECT_FALSE(r.stats.empty());
  return r.stats;
}

/// Every field of two KernelStats, compared exactly.
void expect_same_stats(const core::KernelStats& a, const core::KernelStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.m2, b.m2) << what;
  EXPECT_EQ(a.invocations_this_epoch, b.invocations_this_epoch) << what;
  EXPECT_EQ(a.executions_this_epoch, b.executions_this_epoch) << what;
  EXPECT_EQ(a.total_invocations, b.total_invocations) << what;
  EXPECT_EQ(a.total_executions, b.total_executions) << what;
  EXPECT_EQ(a.agg_hash, b.agg_hash) << what;
  EXPECT_EQ(a.global_steady, b.global_steady) << what;
  EXPECT_EQ(a.extrapolation_observed, b.extrapolation_observed) << what;
  EXPECT_EQ(a.registered, b.registered) << what;
}

/// An arena of `n` kernels whose statistics differ per kernel.
core::KernelArena make_arena(int n, int salt) {
  core::KernelArena a;
  for (int i = 0; i < n; ++i) {
    core::KernelStats& ks = a[key_of(i % 7, i + salt, 1)];
    ks = samples({1.0 + i, 2.0 + salt});
    ks.agg_hash = static_cast<std::uint64_t>(i) * 31 + 1;
  }
  return a;
}

/// Same size, same keys and statistics, in the same (insertion) order.
void expect_same_arena(const core::KernelArena& a, const core::KernelArena& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.begin();
  for (auto ia = a.begin(); ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    expect_same_stats(ia->second, ib->second, ia->first.to_string());
  }
}

}  // namespace

TEST(KernelArena, ReferencesSurviveInsertsAcrossBlocks) {
  // Entries are built in place on insert into blocks of 256 that never
  // move: 600 inserts after the first cross two block boundaries.
  core::KernelArena a;
  const core::KernelKey first = key_of(0, 1, 1);
  core::KernelStats& ks = a[first];
  ks = samples({1.5, 2.5, 4.0});
  const core::KernelStats before = ks;
  const core::KernelArena::value_type* entry = &a.entry(a.find_index(first));
  for (int i = 0; i < 600; ++i) {
    const auto [idx, inserted] = a.insert_index(key_of(1, i, 2));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(idx, static_cast<std::uint32_t>(i + 1));
  }
  ASSERT_EQ(a.size(), 601u);
  EXPECT_EQ(&a.entry(0), entry);
  EXPECT_EQ(&a.at(first), &ks);
  EXPECT_EQ(entry->first, first);
  expect_same_stats(ks, before, "first entry");
  // The new entries start from default statistics.
  expect_same_stats(a.at(key_of(1, 599, 2)), core::KernelStats{}, "last");
}

TEST(KernelArena, CopyHoldsTheLiveEntriesAndIsIndependent) {
  const core::KernelArena src = make_arena(300, 5);
  core::KernelArena copy(src);
  expect_same_arena(copy, src);
  for (const auto& [key, stats] : src)
    EXPECT_EQ(copy.find_index(key), src.find_index(key));

  // Growing or changing the copy leaves the source as it was.
  const core::KernelArena pristine = make_arena(300, 5);
  copy[key_of(6, 9999, 3)].add_sample(7.0);
  copy.at(src.begin()->first).add_sample(100.0);
  EXPECT_EQ(copy.size(), 301u);
  EXPECT_EQ(src.find_index(key_of(6, 9999, 3)), core::KernelArena::npos);
  expect_same_arena(src, pristine);

  // Assigning into a larger arena leaves it holding only the source's
  // entries.
  core::KernelArena big = make_arena(700, 1);
  const core::KernelKey only_in_big = big.entry(650).first;
  big = src;
  expect_same_arena(big, src);
  EXPECT_EQ(big.find_index(only_in_big), core::KernelArena::npos);
}

TEST(KernelArena, ClearedThenReinsertedKeysStartFromZeroedStats) {
  core::KernelArena a = make_arena(20, 3);
  const core::KernelKey k = a.entry(4).first;
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.begin(), a.end());
  EXPECT_EQ(a.find_index(k), core::KernelArena::npos);
  // Nothing from before the clear shows through: the re-inserted key, and
  // a new key at a reused index, both read as default statistics.
  expect_same_stats(a[k], core::KernelStats{}, "re-inserted");
  expect_same_stats(a[key_of(2, 77, 77)], core::KernelStats{}, "new");
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.entry(0).first, k);
}

TEST(KernelArena, SelfAssignmentAndEmptyCopies) {
  core::KernelArena a = make_arena(260, 2);
  const core::KernelArena& alias = a;
  a = alias;
  expect_same_arena(a, make_arena(260, 2));

  const core::KernelArena empty;
  core::KernelArena copy(empty);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.begin(), copy.end());
  a = empty;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.find_index(key_of(0, 2, 1)), core::KernelArena::npos);
  // Both still take inserts.
  copy[key_of(0, 1, 1)].add_sample(1.0);
  a[key_of(0, 1, 1)].add_sample(1.0);
  expect_same_arena(a, copy);
}

TEST(KernelStats, UnmergeIsExactInverseOfMerge) {
  const core::KernelStats a = samples({1.0, 2.0, 3.5, 0.25});
  const core::KernelStats b = samples({4.0, 5.5});
  core::KernelStats c = a;
  c.merge(b);
  c.unmerge(a);
  ASSERT_EQ(c.n, b.n);
  EXPECT_NEAR(c.mean, b.mean, 1e-12);
  EXPECT_NEAR(c.m2, b.m2, 1e-12);
  // unmerging everything leaves an empty estimator
  core::KernelStats d = a;
  d.unmerge(a);
  EXPECT_EQ(d.n, 0);
  EXPECT_EQ(d.mean, 0.0);
  EXPECT_EQ(d.m2, 0.0);
}

TEST(KernelTable, MergeIsDeterministic) {
  const core::KernelTable a = make_table(8, 1);
  const core::KernelTable b = make_table(8, 2);
  core::KernelTable m1 = a;
  m1.merge(b);
  core::KernelTable m2 = a;
  m2.merge(b);
  EXPECT_TRUE(m1.same_statistics(m2));
  EXPECT_FALSE(m1.same_statistics(a));
}

TEST(KernelTable, MergeOrderPermutationsAgree) {
  // Integer state (counts, registries, channels) must agree exactly across
  // merge orders; floating moments to tight tolerance (Chan's merge is
  // order-insensitive only in exact arithmetic).
  const core::KernelTable a = make_table(8, 1);
  const core::KernelTable b = make_table(8, 2);
  const core::KernelTable c = make_table(8, 5);

  core::KernelTable ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  core::KernelTable ac_b = a;
  ac_b.merge(c);
  ac_b.merge(b);

  ASSERT_EQ(ab_c.K.size(), ac_b.K.size());
  for (const auto& [key, ks] : ab_c.K) {
    const auto it = ac_b.K.find(key);
    ASSERT_NE(it, ac_b.K.end());
    EXPECT_EQ(ks.n, it->second.n);
    EXPECT_EQ(ks.total_invocations, it->second.total_invocations);
    EXPECT_EQ(ks.total_executions, it->second.total_executions);
    EXPECT_NEAR(ks.mean, it->second.mean, 1e-12);
    EXPECT_NEAR(ks.m2, it->second.m2, 1e-12);
  }
  EXPECT_TRUE(ab_c.channels.same_channels(ac_b.channels));
  EXPECT_EQ(ab_c.epoch, ac_b.epoch);
}

TEST(KernelTable, DiffIsMergeInverse) {
  const core::KernelTable base = make_table(8, 1);
  core::KernelTable after = base;
  after.merge(make_table(8, 3));  // evolve on top of base
  after.new_epoch();

  const core::KernelTable delta = after.diff(base);
  core::KernelTable rebuilt = base;
  rebuilt.merge(delta);

  ASSERT_EQ(rebuilt.K.size(), after.K.size());
  for (const auto& [key, ks] : after.K) {
    const auto it = rebuilt.K.find(key);
    ASSERT_NE(it, rebuilt.K.end());
    EXPECT_EQ(ks.n, it->second.n);
    EXPECT_NEAR(ks.mean, it->second.mean, 1e-12);
    EXPECT_NEAR(ks.m2, it->second.m2, 1e-12);
  }
  EXPECT_TRUE(rebuilt.channels.same_channels(after.channels));
  EXPECT_EQ(rebuilt.epoch, after.epoch);

  // An untouched table diffs to an empty delta.
  const core::KernelTable none = base.diff(base);
  EXPECT_TRUE(none.K.empty());
  EXPECT_TRUE(none.key_of_hash.empty());
  EXPECT_TRUE(none.pending_eager.empty());
}

namespace {

core::KernelStats moments(std::initializer_list<double> xs) {
  core::KernelStats ks;
  for (double x : xs) ks.add_sample(x);
  return ks;
}

/// A worker table that absorbed `base`'s pending-eager entry for `key` at
/// first sighting (mirroring detail::note_invocation: moments merged, hash
/// registered, pending erased) and then collected `own` local samples.
core::KernelTable absorb_and_sample(const core::KernelTable& base,
                                    const core::KernelKey& key,
                                    std::initializer_list<double> own) {
  core::KernelTable w = base;
  core::KernelStats ks;
  ks.registered = true;
  const auto pend = w.pending_eager.find(key.hash());
  EXPECT_NE(pend, w.pending_eager.end());
  ks.merge(pend->second);
  ks.agg_hash = pend->second.agg_hash;
  w.pending_eager.erase(pend);
  w.key_of_hash.emplace(key.hash(), key);
  for (double x : own) {
    ks.add_sample(x);
    ++ks.total_invocations;
    ++ks.total_executions;
  }
  w.K.emplace(key, ks);
  return w;
}

}  // namespace

TEST(KernelTable, PendingAbsorbedByTwoSiblingsCountsOnce) {
  // Regression: two same-batch configurations each absorb the shared
  // snapshot's pending-eager entry at first sighting.  Without tombstones
  // the entry's samples arrived once per absorbing delta.
  core::KernelTable base = make_table(8, 1);
  const core::KernelKey key = key_of(3, 256, 128);
  base.pending_eager.emplace(key.hash(), moments({1.0, 2.0, 3.0}));

  const core::KernelTable w1 = absorb_and_sample(base, key, {4.0});
  const core::KernelTable w2 = absorb_and_sample(base, key, {5.0, 6.0});
  const core::KernelTable d1 = w1.diff(base);
  const core::KernelTable d2 = w2.diff(base);
  EXPECT_EQ(d1.pending_tombstones.size(), 1u);
  EXPECT_EQ(d2.pending_tombstones.size(), 1u);
  ASSERT_EQ(d1.K.count(key), 1u);
  EXPECT_EQ(d1.K.at(key).n, 1);  // absorbed moments shed from the delta

  core::KernelTable merged = base;
  merged.merge(d1);
  merged.merge(d2);
  ASSERT_EQ(merged.K.count(key), 1u);
  // 3 pending samples counted once, plus 1 + 2 own samples.
  EXPECT_EQ(merged.K.at(key).n, 6);
  EXPECT_EQ(merged.pending_eager.count(key.hash()), 0u);
}

TEST(KernelTable, SiblingRegisteredPendingGrowthIsNotDropped) {
  // Regression: one sibling registers the kernel (absorbing the base
  // entry) while another only grows the pending entry with more eager
  // statistics.  The growth used to be erased by the registered-kernel
  // purge; now it feeds the K entry, in either merge order.
  core::KernelTable base = make_table(8, 1);
  const core::KernelKey key = key_of(3, 256, 128);
  base.pending_eager.emplace(key.hash(), moments({1.0, 2.0}));

  const core::KernelTable w1 = absorb_and_sample(base, key, {3.0});
  core::KernelTable w2 = base;
  w2.pending_eager.at(key.hash()).merge(moments({7.0, 8.0, 9.0}));
  const core::KernelTable d1 = w1.diff(base);
  const core::KernelTable d2 = w2.diff(base);
  EXPECT_TRUE(d1.pending_tombstones.size() == 1 && d2.pending_tombstones.empty());
  ASSERT_EQ(d2.pending_eager.count(key.hash()), 1u);
  EXPECT_EQ(d2.pending_eager.at(key.hash()).n, 3);

  for (int order = 0; order < 2; ++order) {
    core::KernelTable merged = base;
    merged.merge(order == 0 ? d1 : d2);
    merged.merge(order == 0 ? d2 : d1);
    ASSERT_EQ(merged.K.count(key), 1u) << "order " << order;
    // 2 base pending + 1 own + 3 grown = 6 samples either way.
    EXPECT_EQ(merged.K.at(key).n, 6) << "order " << order;
    EXPECT_EQ(merged.pending_eager.count(key.hash()), 0u) << "order " << order;
  }
}

TEST(StatSnapshot, StoreSnapshotRestoreRoundTrips) {
  const core::StatSnapshot snap = sweep_snapshot(Policy::OnlinePropagation, false);
  critter::Config pc;
  pc.mode = critter::ExecMode::Model;
  critter::Store store(snap.nranks(), pc);
  EXPECT_FALSE(store.snapshot().same_statistics(snap));
  store.restore(snap);
  EXPECT_TRUE(store.snapshot().same_statistics(snap));
  // diff against the restored base is empty until the store evolves
  const core::StatSnapshot delta = store.diff(snap);
  for (const core::KernelTable& t : delta.ranks) EXPECT_TRUE(t.K.empty());
}

TEST(StatSnapshot, BinarySerializationRoundTrips) {
  // Eager propagation populates aggregation hashes and (potentially)
  // pending entries; extrapolation populates the size model.
  for (Policy policy : {Policy::ConditionalExecution, Policy::EagerPropagation,
                        Policy::OnlinePropagation}) {
    for (bool extrapolate : {false, true}) {
      const core::StatSnapshot snap = sweep_snapshot(policy, extrapolate);
      const core::StatSnapshot loaded =
          core::StatSnapshot::from_string(snap.to_string());
      EXPECT_TRUE(loaded.same_statistics(snap))
          << critter::policy_name(policy) << " extrapolate=" << extrapolate;
    }
  }
}

TEST(StatSnapshot, FileRoundTripAutoDetectsFormat) {
  const core::StatSnapshot snap = sweep_snapshot(Policy::OnlinePropagation, true);
  const char* bin_path = "test_stat_store_snapshot.bin";
  snap.save_file(bin_path);
  EXPECT_TRUE(core::StatSnapshot::load_file(bin_path).same_statistics(snap));
  std::remove(bin_path);
}

TEST(StatSnapshot, LoadRejectsGarbage) {
  EXPECT_THROW(core::StatSnapshot::from_string("this is not a snapshot"),
               std::runtime_error);
  EXPECT_THROW(core::StatSnapshot::from_string(""), std::runtime_error);
  // JSON-shaped input fails on the binary magic.
  EXPECT_THROW(core::StatSnapshot::from_string(
                   "{\"format\":\"something-else\",\"version\":1}"),
               std::runtime_error);
}

namespace {

/// A compact snapshot (two ranks unless asked otherwise) for the
/// byte-level fuzz sweeps (every truncation point / every flipped byte),
/// where a full sweep snapshot would make the quadratic sweep take minutes.
core::StatSnapshot small_snapshot(int nranks = 2) {
  core::StatSnapshot s;
  for (int r = 0; r < nranks; ++r) s.ranks.push_back(make_table(nranks, r + 1));
  s.ranks.back().pending_eager.emplace(key_of(5, 16, 16).hash(),
                                       samples({0.25, 0.5}));
  return s;
}

/// The two ways a payload is admitted: decoded, or validated without
/// building a table (what a holder that keeps statistics only as bytes
/// checks).  Every fuzzed payload must be rejected by both.
using Admit = void (*)(std::string_view);
const std::pair<const char*, Admit> kAdmitters[] = {
    {"from_string",
     [](std::string_view b) { (void)core::StatSnapshot::from_string(b); }},
    {"check_snapshot_payload",
     [](std::string_view b) { core::check_snapshot_payload(b); }},
};

}  // namespace

TEST(StatSnapshot, EveryBinaryTruncationIsRejected) {
  // Fuzz-ish truncation sweep: a short read anywhere in the file must
  // surface as a clear snapshot error (never a deep CHECK on garbage
  // records, an allocation blow-up, or silently partial state).
  const std::string bytes = small_snapshot().to_string();
  ASSERT_GT(bytes.size(), 64u);
  for (const auto& [name, admit] : kAdmitters) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      try {
        admit(std::string_view(bytes).substr(0, len));
        FAIL() << name << ": truncation at byte " << len << " accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("stat snapshot"),
                  std::string::npos)
            << name << " at byte " << len << ": " << e.what();
      }
    }
  }
}

TEST(StatSnapshot, EveryBinaryByteCorruptionIsRejected) {
  // Flip every byte in turn (XOR 0xFF).  Header corruption trips the
  // magic/version/rank-count checks; anything inside a rank chunk trips
  // its checksum before a single record is decoded.
  const std::string bytes = small_snapshot().to_string();
  for (const auto& [name, admit] : kAdmitters) {
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      std::string corrupt = bytes;
      corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
      EXPECT_THROW(admit(corrupt), std::runtime_error)
          << name << " at byte " << at;
    }
  }
}

TEST(StatSnapshot, UnknownVersionsAreRejected) {
  const core::StatSnapshot snap = sweep_snapshot(Policy::OnlinePropagation, false);
  // Reading an unknown version fails with the version named.
  std::string bytes = snap.to_string();
  bytes[8] = 99;  // bytes [8,12) hold the little-endian version u32
  try {
    core::StatSnapshot::from_string(bytes);
    FAIL() << "unknown binary version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(StatSnapshot, PreviousChecksumVersionFailsByVersionNotAsCorrupt) {
  // Version 2 shares version 3's layout but checksummed its chunks with the
  // retired byte-serial hash, and version 1 had no chunk framing at all.
  // The reader checks the version before any checksum, so a payload
  // relabelled as either reports its version instead of "corrupt".
  ASSERT_EQ(core::StatSnapshot::current_version(), 3u);
  for (const char old_version : {1, 2}) {
    std::string bytes = small_snapshot().to_string();
    bytes[8] = old_version;  // bytes [8,12) hold the little-endian version u32
    const std::string expected =
        "unsupported version " + std::to_string(old_version);
    try {
      core::StatSnapshot::from_string(bytes);
      FAIL() << "version-" << int{old_version} << " payload accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(expected), std::string::npos) << what;
      EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
    }
    EXPECT_THROW(core::check_snapshot_payload(bytes), std::runtime_error);
  }
}

TEST(StatSnapshot, DeltaTombstonesSurviveSerialization) {
  // A diff()-produced delta that tombstoned a pending entry must carry the
  // tombstone through serialization — the file-borne exchange path depends
  // on merge() seeing it on the far side.
  core::StatSnapshot base;
  base.ranks.push_back(make_table(2, 1));
  base.ranks.push_back(make_table(2, 2));
  const core::KernelKey pending_key = key_of(7, 256, 128);
  base.ranks[0].pending_eager.emplace(pending_key.hash(),
                                      samples({0.5, 0.75}));

  core::StatSnapshot evolved = base;
  // First local sighting: the profiler registers the kernel and absorbs
  // the pending moments into K.
  core::KernelStats grown = samples({2.0});
  grown.merge(base.ranks[0].pending_eager.at(pending_key.hash()));
  evolved.ranks[0].K.emplace(pending_key, grown);
  evolved.ranks[0].key_of_hash.emplace(pending_key.hash(), pending_key);
  evolved.ranks[0].pending_eager.erase(pending_key.hash());

  const core::StatSnapshot delta = evolved.diff(base);
  ASSERT_EQ(delta.ranks[0].pending_tombstones.size(), 1u);

  // The fold a peer performs on the in-memory delta — the reference the
  // file transport must add nothing to.
  core::StatSnapshot replay_mem = base;
  replay_mem.merge(delta);
  EXPECT_TRUE(replay_mem.ranks[0].pending_eager.empty());
  EXPECT_EQ(replay_mem.ranks[0].K.at(pending_key).n, 3);

  const core::StatSnapshot loaded =
      core::StatSnapshot::from_string(delta.to_string());
  EXPECT_EQ(loaded.ranks[0].pending_tombstones,
            delta.ranks[0].pending_tombstones);
  // from_string() (re-)registers the world channel in every table; a delta
  // carries only new channels, so compare against that normal form.
  core::StatSnapshot expect = delta;
  for (core::KernelTable& t : expect.ranks) t.init_world(expect.nranks());
  EXPECT_TRUE(loaded.same_statistics(expect));
  // Folding the round-tripped delta is bit-identical to folding the
  // in-memory one — including the absorb-once pending accounting, which
  // only works if the tombstone survived the file.
  core::StatSnapshot replay = base;
  replay.merge(loaded);
  EXPECT_TRUE(replay.same_statistics(replay_mem));
}

TEST(StatSnapshot, SnapshotDiffIsMergeInverse) {
  core::StatSnapshot base;
  base.ranks.push_back(make_table(4, 1));
  base.ranks.push_back(make_table(4, 2));
  core::StatSnapshot delta_in;
  delta_in.ranks.push_back(make_table(4, 3));
  delta_in.ranks.push_back(make_table(4, 5));
  core::StatSnapshot evolved = base;
  evolved.merge(delta_in);
  const core::StatSnapshot delta = evolved.diff(base);
  core::StatSnapshot replay = base;
  replay.merge(delta);
  EXPECT_TRUE(replay.same_statistics(evolved));
  core::StatSnapshot mismatched;
  mismatched.ranks.push_back(make_table(4, 1));
  EXPECT_THROW(evolved.diff(mismatched), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: serialization must preserve the fixture statistics
// ---------------------------------------------------------------------------

#include <fstream>

#include "golden_digest.hpp"
#include "util/hash.hpp"

TEST(StatSnapshot, GoldenSweepStatisticsSurviveSerializationBitIdentical) {
  // The fixture is digest_result + digest_snapshot of the online golden
  // sweep; the snapshot section pins every statistic's exact bits.
  const std::string path =
      std::string(CRITTER_GOLDEN_DIR) + "/sweep_online.digest";
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open()) << "missing golden fixture " << path
                            << " (regenerate with tools/gen_golden)";
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string fixture = buf.str();
  const std::size_t at = fixture.find("snapshot nranks=");
  ASSERT_NE(at, std::string::npos) << "fixture has no snapshot section";
  const std::string expected = fixture.substr(at);

  const tune::TuneResult r = critter::testing::golden_sweep("online");
  EXPECT_EQ(critter::testing::digest_snapshot(r.stats), expected)
      << "live sweep statistics diverge from the fixture";

  // The writer's bytes themselves are pinned too, not just the values they
  // decode to: size and checksum64 of the version-3 payload.
  const std::string bytes = r.stats.to_string();
  EXPECT_EQ(bytes.size(), 442636u);
  EXPECT_EQ(critter::util::checksum64(bytes.data(), bytes.size()),
            0x506530957a508069ull)
      << "the version-3 writer's bytes changed";

  // In-memory binary round-trip: string-backed serialize, span-based parse.
  const core::StatSnapshot parsed = core::StatSnapshot::from_string(bytes);
  EXPECT_EQ(critter::testing::digest_snapshot(parsed), expected)
      << "to_string/from_string round-trip bent a statistic";

  // File round-trip through the mmap-backed loader.
  const std::string tmp = "golden_roundtrip.snap";
  r.stats.save_file(tmp);
  const core::StatSnapshot loaded = core::StatSnapshot::load_file(tmp);
  std::remove(tmp.c_str());
  EXPECT_EQ(critter::testing::digest_snapshot(loaded), expected)
      << "save_file/load_file round-trip bent a statistic";
}

TEST(StatSnapshot, AChecksummedChunkWithMalformedRecordsIsRejected) {
  // A correct checksum only proves the bytes arrived as sent.  The
  // validator a bytes-only holder admits payloads by must also walk each
  // chunk's records as the decoder would, or it would store bytes no
  // reader can load.
  std::string full = small_snapshot(1).to_string();
  ASSERT_NO_THROW(core::check_snapshot_payload(full));
  const std::size_t body_at = 8 + 4 + 4 + 16;  // magic, version, nranks, frame
  const std::uint64_t huge = ~0ull;
  std::memcpy(full.data() + body_at + 8, &huge, 8);  // kernel count
  const std::uint64_t sum = critter::util::checksum64(
      full.data() + body_at, full.size() - body_at);
  std::memcpy(full.data() + body_at - 8, &sum, 8);
  EXPECT_THROW(core::check_snapshot_payload(full), std::runtime_error);
  EXPECT_THROW(core::StatSnapshot::from_string(full), std::runtime_error);
}
