// Internal propagation message: the point-to-point piggyback's wire layout
// and pack/unpack, and the typed fold of a blocking collective's consensus;
// plus the byte codec every file and frame format shares
// (core/wire_codec.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "core/wire_codec.hpp"
#include "util/rng.hpp"

namespace core = critter::core;
using critter::Config;
using critter::RankProfiler;

namespace {

RankProfiler make_profiler(double exec_time) {
  RankProfiler rp;
  rp.table.channels.init_world(16);
  rp.path.exec_time = exec_time;
  rp.path.comp_time = exec_time / 2;
  rp.path.sync_cost = 10;
  return rp;
}

/// Fold the members' votes (member 0 first), as the engine does once every
/// member of a collective has arrived; returns the execute verdict.
bool fold_votes(std::initializer_list<std::pair<RankProfiler*, bool>> members,
                const Config& cfg) {
  std::vector<core::Vote> votes;
  for (const auto& [rp, want] : members)
    votes.push_back(core::Vote{rp, &cfg, /*chan=*/0, want});
  std::vector<void*> ptrs;
  for (core::Vote& v : votes) ptrs.push_back(&v);
  return core::agree(ptrs.data(), static_cast<int>(ptrs.size()));
}

Config tilde_cap(int cap) {
  Config cfg;
  cfg.tilde_capacity = cap;
  return cfg;
}

/// A ~K table's (key, count) entries in key order.
std::vector<std::pair<std::uint64_t, std::int64_t>> entries_of(
    const RankProfiler::CountMap& tilde) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  tilde.for_each([&](std::uint64_t key, std::int64_t freq) {
    out.push_back({key, freq});
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(Wire, SizesAreDeterministic) {
  EXPECT_EQ(core::IntMsg::wire_bytes(0, 0), static_cast<int>(sizeof(core::WireHeader)));
  EXPECT_EQ(core::IntMsg::wire_bytes(4, 0),
            static_cast<int>(sizeof(core::WireHeader) + 4 * sizeof(core::WireTilde)));
  core::IntMsg m(8, 2);
  EXPECT_EQ(m.bytes(), core::IntMsg::wire_bytes(8, 2));
}

TEST(Wire, PackRoundTripsTilde) {
  RankProfiler rp = make_profiler(1.0);
  rp.tilde[111] = 5;
  rp.tilde[222] = 9;
  core::IntMsg m(8, 0);
  m.pack(rp, true);
  EXPECT_EQ(m.header().n_tilde, 2);
  EXPECT_EQ(m.header().execute, 1);
  EXPECT_DOUBLE_EQ(m.header().metrics[0], 1.0);
}

TEST(Wire, PackTruncatesToHighestFrequencies) {
  RankProfiler rp = make_profiler(1.0);
  for (int i = 0; i < 20; ++i) rp.tilde[1000 + i] = i + 1;
  core::IntMsg m(4, 0);
  m.pack(rp, false);
  ASSERT_EQ(m.header().n_tilde, 4);
  for (int i = 0; i < 4; ++i) EXPECT_GE(m.tilde()[i].freq, 17);  // top-4: 17..20
}

TEST(Wire, FoldTakesElementwiseMaxOfMetrics) {
  RankProfiler a = make_profiler(2.0), b = make_profiler(3.0);
  a.path.comm_cost = 100;  // a wins on comm even though b wins on exec
  // fold a into b: every member adopts the maxima
  const bool execute = fold_votes({{&b, true}, {&a, false}}, tilde_cap(4));
  for (const RankProfiler* rp : {&a, &b}) {
    EXPECT_DOUBLE_EQ(rp->path.as_array()[0], 3.0);    // exec max
    EXPECT_DOUBLE_EQ(rp->path.as_array()[4], 100.0);  // comm_cost max
  }
  EXPECT_TRUE(execute);  // any-rank-wants => execute
}

TEST(Wire, FoldAdoptsLongerPathsTildeTable) {
  RankProfiler longer = make_profiler(5.0), shorter = make_profiler(1.0);
  longer.tilde[42] = 7;
  shorter.tilde[99] = 3;
  // fold longer INTO shorter: shorter must adopt longer's table
  fold_votes({{&shorter, false}, {&longer, false}}, tilde_cap(4));
  ASSERT_EQ(shorter.tilde.size(), 1u);
  ASSERT_NE(shorter.tilde.find(42), nullptr);
  EXPECT_EQ(*shorter.tilde.find(42), 7);
}

TEST(Wire, FoldCarriesTheFirstLongestPathsTildeAsPacked) {
  // b and c tie on the longest path: the first of them is carried,
  // truncated to the ~K capacity exactly as a piggyback packs it.
  RankProfiler a = make_profiler(1.0), b = make_profiler(5.0),
               c = make_profiler(5.0);
  for (int i = 0; i < 20; ++i) b.tilde[1000 + i] = i + 1;
  c.tilde[7] = 1;
  core::IntMsg packed(4, 0);
  packed.pack(b, false);
  fold_votes({{&a, false}, {&b, false}, {&c, false}}, tilde_cap(4));
  ASSERT_EQ(a.tilde.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const core::WireTilde& t = packed.tilde()[i];
    ASSERT_NE(a.tilde.find(t.key), nullptr);
    EXPECT_EQ(*a.tilde.find(t.key), t.freq);
  }
  EXPECT_EQ(c.tilde.size(), 1u);  // on the longest path itself: keeps its own
}

TEST(Wire, FoldIsAssociativeOnMetrics) {
  const RankProfiler r1 = make_profiler(1.0), r2 = make_profiler(4.0),
                     r3 = make_profiler(2.5);
  const Config cfg = tilde_cap(4);
  // (r1 + r2) + r3
  RankProfiler a1 = r1, a2 = r2, a3 = r3;
  const bool a12 = fold_votes({{&a2, false}, {&a1, false}}, cfg);
  const bool a_exec = fold_votes({{&a3, true}, {&a2, a12}}, cfg);
  // r1 + (r2 + r3)
  RankProfiler b1 = r1, b2 = r2, b3 = r3;
  const bool b23 = fold_votes({{&b3, true}, {&b2, false}}, cfg);
  const bool b_exec = fold_votes({{&b3, b23}, {&b1, false}}, cfg);
  for (int i = 0; i < critter::PathMetrics::kFields; ++i)
    EXPECT_DOUBLE_EQ(a3.path.as_array()[i], b3.path.as_array()[i]);
  EXPECT_EQ(a_exec, b_exec);
}

TEST(Wire, UnpackAdoptsMaxima) {
  RankProfiler sender = make_profiler(9.0);
  sender.tilde[7] = 13;
  core::IntMsg m(4, 0);
  m.pack(sender, true);

  RankProfiler receiver = make_profiler(1.0);
  receiver.tilde[8] = 2;
  m.unpack_into(receiver);
  EXPECT_DOUBLE_EQ(receiver.path.exec_time, 9.0);
  // receiver's ~K replaced by the longer path's table
  EXPECT_EQ(receiver.tilde.count(7), 1u);
  EXPECT_EQ(receiver.tilde.count(8), 0u);
}

TEST(Wire, UnpackKeepsOwnTildeWhenLonger) {
  RankProfiler sender = make_profiler(1.0);
  sender.tilde[7] = 13;
  core::IntMsg m(4, 0);
  m.pack(sender, true);

  RankProfiler receiver = make_profiler(5.0);
  receiver.tilde[8] = 2;
  m.unpack_into(receiver);
  EXPECT_EQ(receiver.tilde.count(8), 1u);  // own (longer) table kept
}

TEST(Wire, RunWithoutPathCountsPacksTheHeaderAlone) {
  // A run whose policy reads no ~K carries none, but the piggyback is
  // still charged the full wire size of the configured capacities.
  RankProfiler rp = make_profiler(1.0);
  rp.keep_tilde = false;
  rp.tilde[111] = 5;
  core::IntMsg m(8, 0);
  m.pack(rp, true);
  EXPECT_EQ(m.header().n_tilde, 0);
  EXPECT_EQ(m.payload(), static_cast<int>(sizeof(core::WireHeader)));
  EXPECT_EQ(m.bytes(), core::IntMsg::wire_bytes(8, 0));
  EXPECT_DOUBLE_EQ(m.header().metrics[0], 1.0);
}

TEST(Wire, RunWithoutPathCountsTakesMaximaAndKeepsItsTilde) {
  RankProfiler longer = make_profiler(5.0), shorter = make_profiler(1.0);
  for (RankProfiler* rp : {&longer, &shorter}) rp->keep_tilde = false;
  longer.tilde[42] = 7;
  shorter.tilde[99] = 3;
  const auto before = entries_of(shorter.tilde);
  fold_votes({{&shorter, false}, {&longer, false}}, tilde_cap(4));
  EXPECT_DOUBLE_EQ(shorter.path.exec_time, 5.0);
  EXPECT_EQ(entries_of(shorter.tilde), before);

  // The point-to-point path: the same rule on unpack.
  RankProfiler receiver = make_profiler(1.0);
  receiver.keep_tilde = false;
  receiver.tilde[99] = 3;
  core::IntMsg m(4, 0);
  m.pack(make_profiler(9.0), true);
  m.unpack_into(receiver);
  EXPECT_DOUBLE_EQ(receiver.path.exec_time, 9.0);
  EXPECT_EQ(entries_of(receiver.tilde), before);
}

TEST(Wire, AdoptionByCopyLeavesThePerEntrySet) {
  // The longest path's ~K fits the capacity, so a collective's shorter
  // member takes it by copy; a piggyback's receiver re-inserts it entry by
  // entry.  Both end with the same (key, count) set, replacing their own.
  RankProfiler longer = make_profiler(5.0);
  for (int i = 0; i < 30; ++i) longer.tilde[critter::util::mix64(i)] = i % 7 + 1;
  const auto with_own_table = [] {
    RankProfiler rp = make_profiler(1.0);
    for (int i = 0; i < 50; ++i) rp.tilde[critter::util::mix64(100 + i)] = 2;
    return rp;
  };
  RankProfiler by_copy = with_own_table(), by_entry = with_own_table();
  fold_votes({{&by_copy, false}, {&longer, false}}, tilde_cap(64));
  core::IntMsg m(64, 0);
  m.pack(longer, false);
  m.unpack_into(by_entry);
  ASSERT_EQ(m.header().n_tilde, 30);
  EXPECT_EQ(entries_of(by_copy.tilde), entries_of(longer.tilde));
  EXPECT_EQ(entries_of(by_entry.tilde), entries_of(longer.tilde));
}

TEST(Wire, EagerEntriesMergeByChanAlgebra) {
  // Two members carrying stats for the same kernel with the same
  // aggregation base must Chan-merge (n adds, mean pools).
  core::Agreement acc;
  acc.eager_cap = 4;
  acc.eager = {core::WireEager{/*key=*/5, /*agg=*/0, /*n=*/30, /*mean=*/4.0,
                               /*m2=*/2.0}};
  acc.merge_eager(core::WireEager{5, 0, 10, 2.0, 1.0});
  ASSERT_EQ(acc.eager.size(), 1u);
  EXPECT_EQ(acc.eager[0].n, 40);
  EXPECT_NEAR(acc.eager[0].mean, (10 * 2.0 + 30 * 4.0) / 40.0, 1e-12);
}

TEST(Wire, EagerRespectsCapacity) {
  core::Agreement acc;
  acc.eager_cap = 2;
  acc.eager = {{1, 0, 1, 1.0, 0.0}, {2, 0, 1, 1.0, 0.0}};
  acc.merge_eager({3, 0, 1, 1.0, 0.0});  // no room left
  EXPECT_EQ(acc.eager.size(), 2u);       // capacity respected, entry dropped
}

TEST(WireCodec, BytesAreBoundedByWhatRemainsAndNamedByTheFormat) {
  core::WireWriter w;
  w.u32(7);
  w.str("key");
  w.raw("tail", 4);
  const std::string buf = w.out;
  core::WireReader r{buf, "test format"};
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.str(), "key");
  EXPECT_EQ(r.remaining(), 4u);
  // A length no buffer can hold fails the check instead of wrapping it.
  for (const std::size_t n : {std::size_t{5},
                              std::numeric_limits<std::size_t>::max()}) {
    try {
      r.bytes(n);
      FAIL() << n << " bytes read from 4";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("test format: truncated payload"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(r.bytes(4), "tail");  // a failed read consumed nothing
  EXPECT_TRUE(r.done());
}
