// Internal propagation message: wire layout, pack/unpack, and the
// associative fold used as the internal allreduce operator; plus the byte
// codec every file and frame format shares (core/wire_codec.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/wire.hpp"
#include "core/wire_codec.hpp"

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
  core::IntMsg ma(4, 0), mb(4, 0);
  ma.pack(a, false);
  mb.pack(b, true);
  auto fold = core::IntMsg::fold_fn(4, 0);
  fold(ma.data(), mb.data(), ma.bytes());
  EXPECT_DOUBLE_EQ(mb.header().metrics[0], 3.0);  // exec max
  EXPECT_DOUBLE_EQ(mb.header().metrics[4], 100.0);  // comm_cost max
  EXPECT_EQ(mb.header().execute, 1);  // any-rank-wants => execute
}

TEST(Wire, FoldAdoptsLongerPathsTildeTable) {
  RankProfiler longer = make_profiler(5.0), shorter = make_profiler(1.0);
  longer.tilde[42] = 7;
  shorter.tilde[99] = 3;
  core::IntMsg ml(4, 0), ms(4, 0);
  ml.pack(longer, false);
  ms.pack(shorter, false);
  auto fold = core::IntMsg::fold_fn(4, 0);
  // fold longer INTO shorter: shorter's buffer must adopt longer's table
  fold(ml.data(), ms.data(), ml.bytes());
  ASSERT_EQ(ms.header().n_tilde, 1);
  EXPECT_EQ(ms.tilde()[0].key, 42u);
  EXPECT_EQ(ms.tilde()[0].freq, 7);
}

TEST(Wire, FoldIsAssociativeOnMetrics) {
  RankProfiler r1 = make_profiler(1.0), r2 = make_profiler(4.0),
               r3 = make_profiler(2.5);
  auto fold = core::IntMsg::fold_fn(4, 0);
  // (r1 + r2) + r3
  core::IntMsg a1(4, 0), a2(4, 0), a3(4, 0);
  a1.pack(r1, false);
  a2.pack(r2, false);
  a3.pack(r3, true);
  fold(a1.data(), a2.data(), a1.bytes());
  fold(a2.data(), a3.data(), a2.bytes());
  // r1 + (r2 + r3)
  core::IntMsg b1(4, 0), b2(4, 0), b3(4, 0);
  b1.pack(r1, false);
  b2.pack(r2, false);
  b3.pack(r3, true);
  fold(b2.data(), b3.data(), b2.bytes());
  fold(b1.data(), b3.data(), b1.bytes());
  for (int i = 0; i < critter::PathMetrics::kFields; ++i)
    EXPECT_DOUBLE_EQ(a3.header().metrics[i], b3.header().metrics[i]);
  EXPECT_EQ(a3.header().execute, b3.header().execute);
}

TEST(Wire, UnpackAdoptsMaxima) {
  RankProfiler sender = make_profiler(9.0);
  sender.tilde[7] = 13;
  core::IntMsg m(4, 0);
  m.pack(sender, true);

  RankProfiler receiver = make_profiler(1.0);
  receiver.tilde[8] = 2;
  Config cfg;
  m.unpack_into(receiver, cfg, /*chan=*/0);
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
  Config cfg;
  m.unpack_into(receiver, cfg, 0);
  EXPECT_EQ(receiver.tilde.count(8), 1u);  // own (longer) table kept
}

TEST(Wire, EagerEntriesMergeByChanAlgebra) {
  // Two messages carrying stats for the same kernel with the same
  // aggregation base must Chan-merge (n adds, mean pools).
  core::IntMsg a(2, 4), b(2, 4);
  RankProfiler rp = make_profiler(1.0);
  a.pack(rp, false);
  b.pack(rp, false);
  core::WireEager ea{/*key=*/5, /*agg=*/0, /*n=*/10, /*mean=*/2.0, /*m2=*/1.0};
  core::WireEager eb{5, 0, 30, 4.0, 2.0};
  a.header().n_eager = 1;
  a.eager()[0] = ea;
  b.header().n_eager = 1;
  b.eager()[0] = eb;
  auto fold = core::IntMsg::fold_fn(2, 4);
  fold(a.data(), b.data(), a.bytes());
  ASSERT_EQ(b.header().n_eager, 1);
  EXPECT_EQ(b.eager()[0].n, 40);
  EXPECT_NEAR(b.eager()[0].mean, (10 * 2.0 + 30 * 4.0) / 40.0, 1e-12);
}

TEST(Wire, EagerRespectsCapacity) {
  core::IntMsg a(2, 2), b(2, 2);
  RankProfiler rp = make_profiler(1.0);
  a.pack(rp, false);
  b.pack(rp, false);
  b.header().n_eager = 2;
  b.eager()[0] = {1, 0, 1, 1.0, 0.0};
  b.eager()[1] = {2, 0, 1, 1.0, 0.0};
  a.header().n_eager = 1;
  a.eager()[0] = {3, 0, 1, 1.0, 0.0};  // no room left in b
  auto fold = core::IntMsg::fold_fn(2, 2);
  fold(a.data(), b.data(), a.bytes());
  EXPECT_EQ(b.header().n_eager, 2);  // capacity respected, entry dropped
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
