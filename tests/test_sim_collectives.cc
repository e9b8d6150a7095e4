#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sim/api.hpp"
#include "sim/engine.hpp"

namespace sim = critter::sim;

namespace {
sim::Machine quiet() { return sim::Machine::noiseless(); }
}  // namespace

class CollectiveRankCounts : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRankCounts, BcastDeliversRootData) {
  const int p = GetParam();
  sim::Engine e(p, quiet());
  e.run([&](sim::RankCtx& ctx) {
    std::vector<double> buf(8, ctx.rank == 2 % p ? 3.25 : -1.0);
    sim::bcast(buf.data(), 8 * 8, 2 % p, sim::world());
    for (double v : buf) EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST_P(CollectiveRankCounts, AllreduceSumsContributions) {
  const int p = GetParam();
  sim::Engine e(p, quiet());
  e.run([&](sim::RankCtx& ctx) {
    double x = ctx.rank + 1.0, y = 0.0;
    sim::allreduce(&x, &y, 8, sim::reduce_sum_double(), sim::world());
    EXPECT_DOUBLE_EQ(y, p * (p + 1) / 2.0);
  });
}

TEST_P(CollectiveRankCounts, ReduceMaxAtRootOnly) {
  const int p = GetParam();
  sim::Engine e(p, quiet());
  e.run([&](sim::RankCtx& ctx) {
    double x = static_cast<double>(ctx.rank), y = -1.0;
    sim::reduce(&x, &y, 8, sim::reduce_max_double(), 0, sim::world());
    if (ctx.rank == 0) EXPECT_DOUBLE_EQ(y, p - 1.0);
    else EXPECT_DOUBLE_EQ(y, -1.0);
  });
}

TEST_P(CollectiveRankCounts, AllgatherConcatenatesInRankOrder) {
  const int p = GetParam();
  sim::Engine e(p, quiet());
  e.run([&](sim::RankCtx& ctx) {
    std::int64_t mine = 100 + ctx.rank;
    std::vector<std::int64_t> all(p);
    sim::allgather(&mine, 8, all.data(), sim::world());
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], 100 + r);
  });
}

TEST_P(CollectiveRankCounts, GatherScatterRoundTrip) {
  const int p = GetParam();
  sim::Engine e(p, quiet());
  e.run([&](sim::RankCtx& ctx) {
    const int root = p / 2;
    std::int64_t mine = 7 * ctx.rank + 1;
    std::vector<std::int64_t> gathered(ctx.rank == root ? p : 0);
    sim::gather(&mine, 8, gathered.data(), root, sim::world());
    std::int64_t back = -1;
    sim::scatter(ctx.rank == root ? gathered.data() : nullptr, 8, &back, root,
                 sim::world());
    EXPECT_EQ(back, mine);
  });
}

TEST_P(CollectiveRankCounts, BarrierSynchronizesClocks) {
  const int p = GetParam();
  sim::Engine e(p, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::advance(static_cast<double>(ctx.rank));  // rank r is r seconds late
    sim::barrier(sim::world());
    EXPECT_GE(sim::now(), p - 1.0);  // everyone leaves after the last arrival
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveRankCounts,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(Collectives, CostMatchesMachineModel) {
  const sim::Machine m = quiet();
  const int p = 8, bytes = 4096;
  sim::Engine e(p, m);
  e.run([&](sim::RankCtx&) {
    std::vector<char> buf(bytes);
    sim::bcast(buf.data(), bytes, 0, sim::world());
    EXPECT_NEAR(sim::now(), m.coll_cost(sim::CollType::Bcast, bytes, p), 1e-15);
  });
}

TEST(Collectives, SplitByParityFormsTwoGroups) {
  sim::Engine e(8, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm half = sim::split(sim::world(), ctx.rank % 2, ctx.rank);
    EXPECT_EQ(sim::comm_size(half), 4);
    EXPECT_EQ(sim::comm_rank(half), ctx.rank / 2);
    // Members are the world ranks of my parity class, ascending.
    const auto& mem = sim::engine().comm_members(half);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(mem[i], 2 * i + ctx.rank % 2);
    // Collectives on the sub-communicator work.
    std::int64_t x = ctx.rank, s = 0;
    sim::allreduce(&x, &s, 8, sim::reduce_sum_i64(), half);
    EXPECT_EQ(s, ctx.rank % 2 == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7);
  });
}

TEST(Collectives, SplitKeyControlsLocalRankOrder) {
  sim::Engine e(4, quiet());
  e.run([&](sim::RankCtx& ctx) {
    // reverse order by key
    sim::Comm c = sim::split(sim::world(), 0, 100 - ctx.rank);
    EXPECT_EQ(sim::comm_rank(c), 3 - ctx.rank);
  });
}

TEST(Collectives, NestedSplitGrid) {
  // 4x4 grid: row comms and column comms.
  sim::Engine e(16, quiet());
  e.run([&](sim::RankCtx& ctx) {
    const int row = ctx.rank / 4, col = ctx.rank % 4;
    sim::Comm rowc = sim::split(sim::world(), row, col);
    sim::Comm colc = sim::split(sim::world(), col, row);
    EXPECT_EQ(sim::comm_size(rowc), 4);
    EXPECT_EQ(sim::comm_size(colc), 4);
    std::int64_t x = ctx.rank, rs = 0, cs = 0;
    sim::allreduce(&x, &rs, 8, sim::reduce_sum_i64(), rowc);
    sim::allreduce(&x, &cs, 8, sim::reduce_sum_i64(), colc);
    EXPECT_EQ(rs, 4 * (4 * row) + 0 + 1 + 2 + 3);
    EXPECT_EQ(cs, 4 * col + 0 + 4 + 8 + 12);
  });
}

TEST(Collectives, MismatchedTypesThrow) {
  sim::Engine e(2, quiet());
  EXPECT_THROW(e.run([&](sim::RankCtx& ctx) {
    std::int64_t x = 0, y = 0;
    if (ctx.rank == 0)
      sim::allreduce(&x, &y, 8, sim::reduce_sum_i64(), sim::world());
    else
      sim::barrier(sim::world());
  }),
               std::runtime_error);
}

TEST(Collectives, MismatchedBytesThrow) {
  sim::Engine e(2, quiet());
  EXPECT_THROW(e.run([&](sim::RankCtx& ctx) {
    std::vector<char> b(32);
    sim::bcast(b.data(), ctx.rank == 0 ? 16 : 32, 0, sim::world());
  }),
               std::runtime_error);
}

TEST(Collectives, NonblockingAllreduceOverlaps) {
  const sim::Machine m = quiet();
  sim::Engine e(4, m);
  e.run([&](sim::RankCtx&) {
    double x = 1.0, y = 0.0;
    sim::Request r = sim::iallreduce(&x, &y, 8, sim::reduce_sum_double(), sim::world());
    sim::advance(1.0);  // all ranks compute while the allreduce happens
    sim::wait(r);
    EXPECT_DOUBLE_EQ(y, 4.0);
    // completion = max arrival (0) + cost, overlapped by the 1s compute
    EXPECT_DOUBLE_EQ(sim::now(), 1.0);
  });
}

TEST(Collectives, ModelModeNullBuffersMoveNoDataButCost) {
  const sim::Machine m = quiet();
  const int p = 4, bytes = 1 << 16;
  sim::Engine e(p, m);
  e.run([&](sim::RankCtx&) {
    sim::bcast(nullptr, bytes, 0, sim::world());
    EXPECT_NEAR(sim::now(), m.coll_cost(sim::CollType::Bcast, bytes, p), 1e-15);
  });
}

TEST(Collectives, ManySmallCollectivesAccumulateLatency) {
  const sim::Machine m = quiet();
  const int iters = 100;
  sim::Engine e(4, m);
  e.run([&](sim::RankCtx&) {
    for (int i = 0; i < iters; ++i) sim::barrier(sim::world());
    EXPECT_NEAR(sim::now(),
                iters * m.coll_cost(sim::CollType::Barrier, 0, 4), 1e-12);
  });
}

// --- a consensus fused with its collective ---------------------------------
//
// A blocking collective with a sim::Consensus is one engine operation.  It
// must reproduce, bit for bit, the two plain operations it replaces: an
// allreduce of the consensus size, then the user collective only if the
// agreement says execute.

namespace {

constexpr int kConsensusBytes = 4168;  // an IntMsg's wire size at ~K cap 256

struct TestVote {
  bool want = false;
  int local_rank = -1;
};

bool or_fold(void* const* members, int n) {
  bool any = false;
  for (int i = 0; i < n; ++i) {
    const auto* v = static_cast<const TestVote*>(members[i]);
    EXPECT_EQ(v->local_rank, i) << "fold must see members in local-rank order";
    any = any || v->want;
  }
  return any;
}

/// What one rank observed of one collective.
struct Observed {
  double agreed = 0.0;
  double after = 0.0;
  bool execute = false;
  std::vector<double> received;
};

struct ConsensusRun {
  std::vector<double> final_clocks;
  std::int64_t coll_count = 0;
  std::vector<std::vector<Observed>> per_rank;  // [world rank][collective]
};

/// 8 ranks on a noisy machine, split by parity into two 4-rank
/// communicators whose local order reverses the world order.  Each round
/// every rank first works a rank- and round-dependent time, then runs one
/// collective of `type` on its half with real buffers.  Even rounds execute
/// (one member wants to), odd rounds skip.  `fused` runs each as one
/// operation with a consensus; otherwise as an allreduce of the consensus
/// size followed, on execute, by the collective.
ConsensusRun run_consensus(sim::CollType type, bool fused) {
  constexpr int kRanks = 8, kRounds = 6, kWords = 3;
  ConsensusRun out;
  out.per_rank.resize(kRanks);
  sim::Engine e(kRanks, sim::Machine{});
  e.run([&](sim::RankCtx& ctx) {
    const sim::Comm half = sim::split(sim::world(), ctx.rank % 2, -ctx.rank);
    const int p = sim::comm_size(half), me = sim::comm_rank(half);
    for (int round = 0; round < kRounds; ++round) {
      sim::advance(1e-6 * ((3 * ctx.rank + 5 * round) % 7));
      const int root = round % p;
      const bool want = round % 2 == 0 && me == (round / 2) % p;
      // Send and receive buffers sized for the widest type (scatter and
      // gather move kWords per member).
      std::vector<double> send(kWords * p), recv(kWords * p, -1.0);
      for (int i = 0; i < kWords * p; ++i)
        send[i] = 100.0 * round + 10.0 * ctx.rank + i + 0.25;
      void* const sbuf = send.data();
      void* const rbuf = type == sim::CollType::Bcast ? sbuf : recv.data();
      const int bytes = type == sim::CollType::Barrier ? 0 : kWords * 8;
      const sim::ReduceFn fn = sim::reduce_sum_double();

      Observed o;
      if (fused) {
        TestVote vote{want, me};
        sim::Consensus consensus{&vote, kConsensusBytes, or_fold};
        sim::engine().f_coll(type, sbuf, rbuf, bytes, root, fn, half,
                             &consensus);
        o.agreed = consensus.agreed;
        o.execute = consensus.execute;
      } else {
        std::vector<std::int64_t> flag(kConsensusBytes / 8, 0),
            agreed(kConsensusBytes / 8, 0);
        flag[0] = want ? 1 : 0;
        sim::allreduce(flag.data(), agreed.data(), kConsensusBytes,
                       sim::reduce_max_i64(), half);
        o.agreed = sim::now();
        o.execute = agreed[0] != 0;
        if (o.execute)
          sim::engine().f_coll(type, sbuf, rbuf, bytes, root, fn, half);
      }
      o.after = sim::now();
      o.received = type == sim::CollType::Bcast ? send : recv;
      out.per_rank[ctx.rank].push_back(std::move(o));
    }
  });
  out.final_clocks = e.final_clocks();
  out.coll_count = e.coll_count();
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

class FusedConsensus : public ::testing::TestWithParam<sim::CollType> {};

TEST_P(FusedConsensus, MatchesAllreduceThenCollectiveBitForBit) {
  const ConsensusRun fused = run_consensus(GetParam(), true);
  const ConsensusRun plain = run_consensus(GetParam(), false);
  EXPECT_EQ(fused.coll_count, plain.coll_count);
  ASSERT_EQ(fused.final_clocks.size(), plain.final_clocks.size());
  for (std::size_t r = 0; r < fused.final_clocks.size(); ++r) {
    EXPECT_EQ(bits(fused.final_clocks[r]), bits(plain.final_clocks[r]))
        << "rank " << r;
    ASSERT_EQ(fused.per_rank[r].size(), plain.per_rank[r].size());
    int executed = 0;
    for (std::size_t k = 0; k < fused.per_rank[r].size(); ++k) {
      const Observed& f = fused.per_rank[r][k];
      const Observed& q = plain.per_rank[r][k];
      SCOPED_TRACE(::testing::Message() << "rank " << r << " round " << k);
      EXPECT_EQ(f.execute, q.execute);
      EXPECT_EQ(f.execute, k % 2 == 0);
      EXPECT_EQ(bits(f.agreed), bits(q.agreed));
      EXPECT_EQ(bits(f.after), bits(q.after));
      EXPECT_EQ(f.received, q.received);
      executed += f.execute ? 1 : 0;
    }
    EXPECT_EQ(executed, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockingTypes, FusedConsensus,
    ::testing::Values(sim::CollType::Bcast, sim::CollType::Reduce,
                      sim::CollType::Allreduce, sim::CollType::Allgather,
                      sim::CollType::Gather, sim::CollType::Scatter,
                      sim::CollType::Barrier),
    [](const ::testing::TestParamInfo<sim::CollType>& info) {
      return std::string(sim::coll_name(info.param));
    });

TEST(Collectives, FusedConsensusCountsAgreementAndExecutedCollective) {
  // 2 splits + 6 agreements + 3 executed collectives per half.
  const ConsensusRun fused = run_consensus(sim::CollType::Allreduce, true);
  EXPECT_EQ(fused.coll_count, 1 + 2 * (6 + 3));
}

// A send may copy less than it is charged for: the payload arrives at the
// same virtual time as the full message would, and only its bytes land.
class ShortPayload : public ::testing::TestWithParam<bool> {};

TEST_P(ShortPayload, ArrivesLikeTheFullMessageAndCopiesOnlyThePayload) {
  const bool receiver_posts_first = GetParam();
  constexpr int kBytes = 256, kPayload = 40;
  auto run = [&](int payload, std::vector<unsigned char>& received) {
    sim::Engine e(2, sim::Machine{});
    e.run([&](sim::RankCtx& ctx) {
      if (ctx.rank == 0) {
        std::vector<unsigned char> out(kBytes);
        std::iota(out.begin(), out.end(), 0);
        if (receiver_posts_first) sim::advance(1e-5);
        sim::engine().f_send(out.data(), kBytes, 1, 7, sim::world(), payload);
      } else {
        received.assign(kBytes, 0xEE);
        if (!receiver_posts_first) sim::advance(1e-5);
        sim::recv(received.data(), kBytes, 0, 7, sim::world());
      }
    });
    return e.final_clocks();
  };
  std::vector<unsigned char> full, part;
  const std::vector<double> full_clocks = run(-1, full);
  const std::vector<double> part_clocks = run(kPayload, part);
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(bits(part_clocks[r]), bits(full_clocks[r])) << "rank " << r;
  for (int i = 0; i < kBytes; ++i) {
    EXPECT_EQ(full[i], static_cast<unsigned char>(i));
    EXPECT_EQ(part[i], i < kPayload ? static_cast<unsigned char>(i) : 0xEE)
        << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Matching, ShortPayload, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PostedReceive" : "Mailbox";
                         });
