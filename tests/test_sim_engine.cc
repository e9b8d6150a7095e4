#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"
#include "sim/api.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace sim = critter::sim;

namespace {
sim::Machine quiet() { return sim::Machine::noiseless(); }
}  // namespace

TEST(Engine, RunsAllRanksToCompletion) {
  sim::Engine e(8, quiet());
  std::vector<int> visited(8, 0);
  e.run([&](sim::RankCtx& ctx) { visited[ctx.rank] = 1; });
  for (int v : visited) EXPECT_EQ(v, 1);
  EXPECT_DOUBLE_EQ(e.max_time(), 0.0);
}

TEST(Engine, AdvanceMovesOnlyLocalClock) {
  sim::Engine e(4, quiet());
  e.run([&](sim::RankCtx& ctx) {
    if (ctx.rank == 2) sim::advance(5.0);
  });
  EXPECT_DOUBLE_EQ(e.final_clocks()[0], 0.0);
  EXPECT_DOUBLE_EQ(e.final_clocks()[2], 5.0);
  EXPECT_DOUBLE_EQ(e.max_time(), 5.0);
}

TEST(Engine, SendRecvTransfersData) {
  sim::Engine e(2, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    if (ctx.rank == 0) {
      double x = 42.5;
      sim::send(&x, sizeof x, 1, 0, w);
    } else {
      double y = 0.0;
      sim::recv(&y, sizeof y, 0, 0, w);
      EXPECT_DOUBLE_EQ(y, 42.5);
    }
  });
}

TEST(Engine, RecvWaitsForMessageArrivalTime) {
  const sim::Machine m = quiet();
  sim::Engine e(2, m);
  const int bytes = 1000;
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    std::vector<char> buf(bytes);
    if (ctx.rank == 0) {
      sim::advance(1.0);  // sender is late
      sim::send(buf.data(), bytes, 1, 0, w);
    } else {
      sim::recv(buf.data(), bytes, 0, 0, w);
      // receiver must resume at sender_time + alpha + beta*bytes
      EXPECT_NEAR(sim::now(), 1.0 + m.alpha + m.beta * bytes, 1e-12);
    }
  });
}

TEST(Engine, LateReceiverDoesNotPayTransferTwice) {
  const sim::Machine m = quiet();
  sim::Engine e(2, m);
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    double x = 1.0;
    if (ctx.rank == 0) {
      sim::send(&x, sizeof x, 1, 0, w);
    } else {
      sim::advance(9.0);  // receiver is late; message already arrived
      sim::recv(&x, sizeof x, 0, 0, w);
      EXPECT_DOUBLE_EQ(sim::now(), 9.0);
    }
  });
}

TEST(Engine, NonOvertakingPerSenderFifo) {
  sim::Engine e(2, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    if (ctx.rank == 0) {
      for (int i = 0; i < 5; ++i) sim::send(&i, sizeof i, 1, 7, w);
    } else {
      for (int i = 0; i < 5; ++i) {
        int v = -1;
        sim::recv(&v, sizeof v, 0, 7, w);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Engine, TagsMatchIndependently) {
  sim::Engine e(2, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    if (ctx.rank == 0) {
      int a = 1, b = 2;
      sim::send(&a, sizeof a, 1, /*tag=*/10, w);
      sim::send(&b, sizeof b, 1, /*tag=*/20, w);
    } else {
      int v = 0;
      sim::recv(&v, sizeof v, 0, 20, w);  // out of send order by tag
      EXPECT_EQ(v, 2);
      sim::recv(&v, sizeof v, 0, 10, w);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Engine, IsendRecvOverlap) {
  const sim::Machine m = quiet();
  sim::Engine e(2, m);
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    double x = 3.0;
    if (ctx.rank == 0) {
      sim::Request r = sim::isend(&x, sizeof x, 1, 0, w);
      sim::advance(2.0);  // overlap compute with transfer
      sim::wait(r);
      EXPECT_NEAR(sim::now(), 2.0 + m.alpha, 1e-12);
    } else {
      double y = 0;
      sim::recv(&y, sizeof y, 0, 0, w);
      EXPECT_DOUBLE_EQ(y, 3.0);
    }
  });
}

TEST(Engine, IrecvPostedBeforeSend) {
  sim::Engine e(2, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    double x = 7.5;
    if (ctx.rank == 1) {
      double y = 0;
      sim::Request r = sim::irecv(&y, sizeof y, 0, 3, w);
      sim::wait(r);
      EXPECT_DOUBLE_EQ(y, 7.5);
    } else {
      sim::advance(0.5);
      sim::send(&x, sizeof x, 1, 3, w);
    }
  });
}

TEST(Engine, SendrecvExchanges) {
  sim::Engine e(2, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    int mine = ctx.rank, theirs = -1;
    const int peer = 1 - ctx.rank;
    sim::sendrecv(&mine, sizeof mine, peer, 0, &theirs, sizeof theirs, peer, 0, w);
    EXPECT_EQ(theirs, peer);
  });
}

// A rank runs until it blocks.  A sender that never waits is dispatched
// once however many messages it sends, and its receiver, whose messages are
// all buffered by the time it runs, once more.
TEST(Engine, ARankThatNeverBlocksIsDispatchedOnce) {
  const critter::obs::Counter& switches =
      critter::obs::counter("sim.fiber_switches");
  const std::uint64_t before = switches.value();
  sim::Engine e(2, quiet());
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    double x = 0.0;
    if (ctx.rank == 0) {
      sim::advance(1.0);
      for (int i = 0; i < 10; ++i) {
        x = i;
        sim::send(&x, sizeof x, 1, 0, w);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        sim::recv(&x, sizeof x, 0, 0, w);
        EXPECT_EQ(x, i);
      }
    }
  });
  EXPECT_EQ(switches.value() - before, 2u);
  EXPECT_EQ(e.p2p_count(), 10);
}

// Communicator ids are handed out in split completion order and key the
// noise of everything later run on the new communicators, so concurrent
// splits on disjoint groups complete in virtual-time order, whatever order
// the scheduler happened to run their ranks in.
TEST(Engine, ConcurrentSplitsNumberCommunicatorsInVirtualTimeOrder) {
  // World split into {0,1} (id 1) and {2,3} (id 2); each half then splits
  // into one communicator per rank.
  const auto ids = [](double lo_half_advance, double hi_half_advance) {
    std::vector<int> id(4, -1);
    sim::Engine e(4, quiet());
    e.run([&](sim::RankCtx& ctx) {
      const int half = ctx.rank / 2;
      const sim::Comm h = sim::split(sim::world(), half, ctx.rank);
      EXPECT_EQ(h.id, 1 + half);
      sim::advance(half == 0 ? lo_half_advance : hi_half_advance);
      id[ctx.rank] = sim::split(h, ctx.rank, 0).id;
    });
    return id;
  };
  // {2,3} reaches its split first, in virtual time, so it gets the lower
  // ids although ranks 0 and 1 get to run first.
  EXPECT_EQ(ids(5.0, 4.0), (std::vector<int>{5, 6, 3, 4}));
  // At equal clocks, rank order decides.
  EXPECT_EQ(ids(4.0, 4.0), (std::vector<int>{3, 4, 5, 6}));
}

TEST(Engine, DeadlockIsDetectedAndReported) {
  sim::Engine e(2, quiet());
  EXPECT_THROW(
      e.run([&](sim::RankCtx& ctx) {
        sim::Comm w = sim::world();
        int x = 0;
        // both ranks recv, nobody sends
        sim::recv(&x, sizeof x, 1 - ctx.rank, 0, w);
      }),
      std::runtime_error);
}

TEST(Engine, MessageSizeMismatchThrows) {
  sim::Engine e(2, quiet());
  EXPECT_THROW(
      e.run([&](sim::RankCtx& ctx) {
        sim::Comm w = sim::world();
        char buf[16];
        if (ctx.rank == 0) sim::send(buf, 8, 1, 0, w);
        else sim::recv(buf, 16, 0, 0, w);
      }),
      std::runtime_error);
}

TEST(Engine, RankExceptionPropagates) {
  sim::Engine e(4, quiet());
  EXPECT_THROW(e.run([&](sim::RankCtx& ctx) {
    if (ctx.rank == 3) throw std::logic_error("boom");
  }),
               std::logic_error);
}

namespace {

/// Final clocks of DeterministicAcrossIdenticalRuns' noisy 16-rank
/// allreduce loop, every rank's rather than only the maximum.
std::vector<double> noisy_allreduce_clocks(std::uint64_t salt) {
  sim::Machine m = sim::Machine::knl_like();  // with noise
  sim::Engine e(16, m, salt);
  e.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    std::vector<double> buf(64);
    for (int it = 0; it < 5; ++it) {
      sim::advance(1e-6 * (ctx.rank + 1));
      sim::allreduce(buf.data(), buf.data(), 64 * 8, sim::reduce_sum_double(), w);
    }
  });
  return e.final_clocks();
}

/// Runs that end abnormally and leave the other ranks' fibers suspended
/// mid-call, their frames never unwound: one rank throws while its peers
/// wait in an allreduce, or every rank waits on a receive nobody sends.
/// The bodies keep their buffers on the fiber stack: heap memory owned by
/// a frame that is never unwound would leak.
void throwing_run() {
  sim::Engine e(16, quiet());
  EXPECT_THROW(e.run([](sim::RankCtx& ctx) {
    double buf[64] = {};
    for (int it = 0; it < 3; ++it) {
      if (ctx.rank == 3 && it == 2) throw std::logic_error("boom");
      sim::allreduce(buf, buf, sizeof buf, sim::reduce_sum_double(),
                     sim::world());
    }
  }),
               std::logic_error);
}

void deadlocked_run() {
  sim::Engine e(16, quiet());
  EXPECT_THROW(e.run([](sim::RankCtx& ctx) {
    int x = 0;
    sim::recv(&x, sizeof x, (ctx.rank + 1) % 16, 0, sim::world());
  }),
               std::runtime_error);
}

}  // namespace

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t salt) {
    sim::Machine m = sim::Machine::knl_like();  // with noise
    sim::Engine e(16, m, salt);
    e.run([&](sim::RankCtx& ctx) {
      sim::Comm w = sim::world();
      std::vector<double> buf(64);
      for (int it = 0; it < 5; ++it) {
        sim::advance(1e-6 * (ctx.rank + 1));
        sim::allreduce(buf.data(), buf.data(), 64 * 8, sim::reduce_sum_double(), w);
      }
    });
    return e.max_time();
  };
  EXPECT_DOUBLE_EQ(run_once(1), run_once(1));
  EXPECT_NE(run_once(1), run_once(2));  // salt changes noise
}

// Fiber stacks are pooled and reused across engines; a stack released by a
// run that ended abnormally must serve the next run like a fresh one.
TEST(Engine, ReusedStacksAfterAbnormalEndsReproduceClocks) {
  const std::vector<double> want = noisy_allreduce_clocks(1);
  throwing_run();
  EXPECT_EQ(noisy_allreduce_clocks(1), want);
  deadlocked_run();
  EXPECT_EQ(noisy_allreduce_clocks(1), want);

  // Back to back on pool threads, with stacks moving between threads.
  critter::util::ThreadPool pool(4);
  std::vector<std::vector<double>> got(16);
  pool.parallel_for(16, [&](int k) {
    if (k % 2 == 0) throwing_run();
    else deadlocked_run();
    got[k] = noisy_allreduce_clocks(1);
  });
  for (const std::vector<double>& g : got) EXPECT_EQ(g, want);
}

TEST(Engine, ApiOutsideFiberThrows) {
  EXPECT_THROW(sim::now(), std::runtime_error);
}

TEST(Engine, ManyRanksScale) {
  sim::Engine e(512, quiet());
  e.run([&](sim::RankCtx&) {
    std::int64_t x = 1, y = 0;
    sim::allreduce(&x, &y, 8, sim::reduce_sum_i64(), sim::world());
    EXPECT_EQ(y, 512);
  });
  EXPECT_EQ(e.coll_count(), 1);
}
