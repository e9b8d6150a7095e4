#include <gtest/gtest.h>

#include <algorithm>
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

// Point-to-point matching on a noisy machine, pinned to the clocks the
// engine produced when it kept a key's sequence numbers, queued messages
// and posted receives in three separate tables.  A message's noise is keyed
// by its sequence number on its key, so a changed count, a FIFO mix-up or a
// receive completed at the wrong time moves a clock.  Each rank adds up its
// clock after every receive, so a completion time that a later one would
// hide still shows.  Rank 0 posts its receives before anything is sent to
// it; the other ranks find their messages queued.  Buffers are real or null
// on either side, and one send copies a payload shorter than its size.
TEST(Engine, PointToPointMatchingReproducesRecordedClocks) {
  const auto value = [](int src, int tag, int i) {
    return 1000.0 * src + 10.0 * tag + i;
  };
  std::vector<double> seen(4, 0.0);
  sim::Engine e(4, sim::Machine::knl_like(), 3);
  e.run([&](sim::RankCtx& ctx) {
    const int r = ctx.rank;
    const sim::Comm w = sim::world();
    const int next = (r + 1) % 4, prev = (r + 3) % 4;
    const auto done = [&](sim::Request q) {
      sim::wait(q);
      seen[r] += sim::now();
    };
    sim::advance(1e-6 * (r + 1));

    // From `prev`, in the order it sends them: a real message, two on one
    // key, a short payload and a real message into a null buffer; a null
    // message on tag 2 comes last.
    double in0[4] = {}, in1[2][4], in3[8];
    std::fill(in3, in3 + 8, -1.0);
    const std::vector<sim::Request> rq{
        sim::irecv(in0, sizeof in0, prev, 0, w),
        sim::irecv(in1[0], sizeof in1[0], prev, 1, w),
        sim::irecv(in1[1], sizeof in1[1], prev, 1, w),
        sim::irecv(in3, sizeof in3, prev, 3, w),
        sim::irecv(nullptr, 32, prev, 4, w)};

    double out0[4], out1[2][4], out3[8];
    for (int i = 0; i < 4; ++i) {
      out0[i] = value(r, 0, i);
      for (int k = 0; k < 2; ++k) out1[k][i] = value(r, 1, 4 * k + i);
    }
    for (int i = 0; i < 8; ++i) out3[i] = value(r, 3, i);
    sim::Request sq[2];
    const auto send_all = [&] {
      sim::send(out0, sizeof out0, next, 0, w);
      for (int k = 0; k < 2; ++k)
        sq[k] = sim::isend(out1[k], sizeof out1[k], next, 1, w);
      sim::engine().f_send(out3, sizeof out3, next, 3, w, 2 * sizeof(double));
      sim::send(out0, sizeof out0, next, 4, w);
      sim::send(nullptr, 4096, next, 2, w);
    };
    if (r == 0) send_all();
    for (const sim::Request& q : rq) done(q);
    sim::recv(nullptr, 4096, prev, 2, w);
    seen[r] += sim::now();
    if (r != 0) send_all();
    sim::wait(sq[1]);
    sim::wait(sq[0]);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(in0[i], value(prev, 0, i));
      for (int k = 0; k < 2; ++k) EXPECT_EQ(in1[k][i], value(prev, 1, 4 * k + i));
    }
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(in3[i], i < 2 ? value(prev, 3, i) : -1.0) << i;

    // The halves {0, 2} and {1, 3} of a split: both directions, three tags,
    // two messages on tag 0, a null send to a real buffer, and receives
    // waited in reverse posting order.
    const sim::Comm h = sim::split(w, r % 2, r);
    const int peer = 1 - sim::comm_rank(h);
    const int peer_world = sim::engine().comm_members(h)[peer];
    double hin[4] = {-1.0, -1.0, -1.0, -1.0}, hout[4];
    sim::Request hr[4];
    for (int k = 0; k < 4; ++k) {
      hr[k] = sim::irecv(&hin[k], sizeof(double), peer, k % 3, h);
      hout[k] = value(r, 10 + k, 0);
    }
    sim::advance(5e-7 * (r + 2));
    sim::send(&hout[0], sizeof(double), peer, 0, h);
    const sim::Request hs = sim::isend(&hout[1], sizeof(double), peer, 1, h);
    sim::send(nullptr, sizeof(double), peer, 2, h);
    sim::send(&hout[3], sizeof(double), peer, 0, h);
    for (int k = 3; k >= 0; --k) done(hr[k]);
    sim::wait(hs);
    EXPECT_EQ(hin[0], value(peer_world, 10, 0));
    EXPECT_EQ(hin[1], value(peer_world, 11, 0));
    EXPECT_EQ(hin[2], -1.0);
    EXPECT_EQ(hin[3], value(peer_world, 13, 0));
  });
  EXPECT_EQ(e.p2p_count(), 4 * 10);
  EXPECT_EQ(seen, (std::vector<double>{0x1.508a6771c02ep-11, 0x1.7dc7aba36833ep-12,
                                       0x1.dd66f7f2d0ec4p-12, 0x1.20cfdeaea103ap-11}));
  EXPECT_EQ(e.final_clocks(),
            (std::vector<double>{0x1.457ed02c12c14p-14, 0x1.479781873daa1p-14,
                                 0x1.45786e23a17fp-14, 0x1.47914d17b83ccp-14}));
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
