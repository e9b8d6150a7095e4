// Integration tests of the critter profiler: interception, selective
// execution, path propagation, policies, and reports on small SPMD programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/mpi.hpp"
#include "core/profiler.hpp"
#include "la/matrix.hpp"
#include "sim/api.hpp"

namespace sim = critter::sim;
using critter::Config;
using critter::ExecMode;
using critter::Policy;
using critter::Report;
using critter::Store;

namespace {

sim::Machine machine(double noise = 0.05) {
  sim::Machine m = sim::Machine::knl_like();
  m.comm_noise = noise;
  m.comp_noise = noise;
  return m;
}

/// Run one SPMD body under the profiler; returns rank 0's report.
Report run_under(Store& store, int nranks,
                 const std::function<void()>& body,
                 double noise = 0.05, std::uint64_t salt = 0) {
  sim::Engine eng(nranks, machine(noise), salt);
  Report out;
  eng.run([&](sim::RankCtx& ctx) {
    critter::start(store);
    body();
    Report r = critter::stop();
    if (ctx.rank == 0) out = r;
  });
  return out;
}

/// A bulk-synchronous toy program: iterations of gemm + allreduce.
void toy_program(int iters, int gemm_dim, int bytes) {
  for (int i = 0; i < iters; ++i) {
    critter::blas::gemm(critter::la::Trans::N, critter::la::Trans::N, gemm_dim,
                        gemm_dim, gemm_dim, 1.0, nullptr, gemm_dim, nullptr,
                        gemm_dim, 0.0, nullptr, gemm_dim);
    critter::mpi::allreduce(nullptr, nullptr, bytes, sim::reduce_sum_double(),
                            sim::world());
  }
}

/// A program that gives ~K entries of every kind: compute kernels,
/// collectives on the world and on split communicators, and point-to-point
/// messages between rank pairs.
void path_count_program() {
  const int me = sim::world_rank();
  sim::Comm half = critter::mpi::comm_split(sim::world(), me / 2, me);
  for (int i = 0; i < 20; ++i) {
    toy_program(1, 16, 512);
    critter::mpi::bcast(nullptr, 256, 0, half);
    if (me % 2 == 0) {
      critter::mpi::send(nullptr, 1024, me + 1, 0, sim::world());
      critter::mpi::recv(nullptr, 1024, me + 1, 0, sim::world());
    } else {
      critter::mpi::recv(nullptr, 1024, me - 1, 0, sim::world());
      critter::mpi::send(nullptr, 1024, me - 1, 0, sim::world());
    }
  }
}

/// A count table's entries in key order.
std::vector<std::pair<std::uint64_t, std::int64_t>> entries_of(
    const critter::RankProfiler::CountMap& counts) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  counts.for_each([&](std::uint64_t key, std::int64_t n) { out.push_back({key, n}); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

TEST(Policy, ParseRoundTripsEveryNameAndRejectsAnUnknownOne) {
  for (const Policy p :
       {Policy::ConditionalExecution, Policy::EagerPropagation,
        Policy::LocalPropagation, Policy::OnlinePropagation,
        Policy::AprioriPropagation})
    EXPECT_EQ(critter::parse_policy(critter::policy_name(p)), p)
        << critter::policy_name(p);
  try {
    critter::parse_policy("bogus");
    FAIL() << "an unknown policy name was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "'bogus' (known: conditional, eager, local, online, "
                  "apriori)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Profiler, FullExecutionCountsEverything) {
  Config cfg;
  cfg.selective = false;
  Store store(4, cfg);
  Report r = run_under(store, 4, [] { toy_program(10, 32, 1024); });
  EXPECT_EQ(r.skipped, 0);
  // 4 ranks x 10 iters x (1 gemm + 1 allreduce)
  EXPECT_EQ(r.executed, 4 * 10 * 2);
  EXPECT_GT(r.critical.exec_time, 0.0);
  EXPECT_GT(r.critical.comp_time, 0.0);
  EXPECT_GT(r.critical.comm_time, 0.0);
  EXPECT_DOUBLE_EQ(r.critical.sync_cost, 10.0);
  EXPECT_DOUBLE_EQ(r.critical.comp_cost, 10.0 * 2.0 * 32 * 32 * 32);
  EXPECT_EQ(r.p, 4);
}

TEST(Profiler, BspCommCostMatchesModel) {
  Config cfg;
  cfg.selective = false;
  Store store(4, cfg);
  const int bytes = 4096;
  Report r = run_under(store, 4, [&] { toy_program(3, 8, bytes); });
  const double words =
      sim::Machine::coll_bytes_moved(sim::CollType::Allreduce, bytes, 4) / 8.0;
  EXPECT_DOUBLE_EQ(r.critical.comm_cost, 3 * words);
  EXPECT_DOUBLE_EQ(r.volavg.comm_cost, 3 * words);
}

TEST(Profiler, SelectiveSkipsSteadyKernels) {
  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  cfg.tolerance = 0.5;  // loose
  Store store(4, cfg);
  Report r = run_under(store, 4, [] { toy_program(200, 32, 1024); });
  EXPECT_GT(r.skipped, 0);
  EXPECT_LT(r.executed, 4 * 200 * 2);
}

TEST(Profiler, SelectiveRunIsFasterAndPredictsFullTime) {
  // Selective execution should cut wall time while its modeled exec_time
  // stays close to the true (uninstrumented full) execution time.
  Config full_cfg;
  full_cfg.instrument = false;
  Store full_store(8, full_cfg);
  Report full = run_under(full_store, 8, [] { toy_program(120, 256, 65536); });

  Config sel_cfg;
  sel_cfg.policy = Policy::ConditionalExecution;
  sel_cfg.tolerance = 0.25;
  Store sel_store(8, sel_cfg);
  Report sel = run_under(sel_store, 8, [] { toy_program(120, 256, 65536); });

  EXPECT_LT(sel.wall_time, full.wall_time);  // tuning speedup
  const double err =
      std::abs(sel.critical.exec_time - full.wall_time) / full.wall_time;
  EXPECT_LT(err, 0.10) << "prediction error too large";
}

TEST(Profiler, TighterToleranceExecutesMore) {
  auto skipped_at = [](double tol) {
    Config cfg;
    cfg.policy = Policy::ConditionalExecution;
    cfg.tolerance = tol;
    Store store(4, cfg);
    Report r = run_under(store, 4, [] { toy_program(100, 16, 512); });
    return r.skipped;
  };
  const auto loose = skipped_at(0.5);
  const auto tight = skipped_at(0.01);
  EXPECT_GE(loose, tight);
  EXPECT_GT(loose, 0);
}

TEST(Profiler, EveryKernelExecutesOncePerEpoch) {
  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  cfg.tolerance = 0.9;
  Store store(2, cfg);
  (void)run_under(store, 2, [] { toy_program(100, 16, 256); });
  const auto executed_before = store.rank(0).table.K.begin()->second.total_executions;
  store.new_epoch();
  (void)run_under(store, 2, [] { toy_program(1, 16, 256); });
  // one new invocation in the new epoch: must have executed (not skipped)
  for (const auto& [key, ks] : store.rank(0).table.K) {
    EXPECT_GE(ks.executions_this_epoch, 1)
        << "kernel " << key.to_string() << " was never executed this epoch";
  }
  (void)executed_before;
}

TEST(Profiler, OnlinePropagationSkipsEarlierThanConditional) {
  // With many recurrences along the path, sqrt(k) shrink lets the online
  // policy reach steadiness sooner (more skips for a tight tolerance).
  auto skipped_with = [](Policy pol) {
    Config cfg;
    cfg.policy = pol;
    cfg.tolerance = 0.02;  // tight enough that conditional rarely stops
    Store store(4, cfg);
    Report r = run_under(store, 4, [] { toy_program(150, 16, 512); });
    return r.skipped;
  };
  const auto cond = skipped_with(Policy::ConditionalExecution);
  const auto online = skipped_with(Policy::OnlinePropagation);
  EXPECT_GT(online, cond);
}

TEST(Profiler, LocalPropagationBetweenConditionalAndOnline) {
  auto skipped_with = [](Policy pol) {
    Config cfg;
    cfg.policy = pol;
    cfg.tolerance = 0.02;
    Store store(4, cfg);
    Report r = run_under(store, 4, [] { toy_program(150, 16, 512); });
    return r.skipped;
  };
  const auto cond = skipped_with(Policy::ConditionalExecution);
  const auto local = skipped_with(Policy::LocalPropagation);
  EXPECT_GE(local, cond);
}

TEST(Profiler, AprioriUsesRecordedPathCounts) {
  Config cfg;
  cfg.policy = Policy::AprioriPropagation;
  cfg.tolerance = 0.02;
  Store store(4, cfg);
  // offline full pass
  {
    store.config().selective = false;
    (void)run_under(store, 4, [] { toy_program(150, 16, 512); });
    store.set_apriori_from_last_run();
    store.config().selective = true;
  }
  EXPECT_FALSE(store.rank(0).apriori.empty());
  store.new_epoch();
  Report sel = run_under(store, 4, [] { toy_program(150, 16, 512); });
  // conditional reference
  Config ccfg;
  ccfg.policy = Policy::ConditionalExecution;
  ccfg.tolerance = 0.02;
  Store cstore(4, ccfg);
  Report cond = run_under(cstore, 4, [] { toy_program(150, 16, 512); });
  EXPECT_GT(sel.skipped, cond.skipped);
}

TEST(Profiler, PathPropagationTracksSlowestRank) {
  // Rank 2 does extra compute each iteration; every rank's critical path
  // must reflect rank 2's kernel time after the allreduce propagation.
  Config cfg;
  cfg.selective = false;
  Store store(4, cfg);
  Report r = run_under(store, 4, [] {
    for (int i = 0; i < 5; ++i) {
      const int me = sim::world_rank();
      const int dim = me == 2 ? 64 : 8;
      critter::blas::gemm(critter::la::Trans::N, critter::la::Trans::N, dim,
                          dim, dim, 1.0, nullptr, dim, nullptr, dim, 0.0,
                          nullptr, dim);
      critter::mpi::allreduce(nullptr, nullptr, 256, sim::reduce_sum_double(),
                              sim::world());
    }
  });
  // critical-path comp cost is rank 2's flops, not the average
  EXPECT_DOUBLE_EQ(r.critical.comp_cost, 5 * 2.0 * 64 * 64 * 64);
  EXPECT_LT(r.volavg.comp_cost, r.critical.comp_cost);
}

TEST(Profiler, P2PSenderDecidesNoDeadlock) {
  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  cfg.tolerance = 0.6;
  Store store(2, cfg);
  Report r = run_under(store, 2, [] {
    for (int i = 0; i < 120; ++i) {
      if (sim::world_rank() == 0)
        critter::mpi::send(nullptr, 4096, 1, 0, sim::world());
      else
        critter::mpi::recv(nullptr, 4096, 0, 0, sim::world());
    }
  });
  EXPECT_GT(r.skipped, 0);  // sends eventually steady and skipped
}

TEST(Profiler, IsendWaitRoundTrip) {
  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  cfg.tolerance = 0.5;
  Store store(2, cfg);
  Report r = run_under(store, 2, [] {
    for (int i = 0; i < 100; ++i) {
      if (sim::world_rank() == 0) {
        critter::mpi::Request rq =
            critter::mpi::isend(nullptr, 2048, 1, 3, sim::world());
        critter::mpi::wait(rq);
      } else {
        critter::mpi::recv(nullptr, 2048, 0, 3, sim::world());
      }
    }
  });
  EXPECT_EQ(r.executed + r.skipped, 2 * 100);
}

TEST(Profiler, RealModeProducesCorrectNumerics) {
  Config cfg;
  cfg.mode = ExecMode::Real;
  cfg.selective = false;
  Store store(2, cfg);
  sim::Engine eng(2, machine(0.0));
  eng.run([&](sim::RankCtx& ctx) {
    critter::start(store);
    // rank 0 factors an SPD matrix, broadcasts L, rank 1 checks it.
    const int n = 16;
    critter::la::Matrix a = critter::la::random_spd(n, 42);
    critter::la::Matrix l = a;
    if (ctx.rank == 0) {
      critter::lapack::potrf(critter::la::Uplo::Lower, n, l.data(), n);
    }
    critter::mpi::bcast(l.data(), n * n * 8, 0, sim::world());
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < j; ++i) l(i, j) = 0.0;
    EXPECT_LT(critter::la::cholesky_residual(a, l), 1e-12);
    (void)critter::stop();
  });
}

TEST(Profiler, UserKernelInterception) {
  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  cfg.tolerance = 0.4;
  Store store(2, cfg);
  int real_calls = 0;
  Report r = run_under(store, 2, [&] {
    for (int i = 0; i < 80; ++i)
      critter::user_kernel(/*name_hash=*/0xB10C, 64, 64, 1e6,
                           [&] { ++real_calls; });
  });
  EXPECT_GT(r.skipped, 0);
  EXPECT_EQ(real_calls, 0);  // Model mode: no real work
}

TEST(Profiler, EagerPropagatesAcrossGridAndSkipsGlobally) {
  // 4x4 grid; kernels recur on row and column collectives.  After the
  // row+column aggregation covers the grid, eager switches kernels off on
  // every rank — without per-epoch re-execution.
  Config cfg;
  cfg.policy = Policy::EagerPropagation;
  cfg.tolerance = 0.5;
  Store store(16, cfg);
  auto grid_program = [] {
    const int me = sim::world_rank();
    const int row = me / 4, col = me % 4;
    sim::Comm rowc = critter::mpi::comm_split(sim::world(), row, col);
    sim::Comm colc = critter::mpi::comm_split(sim::world(), col, row);
    for (int i = 0; i < 60; ++i) {
      critter::blas::gemm(critter::la::Trans::N, critter::la::Trans::N, 16, 16,
                          16, 1.0, nullptr, 16, nullptr, 16, 0.0, nullptr, 16);
      critter::mpi::bcast(nullptr, 1024, 0, rowc);
      critter::mpi::bcast(nullptr, 1024, 0, colc);
    }
  };
  Report first = run_under(store, 16, grid_program);
  EXPECT_GT(first.skipped, 0);
  // some kernel must have gone globally steady on rank 0
  bool any_global = false;
  for (const auto& [key, ks] : store.rank(0).table.K)
    any_global = any_global || ks.global_steady;
  EXPECT_TRUE(any_global);

  // Next epoch: eager does NOT re-execute globally steady kernels.
  store.new_epoch();
  Report second = run_under(store, 16, grid_program, 0.05, /*salt=*/1);
  EXPECT_GT(second.skipped, first.skipped / 2);
  EXPECT_LT(second.wall_time, first.wall_time);
}

TEST(Profiler, ResetStatisticsForcesReexecution) {
  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  cfg.tolerance = 0.5;
  Store store(2, cfg);
  (void)run_under(store, 2, [] { toy_program(100, 16, 256); });
  EXPECT_FALSE(store.rank(0).table.K.empty());
  store.reset_statistics();
  EXPECT_TRUE(store.rank(0).table.K.empty());
  // With min_samples = 3, the first three invocations after a reset can
  // never be skipped regardless of the previous statistics.
  Report r = run_under(store, 2, [] { toy_program(3, 16, 256); });
  EXPECT_EQ(r.skipped, 0);
}

TEST(Profiler, ReportIsIdenticalOnAllRanks) {
  Config cfg;
  cfg.selective = false;
  Store store(4, cfg);
  std::vector<double> execs(4), walls(4);
  sim::Engine eng(4, machine());
  eng.run([&](sim::RankCtx& ctx) {
    critter::start(store);
    toy_program(10, 16, 512);
    Report r = critter::stop();
    execs[ctx.rank] = r.critical.exec_time;
    walls[ctx.rank] = r.wall_time;
  });
  for (int r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(execs[r], execs[0]);
    EXPECT_DOUBLE_EQ(walls[r], walls[0]);
  }
}

TEST(Profiler, OverheadIsTrackedAndSmall) {
  // In a selective run nearly everything is skipped, so what remains of the
  // wall time is mostly overhead by construction; the meaningful claim (the
  // paper's "profiling overhead is minimal") is relative to the full
  // uninstrumented execution time of the same program.
  Config full_cfg;
  full_cfg.instrument = false;
  Store full_store(4, full_cfg);
  Report full = run_under(full_store, 4, [] { toy_program(50, 128, 2048); });

  Config cfg;
  cfg.policy = Policy::ConditionalExecution;
  Store store(4, cfg);
  Report r = run_under(store, 4, [] { toy_program(50, 128, 2048); });
  EXPECT_GT(r.overhead_time, 0.0);
  EXPECT_LT(r.overhead_time, 0.25 * full.wall_time)
      << "profiling overhead should be small vs the application";
}

TEST(Profiler, StartTwiceThrows) {
  Config cfg;
  Store store(1, cfg);
  sim::Engine eng(1, machine());
  EXPECT_THROW(eng.run([&](sim::RankCtx&) {
    critter::start(store);
    critter::start(store);
  }),
               std::runtime_error);
}

TEST(Profiler, KernelKeySeparatesChannels) {
  // The same byte count on row vs column communicators must be two kernels.
  Config cfg;
  cfg.selective = false;
  Store store(4, cfg);
  (void)run_under(store, 4, [] {
    const int me = sim::world_rank();
    sim::Comm rowc = critter::mpi::comm_split(sim::world(), me / 2, me % 2);
    sim::Comm colc = critter::mpi::comm_split(sim::world(), me % 2, me / 2);
    critter::mpi::bcast(nullptr, 512, 0, rowc);
    critter::mpi::bcast(nullptr, 512, 0, colc);
  });
  int bcast_keys = 0;
  for (const auto& [key, ks] : store.rank(0).table.K)
    if (key.cls == critter::core::KernelClass::Bcast) ++bcast_keys;
  EXPECT_EQ(bcast_keys, 2);
}

TEST(Profiler, OnlyRunsThatReadPathCountsKeepThem) {
  // ~K is read by the online policy's CI shrink and saved by the a-priori
  // offline pass; no other run keeps it, so none bumps, packs or adopts it.
  struct Case {
    Policy policy;
    bool selective;
    bool keeps;
  };
  for (const Case c : {Case{Policy::ConditionalExecution, true, false},
                       Case{Policy::EagerPropagation, true, false},
                       Case{Policy::LocalPropagation, true, false},
                       Case{Policy::ConditionalExecution, false, false},
                       Case{Policy::OnlinePropagation, true, true},
                       Case{Policy::AprioriPropagation, false, true}}) {
    Config cfg;
    cfg.policy = c.policy;
    cfg.selective = c.selective;
    Store store(4, cfg);
    (void)run_under(store, 4, path_count_program);
    for (int r = 0; r < 4; ++r) {
      const critter::RankProfiler& rp = store.rank(r);
      EXPECT_EQ(rp.tilde.empty(), !c.keeps)
          << critter::policy_name(c.policy) << " selective=" << c.selective
          << " rank " << r;
      EXPECT_EQ(entries_of(rp.last_tilde), entries_of(rp.tilde))
          << critter::policy_name(c.policy) << " selective=" << c.selective
          << " rank " << r;
    }
  }
}

TEST(Profiler, AprioriSamplesLeaveTheInstalledCountsUnchanged) {
  Config cfg;
  cfg.policy = Policy::AprioriPropagation;
  Store store(4, cfg);
  store.config().selective = false;
  (void)run_under(store, 4, path_count_program);
  store.set_apriori_from_last_run();
  store.config().selective = true;
  const auto installed = entries_of(store.rank(0).apriori);
  ASSERT_FALSE(installed.empty());
  for (int s = 1; s <= 2; ++s) {
    store.new_epoch();
    (void)run_under(store, 4, path_count_program, 0.05, /*salt=*/s);
    for (int r = 0; r < 4; ++r) {
      const critter::RankProfiler& rp = store.rank(r);
      EXPECT_EQ(entries_of(rp.apriori), installed) << "rank " << r;
      EXPECT_TRUE(rp.tilde.empty()) << "rank " << r;
      EXPECT_TRUE(rp.last_tilde.empty()) << "rank " << r;
    }
  }
}

TEST(Profiler, ChannelsARestoredRegistryLacksAreRegisteredAgain) {
  // A rank resolves a communicator's channel once per store, but a restored
  // registry may lack it; the next run must register it (and its
  // aggregates) as the first run did.
  Config cfg;
  cfg.selective = false;
  Store once(4, cfg), twice(4, cfg);
  const critter::core::StatSnapshot world_only = twice.snapshot();
  (void)run_under(once, 4, path_count_program);
  (void)run_under(twice, 4, path_count_program);
  twice.restore(world_only);
  ASSERT_LT(twice.rank(0).table.channels.size(),
            once.rank(0).table.channels.size());
  (void)run_under(twice, 4, path_count_program);
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(twice.rank(r).table.channels.same_channels(
        once.rank(r).table.channels))
        << "rank " << r;
}
