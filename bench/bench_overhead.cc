// google-benchmark micro-suite: host-side cost of critter's interception
// primitives and of the simulator itself.  These quantify the claim that
// profiling overhead is "minimal" (paper §VI-B) and bound the wall-clock
// price of running the figure benches.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/kernels.hpp"
#include "core/mpi.hpp"
#include "core/profiler.hpp"
#include "core/wire.hpp"
#include "sim/api.hpp"

namespace sim = critter::sim;

static void BM_EngineBarrier(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng(p, sim::Machine::noiseless());
    eng.run([](sim::RankCtx&) {
      for (int i = 0; i < 10; ++i) sim::barrier(sim::world());
    });
    benchmark::DoNotOptimize(eng.max_time());
  }
  state.SetItemsProcessed(state.iterations() * 10 * p);
}
BENCHMARK(BM_EngineBarrier)->Arg(4)->Arg(64)->Arg(512);

static void BM_InterceptedComputeKernel(benchmark::State& state) {
  critter::Config cfg;
  critter::Store store(1, cfg);
  sim::Engine eng(1, sim::Machine::noiseless());
  eng.run([&](sim::RankCtx&) {
    critter::start(store);
    for (auto _ : state)
      critter::blas::gemm(critter::la::Trans::N, critter::la::Trans::N, 64, 64,
                          64, 1.0, nullptr, 64, nullptr, 64, 0.0, nullptr, 64);
    (void)critter::stop();
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterceptedComputeKernel);

static void BM_InterceptedAllreduce(benchmark::State& state) {
  // Single-rank world: measures the pure interception cost (the consensus
  // fold, statistics) without cross-rank scheduling.
  critter::Config cfg;
  critter::Store store(1, cfg);
  sim::Engine eng(1, sim::Machine::noiseless());
  eng.run([&](sim::RankCtx&) {
    critter::start(store);
    for (auto _ : state)
      critter::mpi::allreduce(nullptr, nullptr, 1024,
                              sim::reduce_sum_double(), sim::world());
    (void)critter::stop();
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterceptedAllreduce);

static void BM_ConsensusFold(benchmark::State& state) {
  // The typed fold of a 4-member collective's consensus with every ~K slot
  // in use: the longest path is the last member's, so the other three adopt
  // its table.
  const int cap = static_cast<int>(state.range(0));
  critter::Config cfg;
  cfg.tilde_capacity = cap;
  std::vector<critter::RankProfiler> members(4);
  std::vector<critter::core::Vote> votes;
  for (critter::RankProfiler& rp : members) {
    rp.table.channels.init_world(64);
    for (int i = 0; i < cap; ++i) rp.tilde[critter::util::mix64(i)] = i + 1;
    votes.push_back({&rp, &cfg, 0, false});
  }
  std::vector<void*> args;
  for (critter::core::Vote& v : votes) args.push_back(&v);
  for (auto _ : state) {
    for (int m = 0; m < 4; ++m) members[m].path.exec_time = m + 1.0;
    benchmark::DoNotOptimize(critter::core::agree(args.data(), 4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsensusFold)->Arg(64)->Arg(256)->Arg(1024);

static void BM_ChannelFactorization(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> ranks(n);
  for (int i = 0; i < n; ++i) ranks[i] = 3 + 5 * i;
  for (auto _ : state) {
    auto ch = critter::core::channel_from_ranks(ranks);
    benchmark::DoNotOptimize(ch.hash());
  }
}
BENCHMARK(BM_ChannelFactorization)->Arg(16)->Arg(256)->Arg(4096);

BENCHMARK_MAIN();
