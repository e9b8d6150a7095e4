// Engine hot-path microbenchmark: scheduler events/sec and p2p/collective
// throughput, plus the headline SLATE-Cholesky simulation workload.
//
// Emits both a human-readable table and the BENCH_*.json shape used to
// track the perf trajectory across PRs:
//
//   { "bench": "engine",
//     "results": [ {"name": ..., "value": ..., "unit": ...}, ... ] }
//
// CRITTER_BENCH_JSON overrides the output path (default BENCH_engine.json);
// CRITTER_BENCH_REPS scales the inner iteration counts.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "obs/trace.hpp"
#include "sim/api.hpp"
#include "tune/tuner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace sim = critter::sim;
namespace util = critter::util;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bench::BenchJson g_json;

void report(util::Table& t, const std::string& name, double events,
            double secs) {
  const double rate = events / secs;
  t.row({name, util::Table::num(events, 0), util::Table::num(secs, 3),
         util::Table::sci(rate)});
  g_json.add(name + "_per_sec", rate, "events/s");
}

/// Nearest-neighbor ring exchange: every rank sends to the right and
/// receives from the left each iteration.  `payload` toggles real data
/// movement vs the model-mode (null-buffer) fast path.
double bench_p2p_ring(int nranks, int iters, int bytes, bool payload,
                      util::Table& t, const char* name) {
  sim::Engine eng(nranks, sim::Machine::knl_like());
  std::vector<double> buf(payload ? bytes / 8 : 0);
  const double t0 = now_s();
  eng.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    const int right = (ctx.rank + 1) % nranks;
    const int left = (ctx.rank + nranks - 1) % nranks;
    for (int it = 0; it < iters; ++it) {
      sim::Request r = sim::irecv(payload ? buf.data() : nullptr, bytes, left,
                                  it & 0xFF, w);
      sim::send(payload ? buf.data() : nullptr, bytes, right, it & 0xFF, w);
      sim::wait(r);
    }
  });
  const double secs = now_s() - t0;
  report(t, name, static_cast<double>(eng.p2p_count()), secs);
  return eng.max_time();
}

/// Back-to-back collectives on the world communicator.
double bench_allreduce(int nranks, int iters, int bytes, util::Table& t) {
  sim::Engine eng(nranks, sim::Machine::knl_like());
  const double t0 = now_s();
  eng.run([&](sim::RankCtx& ctx) {
    sim::Comm w = sim::world();
    for (int it = 0; it < iters; ++it) {
      sim::advance(1e-7 * (1 + (ctx.rank & 3)));
      sim::allreduce(nullptr, nullptr, bytes, sim::reduce_sum_double(), w);
    }
  });
  const double secs = now_s() - t0;
  // One collective op spans nranks participant events.
  report(t, "coll_allreduce_ops",
         static_cast<double>(eng.coll_count()) * nranks, secs);
  return eng.max_time();
}

/// One best-of-3 fully-instrumented SLATE-Cholesky run; returns the best
/// (events, secs) pair.  Best-of-3 because scheduler interference can only
/// slow a rep down, so the fastest rep is the least-noisy estimate of the
/// workload's true throughput.
std::pair<double, double> run_slate_cholesky(double* virt_out) {
  namespace tune = critter::tune;
  const auto study = tune::slate_cholesky_study(false);
  critter::Config pc;
  pc.mode = critter::ExecMode::Model;
  pc.selective = false;

  sim::Machine m = sim::Machine::knl_like();
  m.gamma = study.gamma;

  double virt = 0.0;
  double best_events = 0.0;
  double best_secs = 1.0;
  for (int rep = 0; rep < 3; ++rep) {
    critter::Store store(study.nranks, pc);
    sim::Engine eng(study.nranks, m, 1234 + rep);
    const double t0 = now_s();
    eng.run([&](sim::RankCtx&) {
      critter::start(store);
      tune::run_configuration(study, study.configs[0]);
      critter::stop();
    });
    const double secs = now_s() - t0;
    virt = eng.max_time();
    const double events =
        static_cast<double>(eng.p2p_count() + eng.coll_count());
    if (events / secs > best_events / best_secs) {
      best_events = events;
      best_secs = secs;
    }
  }
  if (virt_out != nullptr) *virt_out = virt;
  return {best_events, best_secs};
}

/// The headline workload: one fully-instrumented full execution of a
/// SLATE-Cholesky configuration (the substrate of Figs. 3-5), with tracing
/// compiled in but disabled — exactly the state the CI gate measures.
double bench_slate_cholesky(util::Table& t) {
  double virt = 0.0;
  const auto [events, secs] = run_slate_cholesky(&virt);
  report(t, "slate_cholesky_events", events, secs);
  return virt;
}

/// Trace passivity A/B (DESIGN.md §14): the same headline workload with
/// the span gate forced off and forced on.  trace_disabled_overhead ≈ 1
/// proves the compiled-in-but-disabled emitters cost one relaxed load;
/// trace_enabled_overhead bounds the recording cost.
void bench_trace_overhead(util::Table& t) {
  critter::obs::trace_force(false);
  const auto [off_events, off_secs] = run_slate_cholesky(nullptr);
  critter::obs::trace_force(true);
  const auto [on_events, on_secs] = run_slate_cholesky(nullptr);
  critter::obs::trace_unforce();
  report(t, "slate_cholesky_trace_off", off_events, off_secs);
  report(t, "slate_cholesky_trace_on", on_events, on_secs);
  g_json.ratio("trace_disabled_overhead", "slate_cholesky_trace_off_per_sec",
               "slate_cholesky_events_per_sec");
  g_json.ratio("trace_enabled_overhead", "slate_cholesky_trace_on_per_sec",
               "slate_cholesky_events_per_sec");
}

}  // namespace

int main() {
  const int reps = static_cast<int>(util::env_int("CRITTER_BENCH_REPS", 1));

  util::Table t("Engine microbenchmark: scheduler + messaging throughput");
  t.header({"workload", "events", "wall(s)", "events/s"});

  bench_p2p_ring(64, 4000 * reps, 256, /*payload=*/false, t, "p2p_ring_model");
  bench_p2p_ring(64, 4000 * reps, 256, /*payload=*/true, t, "p2p_ring_payload");
  bench_allreduce(256, 500 * reps, 1024, t);
  bench_slate_cholesky(t);
  bench_trace_overhead(t);
  t.print();

  g_json.write("engine", "BENCH_engine.json");
  return 0;
}
