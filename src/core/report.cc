// Final reduction producing the run Report (critical-path maxima +
// volumetric averages), mirroring critter's stop-time reduction.
#include <cstring>

#include "core/profiler.hpp"
#include "sim/api.hpp"
#include "util/check.hpp"

namespace critter {

namespace {

// Wire block for the stop() reduction: a max section and a sum section.
struct Packed {
  // max-combined
  double path[PathMetrics::kFields];
  double elapsed;
  double kernel_comp_time;
  double modeled_comp_time;
  double overhead_time;
  // sum-combined
  double s_modeled_comp;
  double s_modeled_comm;
  double s_flops;
  double s_words;
  double s_syncs;
  double s_executed;
  double s_skipped;
};
constexpr int kMaxFields = PathMetrics::kFields + 4;

sim::ReduceFn packed_fold() {
  return [](const void* in_v, void* inout_v, int bytes) {
    CRITTER_CHECK(bytes == sizeof(Packed), "report fold size mismatch");
    const auto* in = static_cast<const Packed*>(in_v);
    auto* io = static_cast<Packed*>(inout_v);
    const double* a = reinterpret_cast<const double*>(in);
    double* b = reinterpret_cast<double*>(io);
    constexpr int total = sizeof(Packed) / sizeof(double);
    for (int i = 0; i < kMaxFields; ++i) b[i] = std::max(b[i], a[i]);
    for (int i = kMaxFields; i < total; ++i) b[i] += a[i];
  };
}

}  // namespace

Report stop() {
  RankProfiler& rp = prof();
  CRITTER_CHECK(rp.active, "critter::stop without start");
  sim::RankCtx& ctx = sim::Engine::ctx();

  Packed mine{};
  std::memcpy(mine.path, rp.path.as_array(), sizeof mine.path);
  mine.elapsed = ctx.clock - rp.start_clock;
  mine.kernel_comp_time = rp.local.kernel_comp_time;
  mine.modeled_comp_time = rp.local.modeled_comp_time;
  mine.overhead_time = rp.local.overhead_time;
  mine.s_modeled_comp = rp.local.modeled_comp_time;
  mine.s_modeled_comm = rp.local.modeled_comm_time;
  mine.s_flops = rp.local.flops;
  mine.s_words = rp.local.words;
  mine.s_syncs = rp.local.syncs;
  mine.s_executed = static_cast<double>(rp.local.executed);
  mine.s_skipped = static_cast<double>(rp.local.skipped);

  Packed out{};
  sim::allreduce(&mine, &out, sizeof(Packed), packed_fold(), sim::world());

  const int p = sim::world_size();
  Report r;
  std::memcpy(r.critical.as_array(), out.path, sizeof out.path);
  r.wall_time = out.elapsed;
  r.max_kernel_comp_time = out.kernel_comp_time;
  r.max_modeled_comp_time = out.modeled_comp_time;
  r.overhead_time = out.overhead_time;
  r.executed = static_cast<std::int64_t>(out.s_executed);
  r.skipped = static_cast<std::int64_t>(out.s_skipped);
  r.p = p;
  r.volavg.exec_time = (out.s_modeled_comp + out.s_modeled_comm) / p;
  r.volavg.comp_time = out.s_modeled_comp / p;
  r.volavg.comm_time = out.s_modeled_comm / p;
  r.volavg.sync_cost = out.s_syncs / p;
  r.volavg.comm_cost = out.s_words / p;
  r.volavg.comp_cost = out.s_flops / p;

  // Snapshot for a-priori propagation.
  rp.last_exec_time = rp.path.exec_time;
  if (rp.keep_tilde)
    rp.last_tilde = rp.tilde;
  else
    rp.last_tilde.clear();

  rp.active = false;
  ctx.user_data = nullptr;
  return r;
}

}  // namespace critter
