// Statistics-pipeline microbenchmark: the cost of moving snapshot state —
// merge, exact-inverse diff, binary serialization, in-memory parse, and
// file load.  These are the operations the distributed executors pay per
// exchange round and per checkpoint, isolated from any simulation work.
//
// Emits the BENCH_*.json perf-trajectory shape (see bench_json.hpp) to
// BENCH_stat_store.json.  CRITTER_BENCH_RANKS (default 16) and
// CRITTER_BENCH_KERNELS (default 512) size the synthetic snapshot;
// CRITTER_BENCH_REPS scales the iteration counts.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "core/stat_store.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace core = critter::core;
namespace util = critter::util;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bench::BenchJson g_json;

/// A populated snapshot: `nkernels` distinct keys per rank with a few
/// Welford samples each, plus the key-of-hash side table — the shape the
/// exchange/checkpoint paths actually move.
core::StatSnapshot make_snapshot(int nranks, int nkernels, int salt) {
  core::StatSnapshot s;
  s.ranks.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    core::KernelTable& t = s.ranks[static_cast<std::size_t>(r)];
    t.init_world(nranks);
    for (int k = 0; k < nkernels; ++k) {
      const core::KernelKey key{static_cast<core::KernelClass>(k % 3),
                                {64 + k, 32 + k % 7, 0, 0},
                                0};
      core::KernelStats ks;
      for (int i = 0; i < 4; ++i)
        ks.add_sample(1.0 + salt + 0.25 * i + 0.01 * k);
      ks.total_invocations = 4;
      ks.total_executions = 4;
      ks.registered = true;
      t.K.emplace(key, ks);
      t.key_of_hash.emplace(key.hash(), key);
    }
    t.epoch = salt;
  }
  return s;
}

void report(util::Table& t, const std::string& name, double ops, double secs,
            const char* unit) {
  const double rate = ops / secs;
  t.row({name, util::Table::num(ops, 0), util::Table::num(secs, 3),
         util::Table::sci(rate)});
  g_json.add(name + "_per_sec", rate, unit);
}

}  // namespace

int main() {
  const int reps = static_cast<int>(util::env_int("CRITTER_BENCH_REPS", 1));
  const int nranks =
      static_cast<int>(util::env_int("CRITTER_BENCH_RANKS", 16));
  const int nkernels =
      static_cast<int>(util::env_int("CRITTER_BENCH_KERNELS", 512));

  const core::StatSnapshot base = make_snapshot(nranks, nkernels, 0);
  const core::StatSnapshot delta = make_snapshot(nranks, nkernels, 1);
  core::StatSnapshot evolved = base;
  evolved.merge(delta);

  util::Table t("Statistics pipeline: " + std::to_string(nranks) +
                " ranks x " + std::to_string(nkernels) + " kernels");
  t.header({"operation", "ops", "wall(s)", "ops/s"});

  // Merge: fold a same-shape delta into an accumulator, the per-exchange-
  // round operation.  The accumulator is folded repeatedly — each fold does
  // the same find + Chan-combine work.
  {
    const int iters = 200 * reps;
    core::StatSnapshot acc = base;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) acc.merge(delta);
    report(t, "merge", static_cast<double>(iters), now_s() - t0, "merges/s");
  }

  // Diff: the exact merge inverse computed per incremental checkpoint.
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i) sink += evolved.diff(base).ranks.size();
    report(t, "diff", static_cast<double>(iters), now_s() - t0, "diffs/s");
    if (sink < 0) std::printf("%f", sink);  // defeat dead-code elimination
  }

  // Serialize: snapshot -> in-memory binary payload (delta publish path).
  std::string payload;
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) payload = evolved.to_string();
    report(t, "serialize", static_cast<double>(iters), now_s() - t0,
           "snapshots/s");
    g_json.add("snapshot_bytes", static_cast<double>(payload.size()),
               "bytes");
  }

  // Parse: payload -> snapshot, decoded in place from the borrowed buffer.
  {
    const int iters = 200 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i)
      sink += core::StatSnapshot::from_string(payload).ranks.size();
    report(t, "parse", static_cast<double>(iters), now_s() - t0,
           "snapshots/s");
    if (sink < 0) std::printf("%f", sink);
  }

  // File load: read the file, then decode it in place.
  const std::string path = "/tmp/critter_bench_snapshot.bin";
  evolved.save_file(path);
  {
    const int iters = 100 * reps;
    const double t0 = now_s();
    double sink = 0;
    for (int i = 0; i < iters; ++i)
      sink += core::StatSnapshot::load_file(path).ranks.size();
    report(t, "load_read", static_cast<double>(iters), now_s() - t0,
           "loads/s");
    if (sink < 0) std::printf("%f", sink);
  }
  std::remove(path.c_str());

  t.print();
  g_json.write("stat_store", "BENCH_stat_store.json");
  return 0;
}
