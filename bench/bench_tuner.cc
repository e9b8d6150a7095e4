// Tuner sweep throughput on the SLATE-Cholesky study: configurations/second
// through the paths whose same-run ratios CI gates (batch_shared_vs_serial,
// daemon_vs_serial, checkpoint_overhead), plus the surrogate's
// configs-to-best —
//
//   serial                one store, configurations in sequence;
//   batch-shared-parallel the statistics-lifecycle path: workers evaluate
//                         batches against a shared snapshot and merge
//                         deltas at a barrier;
//   sharded               the in-process and subprocess executors, the
//                         latter with and without per-batch checkpointing;
//   daemon                the ask/tell service with one client.
//
// bench_e2e measures the isolated-parallel and batch-shared deployments end
// to end, with host calibration and a correctness gate.
//
// Emits a human-readable table and the BENCH_*.json perf-trajectory shape:
//
//   { "bench": "tuner",
//     "results": [ {"name": ..., "value": ..., "unit": ...}, ... ] }
//
// CRITTER_BENCH_JSON overrides the output path (default BENCH_tuner.json);
// CRITTER_BENCH_CONFIGS (default 12) and CRITTER_BENCH_SAMPLES (default 2)
// scale the sweep; CRITTER_BENCH_WORKERS (default 4) sizes the pool;
// CRITTER_BENCH_SHARDS (default 2) sizes the sharded-executor runs, which
// compare the in-process fold against one worker process per shard
// (spawn + run-directory snapshot exchange included in the wall time).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/fsio.hpp"
#include "dist/executor.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "tune/tuner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace dist = critter::dist;
namespace tune = critter::tune;
namespace util = critter::util;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bench::BenchJson g_json;

struct SweepStat {
  double rate;
  double secs;
  // Sharded runs only: the exchange transport cost run_sharded surfaced.
  std::int64_t exchange_bytes = 0;
  int exchange_rounds = 0;
};

SweepStat sweep_rate(const tune::Study& study, const tune::TuneOptions& opt,
                     util::Table& t, const char* name) {
  const double t0 = now_s();
  const tune::TuneResult r = tune::run_study(study, opt);
  const double secs = now_s() - t0;
  const double rate = static_cast<double>(r.evaluated_configs) / secs;
  t.row({name, tune::sweep_mode_name(r.mode),
         std::to_string(r.effective_workers),
         util::Table::num(secs, 3), util::Table::num(rate, 2)});
  g_json.add(std::string(name) + "_configs_per_sec", rate, "configs/s");
  return {rate, secs};
}

SweepStat sharded_rate(const tune::Study& study, const tune::TuneOptions& opt,
                       int shards, dist::ShardExecutor& exec,
                       int exchange_every, util::Table& t, const char* name) {
  const double t0 = now_s();
  const tune::TuneResult r = dist::run_sharded(
      study, opt, shards, exec, dist::ExchangePolicy{exchange_every});
  const double secs = now_s() - t0;
  const double rate = static_cast<double>(r.evaluated_configs) / secs;
  t.row({name, r.executor + " x" + std::to_string(r.shards),
         std::to_string(r.effective_workers), util::Table::num(secs, 3),
         util::Table::num(rate, 2)});
  g_json.add(std::string(name) + "_configs_per_sec", rate, "configs/s");
  return {rate, secs, r.exchange_bytes, r.exchange_rounds};
}

}  // namespace

int main(int argc, char** argv) {
  // The subprocess-executor benchmark re-execs this binary per shard.
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);
  const int nconf = static_cast<int>(util::env_int("CRITTER_BENCH_CONFIGS", 12));
  const int samples = static_cast<int>(util::env_int("CRITTER_BENCH_SAMPLES", 2));
  const int workers = static_cast<int>(util::env_int("CRITTER_BENCH_WORKERS", 4));
  const int shards = static_cast<int>(util::env_int("CRITTER_BENCH_SHARDS", 2));

  auto study = tune::slate_cholesky_study(false);
  if (nconf < static_cast<int>(study.configs.size()))
    study.configs.resize(nconf);

  tune::TuneOptions shared;
  shared.policy = critter::Policy::OnlinePropagation;
  shared.tolerance = 0.25;
  shared.samples = samples;
  shared.reset_per_config = false;  // Capital-style persistent statistics

  util::Table t("Tuner sweep throughput: " + study.name + ", " +
                std::to_string(study.configs.size()) + " configurations");
  t.header({"sweep", "mode", "workers", "wall(s)", "configs/s"});

  // 1. Serial shared-statistics sweep: the baseline every shared sweep was
  //    forced onto before the batch-shared path existed.
  const SweepStat serial = sweep_rate(study, shared, t, "serial_shared");

  // 2. Batch-shared parallel sweep: shared statistics, deterministic at
  //    this batch size for any worker count.
  tune::TuneOptions batched = shared;
  batched.batch = workers;
  batched.workers = workers;
  const SweepStat bsp = sweep_rate(study, batched, t, "batch_shared_parallel");

  // 3./4. Sharded shared-statistics sweeps through the distributed
  //    executors: the in-process fold vs one worker process per shard
  //    (fork/exec + run-directory snapshot exchange included), exchanging
  //    deltas every other batch.  On a 1-core host the subprocess ratio
  //    reads as protocol overhead; on multi-core hosts the shard processes
  //    run concurrently and the ratio scales with the shard count.
  dist::InProcessExecutor inproc;
  const SweepStat shard_in =
      sharded_rate(study, shared, shards, inproc, 2, t, "sharded_in_process");
  dist::SubprocessExecutor subproc;
  const SweepStat shard_sub = sharded_rate(study, shared, shards, subproc, 2,
                                           t, "sharded_subprocess");
  // The store traffic one exchange round costs (published deltas + live
  // peer reads, fleet-wide).
  if (shard_sub.exchange_rounds > 0)
    g_json.add("bytes_per_exchange_round",
               static_cast<double>(shard_sub.exchange_bytes) /
                   static_cast<double>(shard_sub.exchange_rounds),
               "bytes");

  // 4b. The subprocess sweep again with per-batch checkpointing — the most
  //    aggressive fault-tolerance setting, so (4)/(4b) bounds the price of
  //    crash recoverability (serialize + checksum + atomic publish every
  //    batch).  Same results by the resume contract (DESIGN.md §10).
  dist::SubprocessOptions ckpt_opts;
  ckpt_opts.fault.checkpoint_every = 1;
  dist::SubprocessExecutor subproc_ckpt(std::move(ckpt_opts));
  const SweepStat shard_ckpt = sharded_rate(study, shared, shards,
                                            subproc_ckpt, 2, t,
                                            "sharded_subprocess_ckpt");

  // 5. The tuner daemon (DESIGN.md §12): the identical shared sweep
  //    through the ask/tell service — an in-process daemon journaling every
  //    tell (one increment carrying the tell's patch, a full checkpoint
  //    slot every 17th record), one TCP client mirroring the evaluation.
  //    configs/s against (1) prices the whole service stack (framing,
  //    loopback round trips, state shipping both ways, journal writes);
  //    ask_tell_round_trip_ms is the mean request latency the client saw.
  const std::string daemon_dir = critter::core::make_temp_dir("bench_tunerd");
  {
    critter::serve::TunerDaemon daemon({daemon_dir});
    critter::serve::ClientOptions copt;
    copt.port = daemon.port();
    const double td = now_s();
    critter::serve::TunerClient client(study, shared, "bench", copt);
    const critter::serve::ClientReport rep = client.run();
    const double daemon_secs = now_s() - td;
    const critter::serve::StatusReply st = client.status();
    const double daemon_rate = static_cast<double>(st.evaluated) / daemon_secs;
    const int round_trips = rep.asks + rep.tells;
    const double rt_ms = round_trips > 0
                             ? 1e3 * rep.ask_tell_wall_s / round_trips
                             : 0.0;
    t.row({"daemon_ask_tell", "daemon x1 client", "1",
           util::Table::num(daemon_secs, 3), util::Table::num(daemon_rate, 2)});
    g_json.add("daemon_ask_tell_configs_per_sec", daemon_rate, "configs/s");
    g_json.add("ask_tell_round_trip_ms", rt_ms, "ms");
    // Request-payload bytes the daemon handled per tell, against the
    // session's final statistics payload: a tell ships the whole state as
    // it stood after its batch, so the ratio follows the state's growth.
    g_json.add("bytes_per_tell",
               st.tells > 0 ? static_cast<double>(st.bytes_in) /
                                  static_cast<double>(st.tells)
                            : 0.0,
               "bytes");
    g_json.add("session_state_bytes",
               static_cast<double>(client.export_stats().size()), "bytes");
    std::printf("tuner daemon: %d ask/tell round trips, %.3f ms mean "
                "round-trip latency, %lld B in / %lld B out\n",
                round_trips, rt_ms,
                static_cast<long long>(st.bytes_in),
                static_cast<long long>(st.bytes_out));
    daemon.stop();
  }
  critter::core::remove_dir_tree(daemon_dir);

  // 6. Model-based search: configs-to-best.  Against a statistically
  //    isolated sweep (outcomes independent of evaluation order, so "the
  //    exhaustive best" is the same configuration for every strategy), how
  //    many evaluations does the surrogate need before it first evaluates
  //    the configuration the exhaustive sweep selects?
  tune::TuneOptions isolated_model = shared;
  isolated_model.policy = critter::Policy::ConditionalExecution;
  isolated_model.reset_per_config = true;
  isolated_model.workers = 1;
  const double t0 = now_s();
  const tune::TuneResult exhaustive = tune::run_study(study, isolated_model);
  const double ex_secs = now_s() - t0;
  const int best = exhaustive.best_predicted();
  tune::TuneOptions ei = isolated_model;
  ei.strategy = "surrogate-ei";
  tune::Tuner session(study, ei);
  int configs_to_best = 0;
  bool found = false;
  const double t1 = now_s();
  while (!session.done()) {
    const std::vector<int> batch = session.ask();
    if (batch.empty()) break;
    session.tell(session.evaluate(batch));
    for (int pos : batch) {
      if (!found) ++configs_to_best;
      found = found || pos == best;  // best is a per_config position
    }
  }
  const double ei_secs = now_s() - t1;
  const int ei_evals = session.result().evaluated_configs;
  // Ratio 0 marks a run whose surrogate never evaluated the exhaustive
  // best — the JSON must not fabricate a win the stdout denies.
  const double to_best_ratio =
      found ? static_cast<double>(exhaustive.evaluated_configs) /
                  static_cast<double>(std::max(configs_to_best, 1))
            : 0.0;
  t.row({"exhaustive_isolated", "serial", "1", util::Table::num(ex_secs, 3),
         util::Table::num(exhaustive.evaluated_configs / ex_secs, 2)});
  t.row({"surrogate_ei", "serial", "1", util::Table::num(ei_secs, 3),
         util::Table::num(ei_evals / std::max(ei_secs, 1e-9), 2)});

  t.print();
  std::printf("\nbatch-shared parallel: %.2fx vs serial\n",
              bsp.rate / serial.rate);
  if (found)
    std::printf("surrogate-ei: reached the exhaustive best (config %d) after "
                "%d/%d evaluations — %.2fx fewer configs than the exhaustive "
                "sweep\n",
                best, configs_to_best, ei_evals, to_best_ratio);
  else
    std::printf("surrogate-ei: never reached the exhaustive best (config %d) "
                "in its %d evaluations\n",
                best, ei_evals);
  std::printf("sharded subprocess: %.2fx vs sharded in-process, %.2fx vs "
              "serial; per-batch checkpointing costs %.2fx throughput\n",
              shard_sub.rate / shard_in.rate, shard_sub.rate / serial.rate,
              shard_sub.rate / std::max(shard_ckpt.rate, 1e-9));

  // Checkpoint-overhead decomposition: all three sharded walls cover the
  // same work, so their differences isolate the layers —
  //   shard_in.secs                 sweep + exchange protocol, no processes;
  //   shard_sub.secs - shard_in.secs  fork/exec spawn + file-based protocol;
  //   shard_ckpt.secs - shard_sub.secs  pure checkpoint serialize + write.
  // `checkpoint_overhead` itself stays the with/without-checkpoint
  // throughput ratio (both sides contain identical spawn cost), derived
  // from the named results above rather than ad-hoc locals.
  g_json.add("spawn_protocol_cost_s",
             std::max(shard_sub.secs - shard_in.secs, 0.0), "s");
  g_json.add("checkpoint_write_cost_s",
             std::max(shard_ckpt.secs - shard_sub.secs, 0.0), "s");
  std::printf("sharded decomposition: %.3fs sweep, +%.3fs spawn/protocol, "
              "+%.3fs checkpoint writes\n",
              shard_in.secs, std::max(shard_sub.secs - shard_in.secs, 0.0),
              std::max(shard_ckpt.secs - shard_sub.secs, 0.0));

  g_json.ratio("batch_shared_vs_serial", "batch_shared_parallel_configs_per_sec",
               "serial_shared_configs_per_sec");
  g_json.ratio("subprocess_vs_in_process_sharded",
               "sharded_subprocess_configs_per_sec",
               "sharded_in_process_configs_per_sec");
  g_json.ratio("checkpoint_overhead", "sharded_subprocess_configs_per_sec",
               "sharded_subprocess_ckpt_configs_per_sec");
  g_json.ratio("daemon_vs_serial", "daemon_ask_tell_configs_per_sec",
               "serial_shared_configs_per_sec");
  g_json.add("surrogate_configs_to_best",
             static_cast<double>(configs_to_best), "configs");
  g_json.add("surrogate_vs_exhaustive", to_best_ratio, "x");

  g_json.write("tuner", "BENCH_tuner.json");
  return 0;
}
