// bench_e2e: what a user pays to tune real studies through each deployment
// of the tuner, with a bit-identity correctness gate and an optional traced
// per-layer breakdown.
//
//   bench_e2e --workload=<name>|all --seed=<n> [--seconds=<s>]
//             [--trace=<file.json>]
//
// Workloads (README.md gives the reason for each and defines every metric):
//   serial-grid        Tuner ask/evaluate/tell loop on one thread over the
//                      paper's Fig. 4/5 grid;
//   isolated-parallel  the reset_per_config studies on 4 workers;
//   batch-shared       persistent statistics on 4 workers, batch 4;
//   sharded-fleet      run_sharded with 2 subprocess shards, dir transport,
//                      exchange and checkpoint every batch;
//   daemon-session     an in-process TunerDaemon and one closed-loop
//                      TunerClient, one session per study.
//
// One run of a workload: set up three times (the median is setup_s), run
// every spec once through its in-process reference (the gate's expected
// digests and the quality metrics), then repeat the spec list in whole
// rounds for about --seconds.  The seed only picks the per-spec noise salts,
// so every round repeats identical deterministic work.  With --trace the
// budget is split: an untraced half gives the end-to-end numbers and a
// traced half (spans on) the per-layer numbers and the Chrome trace.
//
// Prints a summary and one "RESULT {json}" line per workload; exits non-zero
// if any study failed the gate.  `--workload=all` runs each workload in a
// fresh child process so peak RSS and set-up time belong to one workload.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fsio.hpp"
#include "core/stat_store.hpp"
#include "digest.hpp"
#include "dist/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "tune/tuner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

extern char** environ;

namespace {

using critter::Policy;
namespace core = critter::core;
namespace dist = critter::dist;
namespace obs = critter::obs;
namespace serve = critter::serve;
namespace tune = critter::tune;
namespace util = critter::util;

/// Category of every span this file emits (the library's own spans use the
/// layer names as categories).
constexpr const char* kCat = "bench_e2e";
constexpr int kSetups = 3;
constexpr int kShards = 2;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- host speed ------------------------------------------------------------
//
// The benchmark host is shared, and its speed drifts by up to a half over
// minutes, for every workload at once.  Two fixed kernels that touch
// neither the library nor the allocator slow down with the studies.  A
// memory part does random updates to an 8 MiB table and a bounded binary
// heap, and it slows down more than the studies.  An ALU part runs a
// multiply-xorshift chain, and it slows down less.  On the reference host,
// a 15-minute trace alternated the parts with serial, batch-shared and
// isolated 4-worker studies.  Across 30-study windows, the median study
// times spread by 20%, 28% and 25% (quartile distance over median).  Each
// study time was divided by the slowdown measured just before it: a 0.6/0.4
// blend of the two parts, each part relative to its nominal time.  The
// medians of those ratios spread by 2%, 3% and 5%.  So the kernels run
// before every study and every set-up, and each timing metric is reported
// at nominal host speed, from the times divided by their slowdowns.  The
// raw values are reported alongside.

/// Median times of the two parts on the reference host (README.md).
constexpr double kNominalTableS = 0.0015;
constexpr double kNominalAluS = 0.0016;
/// The memory part's weight in the blend.
constexpr double kTableShare = 0.6;

std::vector<double> g_slowdown;     ///< host slowdown samples this run
volatile std::uint64_t g_sink = 0;  ///< keeps the kernels' work observable

/// The host's current slowdown against the reference host (1 = nominal).
double calibrate() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 20);
  static std::vector<std::uint64_t> heap(1024);
  std::fill(table.begin(), table.end(), 0);
  const double t0 = now_s();
  std::uint64_t x = 1;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 20;
  };
  for (int i = 0; i < 50000; ++i) table[next() & (table.size() - 1)] += x;
  std::size_t n = 0;
  for (int i = 0; i < 50000; ++i) {
    heap[n++] = next();
    std::push_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(n));
    if (n == heap.size()) {
      std::pop_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(n));
      --n;
    }
  }
  const double t1 = now_s();
  std::uint64_t y = x | 1;
  for (int i = 0; i < 500000; ++i) {
    y ^= y << 13;
    y ^= y >> 7;
    y ^= y << 17;
    y *= 0x9E3779B97F4A7C15ULL;
  }
  const double t2 = now_s();
  g_sink = g_sink + table[x & (table.size() - 1)] + heap[0] + y;
  g_slowdown.push_back(kTableShare * (t1 - t0) / kNominalTableS +
                       (1.0 - kTableShare) * (t2 - t1) / kNominalAluS);
  return g_slowdown.back();
}

// --- workloads -------------------------------------------------------------

enum class Deploy { Tuner, Sharded, Daemon };

struct Spec {
  const char* study;  ///< registry workload name
  Policy policy;
  double tolerance;
  bool reset;  ///< reset_per_config
};

struct WorkloadDef {
  const char* name;
  Deploy deploy;
  int workers;
  int batch;
  int trim;     ///< keep the first `trim` configurations (0: all)
  bool shared;  ///< moves shared statistics: replay the stat-store codec
  std::vector<Spec> specs;
  /// Layers whose calls this workload wraps in spans (the trace check).
  std::vector<const char*> layers;
};

constexpr double kTols[] = {0.25, 1.0 / 64.0};

std::vector<Spec> paper_grid() {
  // Fig. 4/5: every policy, eager only where statistics persist across
  // configurations, with the paper's reset_per_config flags.
  struct S {
    const char* name;
    bool reset;
  };
  const Policy policies[] = {Policy::ConditionalExecution,
                             Policy::EagerPropagation,
                             Policy::LocalPropagation,
                             Policy::OnlinePropagation,
                             Policy::AprioriPropagation};
  std::vector<Spec> out;
  for (S s : {S{"capital-cholesky", false}, S{"slate-cholesky", true},
              S{"candmc-qr", true}, S{"slate-qr", true}})
    for (Policy p : policies) {
      if (p == Policy::EagerPropagation && s.reset) continue;
      for (double tol : kTols) out.push_back({s.name, p, tol, s.reset});
    }
  return out;
}

std::vector<Spec> isolated_specs() {
  std::vector<Spec> out;
  for (const char* s : {"slate-cholesky", "candmc-qr", "slate-qr"})
    for (Policy p : {Policy::ConditionalExecution, Policy::OnlinePropagation})
      for (double tol : kTols) out.push_back({s, p, tol, true});
  return out;
}

std::vector<Spec> shared_specs() {
  std::vector<Spec> out;
  for (double tol : kTols) {
    out.push_back({"capital-cholesky", Policy::EagerPropagation, tol, false});
    out.push_back({"capital-cholesky", Policy::OnlinePropagation, tol, false});
    out.push_back({"slate-cholesky", Policy::OnlinePropagation, tol, false});
  }
  return out;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> w = {
      {"serial-grid", Deploy::Tuner, 1, 0, 0, false, paper_grid(), {"tune"}},
      {"isolated-parallel", Deploy::Tuner, 4, 0, 0, false, isolated_specs(),
       {"tune"}},
      {"batch-shared", Deploy::Tuner, 4, 4, 0, true, shared_specs(),
       {"tune", "core.stat_store"}},
      {"sharded-fleet", Deploy::Sharded, 1, 0, 8, true, shared_specs(),
       {"dist", "core.stat_store"}},
      {"daemon-session", Deploy::Daemon, 1, 0, 8, true, shared_specs(),
       {"serve", "core.stat_store"}},
  };
  return w;
}

struct Prepared {
  tune::Study study;
  tune::TuneOptions opt;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The workload's studies, built from the registry.  The seed only chooses
/// each spec's noise salt.
std::vector<Prepared> prepare(const WorkloadDef& w, std::uint64_t seed) {
  std::vector<Prepared> out;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    const Spec& s = w.specs[i];
    Prepared p;
    p.study = tune::workload_study(s.study, false);
    if (w.trim > 0 && p.study.configs.size() > static_cast<std::size_t>(w.trim))
      p.study.configs.resize(static_cast<std::size_t>(w.trim));
    p.opt.policy = s.policy;
    p.opt.tolerance = s.tolerance;
    p.opt.samples = 2;
    p.opt.reset_per_config = s.reset;
    p.opt.workers = w.workers;
    p.opt.batch = w.batch;
    p.opt.seed_salt = splitmix64(splitmix64(seed) + i);
    out.push_back(std::move(p));
  }
  return out;
}

// --- one study through each deployment -------------------------------------

/// Per-layer sums, keyed by a short name; normalised in layer_metrics().
using Sums = std::map<std::string, double>;

void add(Sums& into, const Sums& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

struct StudyRun {
  double wall = 0.0;
  int configs = 0;
  std::vector<double> ask_tell_s;  ///< per-batch samples
  Sums layers;
  /// Compared with the reference: digest_result() of the study, or for the
  /// daemon the session's exported statistics bytes.
  std::string digest;
  int best = -1;  ///< daemon: the session's best_predicted
  std::int64_t retries = 0;
};

void add_profiler(Sums& L, const tune::TuneResult& r) {
  for (const tune::ConfigOutcome& oc : r.per_config) {
    if (!oc.evaluated) continue;
    L["executed"] += static_cast<double>(oc.executed);
    L["skipped"] += static_cast<double>(oc.skipped);
    L["samples_used"] += oc.samples_used;
    L["evaluated"] += 1;
    L["pruned"] += oc.pruned ? 1 : 0;
  }
}

/// Re-run the statistics codec on a study's final shared state, outside the
/// study timer: serialize, parse, and the diff/merge pair a peer performs
/// to absorb the whole state from scratch.
void replay_stat_store(const core::StatSnapshot& state, Sums& L) {
  if (state.empty()) return;
  obs::ScopedSpan span("core.stat_store.replay", kCat);
  const double t0 = now_s();
  std::string bytes;
  {
    obs::ScopedSpan s("core.stat_store.serialize", kCat);
    bytes = state.to_string();
  }
  const double t1 = now_s();
  core::StatSnapshot parsed;
  {
    obs::ScopedSpan s("core.stat_store.parse", kCat);
    parsed = core::StatSnapshot::from_string(bytes);
  }
  const double t2 = now_s();
  core::StatSnapshot base;
  base.ranks.resize(state.ranks.size());
  core::StatSnapshot delta;
  {
    obs::ScopedSpan s("core.stat_store.diff", kCat);
    delta = parsed.diff(base);
  }
  const double t3 = now_s();
  {
    obs::ScopedSpan s("core.stat_store.merge", kCat);
    base.merge(delta);
  }
  const double t4 = now_s();
  L["replays"] += 1;
  L["state_bytes"] += static_cast<double>(bytes.size());
  L["serialize_s"] += t1 - t0;
  L["parse_s"] += t2 - t1;
  L["diff_s"] += t3 - t2;
  L["merge_s"] += t4 - t3;
}

StudyRun tuner_study(const Prepared& p, bool replay) {
  StudyRun run;
  Sums& L = run.layers;
  auto span = std::make_unique<obs::ScopedSpan>("bench.study", kCat);
  const double t0 = now_s();
  tune::Tuner session(p.study, p.opt);
  while (true) {
    const double a0 = now_s();
    std::vector<int> batch;
    {
      obs::ScopedSpan s("tune.ask", kCat);
      batch = session.ask();
    }
    const double a1 = now_s();
    L["ask"] += a1 - a0;
    if (batch.empty()) break;
    std::vector<tune::ConfigOutcome> out;
    {
      obs::ScopedSpan s("tune.evaluate", kCat);
      out = session.evaluate(batch);
    }
    const double e1 = now_s();
    {
      obs::ScopedSpan s("tune.tell", kCat);
      session.tell(out);
    }
    const double t1 = now_s();
    L["evaluate"] += e1 - a1;
    L["tell"] += t1 - e1;
    L["batches"] += 1;
    run.ask_tell_s.push_back((a1 - a0) + (t1 - e1));
  }
  const tune::TuneResult r = session.result();
  run.wall = now_s() - t0;
  span.reset();
  run.configs = r.evaluated_configs;
  run.digest = bench_e2e::digest_result(r);
  add_profiler(L, r);
  if (replay) replay_stat_store(session.export_state(), L);
  return run;
}

StudyRun sharded_study(const Prepared& p, bool replay) {
  StudyRun run;
  Sums& L = run.layers;
  auto span = std::make_unique<obs::ScopedSpan>("bench.study", kCat);
  const double t0 = now_s();
  dist::SubprocessOptions so;
  so.fault.checkpoint_every = 1;
  dist::SubprocessExecutor exec(std::move(so));
  tune::TuneResult r;
  {
    obs::ScopedSpan s("dist.run_sharded", kCat);
    r = dist::run_sharded(p.study, p.opt, kShards, exec,
                          dist::ExchangePolicy{1});
  }
  run.wall = now_s() - t0;
  span.reset();
  run.configs = r.evaluated_configs;
  run.digest = bench_e2e::digest_result(r);
  // Per-batch samples stay inside the shard processes; the study's sample
  // is the shards' mean ask+tell time per batch (one configuration each).
  run.ask_tell_s.push_back((r.phases.ask + r.phases.tell) /
                           std::max(1, r.evaluated_configs));
  L["dist_evaluate"] += r.phases.evaluate;
  L["dist_exchange"] += r.phases.exchange;
  L["dist_checkpoint"] += r.phases.checkpoint;
  L["launch_overhead"] += run.wall - r.phases.total() / std::max(1, r.shards);
  L["exchange_rounds"] += r.exchange_rounds;
  L["exchange_bytes"] += static_cast<double>(r.exchange_bytes);
  for (const tune::ShardRecovery& sr : r.shard_recovery) {
    L["checkpoints"] += sr.checkpoints;
    run.retries += sr.retries;
  }
  L["retries"] += static_cast<double>(run.retries);
  add_profiler(L, r);
  if (replay) replay_stat_store(r.stats, L);
  return run;
}

/// One daemon per round: sessions stay resident for the daemon's lifetime,
/// so a fixed round bounds the resident set however many rounds fit in the
/// time budget.
class RoundDaemon {
 public:
  RoundDaemon()
      : dir_(core::make_temp_dir("bench_e2e_daemon")),
        daemon_(std::make_unique<serve::TunerDaemon>(
            serve::DaemonOptions{dir_})) {}
  // Destroy the daemon (its destructor stops and flushes every session)
  // before removing its state directory.  No explicit stop() first: each
  // stop() re-flushes every session, so stop() plus the destructor would
  // write every checkpoint twice.
  ~RoundDaemon() {
    daemon_.reset();
    core::remove_dir_tree(dir_);
  }
  RoundDaemon(const RoundDaemon&) = delete;
  RoundDaemon& operator=(const RoundDaemon&) = delete;

  int port() const { return daemon_->port(); }

 private:
  std::string dir_;
  std::unique_ptr<serve::TunerDaemon> daemon_;
};

StudyRun daemon_study(const Prepared& p, int port, const std::string& session,
                      bool replay) {
  StudyRun run;
  Sums& L = run.layers;
  serve::ClientOptions copt;
  copt.port = port;
  copt.max_batches = 1;  // one batch per run() call, so each batch is timed
  auto span = std::make_unique<obs::ScopedSpan>("bench.study", kCat);
  const double t0 = now_s();
  serve::TunerClient client(p.study, p.opt, session, copt);
  while (true) {
    const double c0 = now_s();
    serve::ClientReport rep;
    {
      obs::ScopedSpan s("serve.client_run", kCat);
      rep = client.run();
    }
    const double c1 = now_s();
    L["round_trip"] += rep.ask_tell_wall_s;
    L["asks"] += rep.asks;
    L["tells"] += rep.tells;
    if (rep.tells > 0) {
      run.ask_tell_s.push_back(rep.ask_tell_wall_s);
      L["client_eval"] += (c1 - c0) - rep.ask_tell_wall_s;
    }
    if (rep.done) break;
    if (rep.tells == 0)
      throw std::runtime_error("daemon session made no progress");
  }
  run.wall = now_s() - t0;
  span.reset();
  run.digest = client.export_stats();
  const serve::StatusReply st = client.status();
  run.best = st.best_predicted;
  run.configs = st.evaluated;
  L["sparse_tells"] += static_cast<double>(st.sparse_tells);
  L["bytes_in"] += static_cast<double>(st.bytes_in);
  L["bytes_out"] += static_cast<double>(st.bytes_out);
  if (replay && !run.digest.empty())
    replay_stat_store(core::StatSnapshot::from_string(run.digest), L);
  return run;
}

// --- the correctness gate's references --------------------------------------

struct Reference {
  std::string digest;
  int best = -1;
  double speedup = 0.0;
  double accuracy = 0.0;
  double quality = 0.0;
  Sums profiler;  ///< daemon-session takes its profiler numbers from here
};

/// The spec through its contract-equivalent in-process deployment: one
/// worker with the same batch size for the Tuner workloads, sequential
/// in-process shards with the same exchange policy for the fleet, and
/// run_study for the daemon (compared through the exported statistics and
/// best_predicted).
Reference reference(const WorkloadDef& w, const Prepared& p) {
  tune::TuneResult r;
  if (w.deploy == Deploy::Sharded) {
    dist::InProcessExecutor exec;
    r = dist::run_sharded(p.study, p.opt, kShards, exec,
                          dist::ExchangePolicy{1});
  } else {
    tune::TuneOptions o = p.opt;
    o.workers = 1;
    r = tune::run_study(p.study, o);
  }
  Reference ref;
  ref.digest = w.deploy == Deploy::Daemon
                   ? (r.stats.empty() ? std::string() : r.stats.to_string())
                   : bench_e2e::digest_result(r);
  ref.best = r.best_predicted();
  ref.speedup = r.full_time / r.tuning_time;
  ref.accuracy = 1.0 - r.mean_err();
  ref.quality = r.selection_quality();
  add_profiler(ref.profiler, r);
  return ref;
}

// --- timed phases ----------------------------------------------------------

struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

Usage usage() {
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  Usage u;
  u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime) + secs(kids.ru_utime) +
            secs(kids.ru_stime);
  u.peak_rss_mb =
      static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
  return u;
}

/// One timed study (or set-up), with the host slowdown sampled just before.
struct Sample {
  double wall = 0.0;
  double cpu_s = 0.0;  ///< this process and its reaped children
  double configs = 0.0;
  double slowdown = 1.0;
  std::vector<double> ask_tell_s;
};

struct Phase {
  std::vector<Sample> studies;  ///< the ones that passed the gate
  int attempted = 0;
  int failed = 0;
  int rounds = 0;
  double peak_rss_mb = 0.0;
  Sums layers;
  Sums counters;  ///< obs counter and histogram deltas over the phase
};

const char* const kCounters[] = {"sim.jobs", "sim.fiber_switches",
                                 "sim.heap_sifts", "sim.p2p_msgs",
                                 "sim.coll_ops"};
const char* const kHistograms[] = {"serve.ask_seconds", "serve.tell_seconds",
                                   "serve.journal_flush_seconds"};

Sums read_obs() {
  Sums s;
  for (const char* c : kCounters)
    s[c] = static_cast<double>(obs::counter(c).value());
  for (const char* h : kHistograms) {
    obs::Histogram& hist = obs::histogram(h);
    s[std::string(h) + ".count"] = static_cast<double>(hist.count());
    s[std::string(h) + ".sum"] = hist.sum();
  }
  return s;
}

bool passes_gate(const WorkloadDef& w, const StudyRun& run,
                 const Reference& ref, std::string* why) {
  if (run.digest != ref.digest) {
    *why = w.deploy == Deploy::Daemon ? "exported statistics differ"
                                      : "result digest differs";
    return false;
  }
  if (w.deploy == Deploy::Daemon && run.best != ref.best) {
    *why = "best_predicted differs";
    return false;
  }
  if (run.retries != 0) {
    *why = "shard retries";
    return false;
  }
  return true;
}

/// Repeat the spec list in whole rounds until the budget is (about) spent:
/// another round starts only while finishing it is expected to land closer
/// to the budget than stopping now.
Phase timed_phase(const WorkloadDef& w, const std::vector<Prepared>& specs,
                  const std::vector<Reference>& refs, double budget_s,
                  bool traced) {
  Phase ph;
  const Sums obs0 = read_obs();
  const double start = now_s();
  double elapsed = 0.0;
  do {
    std::unique_ptr<RoundDaemon> daemon;
    if (w.deploy == Deploy::Daemon) daemon = std::make_unique<RoundDaemon>();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double slowdown = calibrate();
      const double cpu0 = usage().cpu_s;
      ++ph.attempted;
      std::string why;
      try {
        const bool replay = traced && w.shared;
        StudyRun run;
        switch (w.deploy) {
          case Deploy::Tuner: run = tuner_study(specs[i], replay); break;
          case Deploy::Sharded: run = sharded_study(specs[i], replay); break;
          case Deploy::Daemon: {
            char session[48];
            std::snprintf(session, sizeof session, "r%d-s%zu", ph.rounds, i);
            run = daemon_study(specs[i], daemon->port(), session, replay);
            add(run.layers, refs[i].profiler);
            break;
          }
        }
        const double cpu_s = usage().cpu_s - cpu0;
        if (passes_gate(w, run, refs[i], &why)) {
          ph.studies.push_back({run.wall, cpu_s,
                                static_cast<double>(run.configs), slowdown,
                                std::move(run.ask_tell_s)});
          add(ph.layers, run.layers);
          continue;
        }
      } catch (const std::exception& e) {
        why = e.what();
      }
      ++ph.failed;
      std::fprintf(stderr, "bench_e2e: %s spec %zu round %d FAILED: %s\n",
                   w.name, i, ph.rounds, why.c_str());
    }
    daemon.reset();
    ++ph.rounds;
    elapsed = now_s() - start;
  } while (elapsed + 0.5 * elapsed / ph.rounds < budget_s);
  ph.peak_rss_mb = usage().peak_rss_mb;
  ph.counters = read_obs();
  for (auto& [k, v] : ph.counters) v -= obs0.at(k);
  return ph;
}

/// One set-up: build the studies from the registry, bring up the
/// deployment (daemon bind and client connect included), and run the first
/// spec's study — the cold study, never a sample.
double setup_once(const WorkloadDef& w, std::uint64_t seed,
                  std::vector<Prepared>* specs) {
  const double t0 = now_s();
  *specs = prepare(w, seed);
  const Prepared& first = specs->front();
  switch (w.deploy) {
    case Deploy::Tuner: tuner_study(first, false); break;
    case Deploy::Sharded: sharded_study(first, false); break;
    case Deploy::Daemon: {
      RoundDaemon daemon;
      daemon_study(first, daemon.port(), "setup", false);
      const double t1 = now_s();
      return t1 - t0;  // daemon teardown is not set-up
    }
  }
  return now_s() - t0;
}

// --- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The timing totals and samples of a phase; `nominal` divides every time
/// by the host slowdown sampled before its study.
struct Timings {
  double wall = 0.0;
  double cpu_s = 0.0;
  double configs = 0.0;
  std::vector<double> study_s;
  std::vector<double> ask_tell_s;

  Timings(const std::vector<Sample>& samples, bool nominal) {
    for (const Sample& s : samples) {
      const double k = nominal ? 1.0 / s.slowdown : 1.0;
      wall += k * s.wall;
      cpu_s += k * s.cpu_s;
      configs += s.configs;
      study_s.push_back(k * s.wall);
      for (double a : s.ask_tell_s) ask_tell_s.push_back(k * a);
    }
  }
  double configs_per_s() const { return ratio(configs, wall); }
};

std::vector<Metric> end_to_end_metrics(const Phase& ph,
                                       const std::vector<Sample>& setups,
                                       const std::vector<Reference>& refs,
                                       bool nominal) {
  double log_speedup = 0.0, accuracy = 0.0, quality = 1.0;
  for (const Reference& r : refs) {
    log_speedup += std::log(r.speedup);
    accuracy += r.accuracy;
    quality = std::min(quality, r.quality);
  }
  const double n = static_cast<double>(refs.size());
  const Timings t(ph.studies, nominal);
  return {
      {"configs_per_s", t.configs_per_s(), "configs/s"},
      {"study_s_p50", percentile(t.study_s, 0.5), "s"},
      {"study_s_p90", percentile(t.study_s, 0.9), "s"},
      {"ask_tell_ms_p50", 1e3 * percentile(t.ask_tell_s, 0.5), "ms"},
      {"ask_tell_ms_p90", 1e3 * percentile(t.ask_tell_s, 0.9), "ms"},
      {"cpu_s_per_config", ratio(t.cpu_s, t.configs), "s"},
      {"peak_rss_mb", ph.peak_rss_mb, "MB"},
      {"setup_s", percentile(Timings(setups, nominal).study_s, 0.5), "s"},
      {"sim_speedup", std::exp(log_speedup / n), "x"},
      {"pred_accuracy", accuracy / n, "fraction"},
      {"selection_quality", quality, "fraction"},
  };
}

/// Per-layer numbers of the traced phase, from raw times (no bound applies
/// to them).  `untraced_rate` is the untraced phase's nominal configs_per_s.
std::vector<Metric> layer_metrics(const WorkloadDef& w, const Phase& ph,
                                  double untraced_rate, std::size_t nspecs) {
  Sums L = ph.layers;  // copy: operator[] reads missing keys as 0
  Sums C = ph.counters;
  const double n = static_cast<double>(ph.studies.size());
  const double wall = Timings(ph.studies, false).wall;
  auto per_study = [&](double v) { return ratio(v, n); };
  const bool tuner = w.deploy == Deploy::Tuner;
  const bool daemon = w.deploy == Deploy::Daemon;
  const double eval_s = tuner ? L["evaluate"] : daemon ? L["client_eval"] : 0.0;
  auto hist_ms = [&](const char* h) {
    return 1e3 * ratio(C[std::string(h) + ".sum"],
                       C[std::string(h) + ".count"]);
  };
  const double handler_s = C["serve.ask_seconds.sum"] +
                           C["serve.tell_seconds.sum"];
  const double requests = L["asks"] + L["tells"];
  return {
      {"tune.ask_s", per_study(L["ask"]), "s"},
      {"tune.evaluate_s", per_study(L["evaluate"]), "s"},
      {"tune.tell_s", per_study(L["tell"]), "s"},
      {"tune.batches", per_study(L["batches"]), "count"},
      {"tune.closure",
       tuner ? ratio(L["ask"] + L["evaluate"] + L["tell"], wall) : 0.0,
       "ratio"},
      {"tune.ci_early_stops", per_study(L["pruned"]), "count"},
      {"sim.jobs", per_study(C["sim.jobs"]), "count"},
      {"sim.fiber_switches", per_study(C["sim.fiber_switches"]), "count"},
      {"sim.heap_sifts", per_study(C["sim.heap_sifts"]), "count"},
      {"sim.p2p_msgs", per_study(C["sim.p2p_msgs"]), "count"},
      {"sim.coll_ops", per_study(C["sim.coll_ops"]), "count"},
      {"sim.events_per_s", ratio(C["sim.p2p_msgs"] + C["sim.coll_ops"], eval_s),
       "1/s"},
      {"core.profiler.executed", per_study(L["executed"]), "count"},
      {"core.profiler.skipped", per_study(L["skipped"]), "count"},
      {"core.profiler.skip_ratio",
       ratio(L["skipped"], L["executed"] + L["skipped"]), "fraction"},
      {"core.profiler.samples_used", ratio(L["samples_used"], L["evaluated"]),
       "count"},
      {"core.stat_store.state_bytes", ratio(L["state_bytes"], L["replays"]),
       "bytes"},
      {"core.stat_store.serialize_mb_s",
       ratio(L["state_bytes"] / 1e6, L["serialize_s"]), "MB/s"},
      {"core.stat_store.parse_mb_s",
       ratio(L["state_bytes"] / 1e6, L["parse_s"]), "MB/s"},
      {"core.stat_store.diff_ms", 1e3 * ratio(L["diff_s"], L["replays"]),
       "ms"},
      {"core.stat_store.merge_ms", 1e3 * ratio(L["merge_s"], L["replays"]),
       "ms"},
      {"dist.evaluate_s", per_study(L["dist_evaluate"]), "s"},
      {"dist.exchange_s", per_study(L["dist_exchange"]), "s"},
      {"dist.checkpoint_s", per_study(L["dist_checkpoint"]), "s"},
      {"dist.launch_overhead_s", per_study(L["launch_overhead"]), "s"},
      {"dist.bytes_per_exchange_round",
       ratio(L["exchange_bytes"], L["exchange_rounds"]), "bytes"},
      {"dist.exchange_rounds", per_study(L["exchange_rounds"]), "count"},
      {"dist.checkpoints", per_study(L["checkpoints"]), "count"},
      {"dist.retries", L["retries"], "count"},
      {"serve.ask_handler_ms", hist_ms("serve.ask_seconds"), "ms"},
      {"serve.tell_handler_ms", hist_ms("serve.tell_seconds"), "ms"},
      {"serve.journal_flush_ms", hist_ms("serve.journal_flush_seconds"), "ms"},
      {"serve.client_eval_s", per_study(L["client_eval"]), "s"},
      {"net.transport_ms", 1e3 * ratio(L["round_trip"] - handler_s, requests),
       "ms"},
      {"net.bytes_per_tell", ratio(L["bytes_in"], L["tells"]), "bytes"},
      {"net.bytes_per_ask", ratio(L["bytes_out"], L["asks"]), "bytes"},
      {"serve.sparse_tell_frac", ratio(L["sparse_tells"], L["tells"]),
       "fraction"},
      {"serve.sessions_resident", daemon ? static_cast<double>(nspecs) : 0.0,
       "count"},
      {"obs.trace_overhead",
       ratio(untraced_rate, Timings(ph.studies, true).configs_per_s()),
       "ratio"},
  };
}

// --- output ----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ",";
    out += json_str(m.name) + ":{\"value\":" + json_num(m.value) +
           ",\"unit\":" + json_str(m.unit) + "}";
  }
  return out + "}";
}

double value_of(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return m.value;
  throw std::logic_error("no metric " + name);
}

bool all_finite(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    if (!std::isfinite(m.value)) return false;
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string git_sha() {
  FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {0};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  const int status = ::pclose(p);
  std::string sha = got && status == 0 ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.size() == 40 ? sha : "unknown";
}

double load1() {
  double l[1] = {0.0};
  return ::getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

std::string host_json(double load_before, double load_after) {
  return "{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + json_str(cpu_model()) +
         ",\"l2_bytes\":" + std::to_string(::sysconf(_SC_LEVEL2_CACHE_SIZE)) +
         ",\"l3_bytes\":" + std::to_string(::sysconf(_SC_LEVEL3_CACHE_SIZE)) +
         ",\"loadavg_before\":" + json_num(load_before) +
         ",\"loadavg_after\":" + json_num(load_after) +
         ",\"git_sha\":" + json_str(git_sha()) + "}";
}

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  util::Table t(title);
  t.header({"metric", "value", "unit"});
  for (const Metric& m : ms) t.row({m.name, util::Table::num(m.value, 6), m.unit});
  t.print();
}

/// The Chrome trace with the workload's per-layer numbers and the obs
/// metrics snapshots from before and after the traced phase appended as one
/// extra top-level key.
bool write_trace(const std::string& path, const std::string& workload,
                 const std::vector<Metric>& layers,
                 const std::string& obs_before, const std::string& obs_after) {
  std::string doc = obs::trace_export_chrome();
  while (!doc.empty() && doc.back() != '}') doc.pop_back();
  if (doc.empty()) return false;
  doc.pop_back();
  doc += ",\"bench_e2e\":{\"workload\":" + json_str(workload) +
         ",\"layers\":" + metrics_json(layers) +
         ",\"obs_before\":" + obs_before + ",\"obs_after\":" + obs_after +
         "}}\n";
  try {
    core::write_file(path, doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: cannot write trace %s: %s\n",
                 path.c_str(), e.what());
    return false;
  }
  return true;
}

int run_workload(const WorkloadDef& w, std::uint64_t seed, double seconds,
                 const std::string& trace_path) {
  const double load_before = load1();
  std::vector<Prepared> specs;
  std::vector<Sample> setups;
  for (int k = 0; k < kSetups; ++k) {
    Sample s;
    s.slowdown = calibrate();
    s.wall = setup_once(w, seed, &specs);
    setups.push_back(s);
  }
  std::vector<Reference> refs;
  for (const Prepared& p : specs) refs.push_back(reference(w, p));

  const bool traced = !trace_path.empty();
  const Phase ph = timed_phase(w, specs, refs, traced ? seconds / 2 : seconds,
                               false);
  const double slowdown = percentile(g_slowdown, 0.5);
  const std::size_t slowdown_samples = g_slowdown.size();
  const std::vector<Metric> e2e = end_to_end_metrics(ph, setups, refs, true);
  const std::vector<Metric> raw = end_to_end_metrics(ph, setups, refs, false);
  bool correct = ph.failed == 0 && all_finite(e2e);
  int attempted = ph.attempted;
  int failed = ph.failed;
  std::vector<Metric> layers;
  std::string spanned;
  if (traced) {
    // Every sweep worker thread gets its own ring, and the parallel
    // workloads start fresh workers per study: keep each ring small.
    obs::trace_set_capacity(8192);
    const std::string obs_before = obs::metrics_json();
    obs::trace_force(true);
    const Phase tr = timed_phase(w, specs, refs, seconds / 2, true);
    obs::trace_force(false);
    const std::string obs_after = obs::metrics_json();
    layers = layer_metrics(w, tr, Timings(ph.studies, true).configs_per_s(),
                           specs.size());
    attempted += tr.attempted;
    failed += tr.failed;
    correct = correct && tr.failed == 0 && all_finite(layers);
    if (w.deploy == Deploy::Tuner) {
      const double closure = value_of(layers, "tune.closure");
      if (closure < 0.95 || closure > 1.05) {
        std::fprintf(stderr,
                     "bench_e2e: %s tune.closure %.4f outside 0.95-1.05\n",
                     w.name, closure);
        correct = false;
      }
    }
    correct = write_trace(trace_path, w.name, layers, obs_before, obs_after) &&
              correct;
    for (const char* l : w.layers)
      spanned += std::string(spanned.empty() ? "" : ",") + json_str(l);
  }
  const double load_after = load1();

  const Timings t(ph.studies, false);
  std::printf("\n== %s: seed %llu, %d rounds x %zu specs, %zu timed studies, "
              "%zu ask/tell samples, %d failed; host slowdown %.4f "
              "(median of %zu samples)\n",
              w.name, static_cast<unsigned long long>(seed), ph.rounds,
              specs.size(), t.study_s.size(), t.ask_tell_s.size(), ph.failed,
              slowdown, slowdown_samples);
  print_metrics(std::string(w.name) + ": end to end (untraced, at nominal "
                "host speed)", e2e);
  if (traced) print_metrics(std::string(w.name) + ": per layer (traced)", layers);
  std::printf(
      "RESULT {\"workload\":%s,\"seed\":%llu,\"correct\":%s,\"attempted\":%d,"
      "\"failed\":%d,\"rounds\":%d,\"samples\":{\"study_s\":%zu,"
      "\"ask_tell_ms\":%zu},\"host\":%s,\"host_slowdown\":%s,"
      "\"metrics\":%s,\"raw_metrics\":%s,"
      "\"layers\":%s,\"trace\":%s,\"trace_layers\":[%s]}\n",
      json_str(w.name).c_str(), static_cast<unsigned long long>(seed),
      correct ? "true" : "false", attempted, failed, ph.rounds,
      t.study_s.size(), t.ask_tell_s.size(),
      host_json(load_before, load_after).c_str(), json_num(slowdown).c_str(),
      metrics_json(e2e).c_str(), metrics_json(raw).c_str(),
      metrics_json(layers).c_str(), json_str(trace_path).c_str(),
      spanned.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// `--workload=all`: each workload in a fresh child process of this binary.
int run_all(char** argv, const std::string& seed, const std::string& seconds,
            const std::string& trace_path) {
  int rc = 0;
  for (const WorkloadDef& w : workloads()) {
    std::vector<std::string> args = {argv[0],
                                     std::string("--workload=") + w.name,
                                     "--seed=" + seed, "--seconds=" + seconds};
    if (!trace_path.empty()) {
      // t.json -> t.<workload>.json: one trace per child.
      const std::size_t dot = trace_path.rfind(".json");
      args.push_back("--trace=" + trace_path.substr(0, dot) + "." + w.name +
                     ".json");
    }
    std::vector<char*> cargs;
    for (std::string& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargs.data(),
                      environ) != 0) {
      std::fprintf(stderr, "bench_e2e: cannot spawn the %s child\n", w.name);
      return 1;
    }
    int status = 0;
    pid_t got = 0;
    do {
      got = ::waitpid(pid, &status, 0);
    } while (got < 0 && errno == EINTR);
    if (got != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // The sharded-fleet workload re-execs this binary once per shard.
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);
  try {
    const util::Options opt(argc, argv);
    const std::string name = opt.get("workload", "");
    const std::string seed = opt.get("seed", "1");
    const std::string seconds = opt.get("seconds", "10");
    const std::string trace_path = opt.get("trace", "");
    const double secs = std::stod(seconds);
    if (!(secs > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    if (!trace_path.empty() &&
        (trace_path.size() < 5 ||
         trace_path.compare(trace_path.size() - 5, 5, ".json") != 0))
      throw std::invalid_argument("--trace must name a .json file");
    if (name == "all") return run_all(argv, seed, seconds, trace_path);
    for (const WorkloadDef& w : workloads())
      if (name == w.name)
        return run_workload(w, std::stoull(seed), secs, trace_path);
    std::string known;
    for (const WorkloadDef& w : workloads()) known += std::string(" ") + w.name;
    std::fprintf(stderr, "bench_e2e: --workload=<name>|all; known:%s\n",
                 known.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
