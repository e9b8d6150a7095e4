#include "app/front_end.hpp"

#include <cstdio>
#include <sstream>
#include <tuple>
#include <utility>

#include "tune/strategy.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace critter::app {

namespace {

int flag_int(const util::Options& flags, const char* key, int dflt) {
  return static_cast<int>(flags.get_int(key, dflt));
}

Deployment parse_deployment(const util::Options& flags, Pin pin) {
  const std::string dir =
      pin == Pin::Client
          ? ""
          : flags.get(pin == Pin::Daemon ? "state-dir" : "serve", "");
  if (pin == Pin::Daemon || !dir.empty()) {
    CRITTER_CHECK(!dir.empty(), "need --state-dir=DIR");
    return Daemon{{dir, flag_int(flags, "port", 0)}};
  }
  const std::string connect = flags.get("connect", "");
  if (pin == Pin::Client || !connect.empty()) {
    const net::Address addr = pin == Pin::Client
                                  ? daemon_address(flags)
                                  : net::parse_address(connect);
    Client c;
    c.session = flags.get("session", "");
    c.options.host = addr.host;
    c.options.port = addr.port;
    c.options.max_batches = flag_int(flags, "max-batches", 0);
    c.options.drop_after_asks = flag_int(flags, "drop-after-asks", 0);
    return c;
  }
  Shards s;
  s.count = flag_int(flags, "shards", 1);
  if (s.count <= 1) return Local{};
  s.executor = flags.get("executor", "subprocess");
  CRITTER_CHECK(s.executor == "subprocess" || s.executor == "in-process",
                "unknown shard executor '" + s.executor +
                    "' (known: subprocess, in-process)");
  s.exchange.every = flag_int(flags, "exchange-every", 0);
  s.exchange.strict = flags.get_int("exchange-strict", 1) != 0;
  s.fault.max_retries = flag_int(flags, "max-retries", 0);
  s.fault.checkpoint_every = flag_int(flags, "checkpoint-every", 0);
  return s;
}

tune::TuneResult run_shards(const Invocation& inv, const Shards& s) {
  if (s.executor == "in-process") {
    dist::InProcessExecutor exec(/*parallel_shards=*/true);
    return dist::run_sharded(inv.study, inv.options, s.count, exec,
                             s.exchange);
  }
  dist::SubprocessOptions sopts;
  sopts.fault = s.fault;
  dist::SubprocessExecutor exec(std::move(sopts));
  return dist::run_sharded(inv.study, inv.options, s.count, exec, s.exchange);
}

int run_client(const Invocation& inv, const Client& c) {
  serve::TunerClient client(inv.study, inv.options, c.session, c.options);
  const serve::ClientReport rep = client.run();
  std::printf("%s: %d asks, %d tells%s%s%s\n",
              rep.done ? "sweep complete" : "client done", rep.asks,
              rep.tells, rep.dropped ? " (dropped mid-claim)" : "",
              rep.reconnects > 0
                  ? (", " + std::to_string(rep.reconnects) + " reconnects")
                        .c_str()
                  : "",
              rep.done ? "" : " (sweep still open)");
  if (rep.dropped) return 0;
  const serve::StatusReply st = client.status();
  std::printf("%s\n", st.text.c_str());
  if (st.done && st.best_predicted >= 0)
    std::printf("selected config %d (%s)\n", st.best_predicted,
                inv.study.configs[static_cast<std::size_t>(st.best_predicted)]
                    .label()
                    .c_str());
  return 0;
}

void print_shards(const tune::TuneResult& r) {
  std::printf("sharded: %d shards via %s executor, exchange every %d "
              "batches (%d rounds%s)\n",
              r.shards, r.executor.c_str(), r.exchange_every,
              r.exchange_rounds,
              r.exchange_every > 0 && !r.exchange_strict ? ", non-strict"
                                                         : "");
  for (const tune::ShardRecovery& sr : r.shard_recovery) {
    if (sr.retries == 0 && !sr.degraded && sr.exchange_skips == 0) continue;
    std::printf("  shard %d: %d retr%s%s%s%s%s%s\n", sr.shard, sr.retries,
                sr.retries == 1 ? "y" : "ies",
                sr.recovered ? ", recovered" : "",
                sr.degraded ? ", degraded to in-process fallback" : "",
                sr.resumed_batches > 0
                    ? (", resumed " + std::to_string(sr.resumed_batches) +
                       " batches from checkpoint")
                          .c_str()
                    : "",
                sr.exchange_skips > 0
                    ? (", skipped " + std::to_string(sr.exchange_skips) +
                       " exchange round(s)")
                          .c_str()
                    : "",
                sr.last_failure.empty()
                    ? ""
                    : (" — last fault: " + sr.last_failure).c_str());
  }
}

/// The local and sharded runs' report, around the program's own column
/// and summary line.
void report(const Invocation& inv, const tune::TuneResult& r,
            const Program& p) {
  std::printf("sweep mode: %s, %d/%d workers%s%s%s\n",
              tune::sweep_mode_name(r.mode), r.effective_workers,
              r.requested_workers,
              r.batch > 0 ? (", batch " + std::to_string(r.batch)).c_str() : "",
              r.fallback_reason.empty() ? "" : " — ",
              r.fallback_reason.c_str());
  if (r.shards > 0) print_shards(r);

  util::Table t("per-configuration results");
  t.header({"config", "params", "true(s)", "predicted(s)", "err(%)",
            p.column});
  for (const tune::ConfigOutcome& c : r.per_config) {
    if (!c.evaluated) continue;  // skipped by the search strategy
    t.row({std::to_string(c.config.index), c.config.label(),
           util::Table::num(c.true_time, 5), util::Table::num(c.pred_time, 5),
           util::Table::num(100.0 * c.err, 2), p.cell(c)});
  }
  t.print();
  p.summary(r);

  if (r.phases.total() > 0.0)
    std::printf("phase breakdown: ask %.4fs, evaluate %.4fs, tell %.4fs, "
                "exchange %.4fs, checkpoint %.4fs (wall, summed over "
                "shards)\n",
                r.phases.ask, r.phases.evaluate, r.phases.tell,
                r.phases.exchange, r.phases.checkpoint);
  std::printf("selected config %d (%s); optimum is %d — selection quality "
              "%.1f%%\n",
              r.best_predicted(),
              r.per_config[r.best_predicted()].config.label().c_str(),
              r.best_true(), 100.0 * r.selection_quality());

  if (inv.save_stats.empty()) return;
  if (r.stats.empty()) {
    std::printf("not saving %s: a parallel-isolated sweep keeps no shared "
                "statistics (pass --reset=0 to keep them)\n",
                inv.save_stats.c_str());
    return;
  }
  r.stats.save_file(inv.save_stats);
  std::printf("saved statistics snapshot to %s (reusable via --prior or as "
              "a warm start)\n",
              inv.save_stats.c_str());
}

int run(const Invocation& inv, const Program& p) {
  if (const auto* d = std::get_if<Daemon>(&inv.deployment))
    return serve::run_daemon(d->options);
  if (const auto* c = std::get_if<Client>(&inv.deployment))
    return run_client(inv, *c);
  const tune::Study& study = inv.study;
  std::printf("autotuning %s: %d ranks, %d x %d, %zu configurations, "
              "policy=%s, eps=%.4f, strategy=%s\n",
              study.name.c_str(), study.nranks, study.m, study.n,
              study.configs.size(), policy_name(inv.options.policy),
              inv.options.tolerance, inv.options.strategy.c_str());
  const auto* shards = std::get_if<Shards>(&inv.deployment);
  report(inv,
         shards != nullptr ? run_shards(inv, *shards)
                           : tune::run_study(study, inv.options),
         p);
  return 0;
}

std::string usage(const Program& p) {
  const Defaults& d = p.defaults;
  std::ostringstream os;
  os << "usage: " << p.name << " [--flags]\n";
  if (p.pin != Pin::Daemon)
    os << "  --workload=NAME (" << d.workload
       << ")  --strategy=NAME[,key=val...] (exhaustive)\n"
       << "  --policy=conditional|eager|local|online|apriori (" << d.policy
       << ")\n  --tolerance=X (" << d.tolerance << ")  --samples=N ("
       << d.samples << ")  --reset=0|1 (" << (d.reset ? 1 : 0)
       << ")  --workers=N  --batch=N\n  --prior=FILE"
       << (p.pin == Pin::None ? "  --save-stats=FILE\n" : "\n");
  if (p.pin == Pin::None)
    os << "shards: --shards=N --executor=subprocess|in-process "
          "--exchange-every=B\n"
          "        --exchange-strict=0|1 --max-retries=N "
          "--checkpoint-every=B\n"
          "daemon: --serve=DIR [--port=N]\n";
  if (p.pin == Pin::Daemon) os << "daemon: --state-dir=DIR [--port=N]\n";
  if (p.pin != Pin::Daemon)
    os << "client: --connect=HOST:PORT"
       << (p.pin == Pin::Client ? " | --state-dir=DIR" : "")
       << " [--session=S] [--max-batches=N] [--drop-after-asks=N]\n";
  os << '\n' << tune::registry_help();
  return os.str();
}

}  // namespace

Invocation parse(const util::Options& flags, const Defaults& defaults,
                 Pin pin) {
  Invocation inv;
  tune::TuneOptions& o = inv.options;
  o.policy = parse_policy(flags.get("policy", defaults.policy));
  o.tolerance = flags.get_double("tolerance", defaults.tolerance);
  o.samples = flag_int(flags, "samples", defaults.samples);
  o.workers = flag_int(flags, "workers", 1);
  o.batch = flag_int(flags, "batch", 0);
  o.reset_per_config = flags.get_int("reset", defaults.reset ? 1 : 0) != 0;
  std::tie(o.strategy, o.strategy_options) =
      tune::parse_strategy_spec(flags.get("strategy", "exhaustive"));
  const std::string prior = flags.get("prior", "");
  if (!prior.empty()) {
    inv.prior = std::make_unique<core::StatSnapshot>(
        core::StatSnapshot::load_file(prior));
    o.prior = inv.prior.get();
  }
  inv.save_stats = flags.get("save-stats", "");
  inv.study = tune::workload_study(flags.get("workload", defaults.workload),
                                   util::paper_scale());
  inv.deployment = parse_deployment(flags, pin);
  if (auto* c = std::get_if<Client>(&inv.deployment); c && c->session.empty())
    c->session = inv.study.name;
  return inv;
}

net::Address daemon_address(const util::Options& flags) {
  const std::string connect = flags.get("connect", "");
  if (!connect.empty()) return net::parse_address(connect);
  const std::string state_dir = flags.get("state-dir", "");
  CRITTER_CHECK(!state_dir.empty(),
                "need --connect=HOST:PORT or --state-dir=DIR");
  return {"127.0.0.1", serve::read_daemon_port(state_dir)};
}

int run_program(int argc, char** argv, const Program& program) {
  if (dist::is_shard_worker(argc, argv))
    return dist::shard_worker_main(argc, argv);
  if (serve::is_tuner_daemon(argc, argv))
    return serve::tuner_daemon_main(argc, argv);
  try {
    const util::Options flags(argc, argv);
    if (flags.has("help")) {
      std::printf("%s", usage(program).c_str());
      return 0;
    }
    return run(parse(flags, program.defaults, program.pin), program);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program.name, e.what());
    return 1;
  }
}

}  // namespace critter::app
