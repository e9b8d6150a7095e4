// tunectl: the tuner-daemon control CLI (DESIGN.md §12.5).
//
//   tunectl serve    --state-dir=DIR [--port=N]
//   tunectl tune     --session=S [--connect=H:P | --state-dir=DIR]
//                    [--workload=NAME] [--strategy=SPEC] [--policy=P]
//                    [--tolerance=X] [--samples=N] [--workers=N] [--batch=N]
//                    [--prior=FILE] [--max-batches=N] [--drop-after-asks=N]
//   tunectl status   --session=S [--json] [--connect=H:P | --state-dir=DIR]
//   tunectl watch    --session=S [--interval-ms=N] [--polls=N] [--json]
//                    [--connect=H:P | --state-dir=DIR]
//   tunectl export   --session=S --out=FILE [--connect=H:P | --state-dir=DIR]
//   tunectl shutdown [--connect=H:P | --state-dir=DIR]
//
// `serve` runs the daemon in the foreground until SIGTERM/SIGINT (both
// flush every session) or a client's shutdown request.  `tune` joins a
// session as an evaluating client — run several concurrently to fan one
// sweep across processes or machines; --drop-after-asks=N injects the
// disconnect-mid-batch fault (the claim must re-issue to surviving
// clients).  `status`/`watch`/`export`/`shutdown` speak to existing
// sessions without opening one, so they need no study flags; each sends
// one request over its own net::Client connection (net/service.hpp), one
// per command, or one per poll for `watch`.  `status --json`
// emits one machine-readable object embedding the daemon's process-wide
// metrics snapshot (DESIGN.md §14); `watch` polls status every
// --interval-ms (default 1000) until the sweep is done or --polls polls
// have run (0 = forever).  --state-dir instead of --connect reads the
// daemon's published port file.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/fsio.hpp"
#include "net/service.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "tune/strategy.hpp"
#include "tune/tuner.hpp"
#include "util/cli.hpp"

namespace net = critter::net;
namespace serve = critter::serve;
namespace tune = critter::tune;

namespace {

critter::Policy parse_policy(const std::string& s) {
  if (s == "conditional") return critter::Policy::ConditionalExecution;
  if (s == "eager") return critter::Policy::EagerPropagation;
  if (s == "local") return critter::Policy::LocalPropagation;
  if (s == "online") return critter::Policy::OnlinePropagation;
  if (s == "apriori") return critter::Policy::AprioriPropagation;
  std::fprintf(stderr, "unknown policy '%s'\n", s.c_str());
  std::exit(1);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: tunectl <serve|tune|status|export|shutdown> [--flags]\n"
      "  serve    --state-dir=DIR [--port=N]\n"
      "  tune     --session=S [--connect=H:P | --state-dir=DIR] "
      "[--workload=NAME]\n"
      "           [--strategy=SPEC] [--policy=P] [--tolerance=X] "
      "[--samples=N]\n"
      "           [--workers=N] [--batch=N] [--prior=FILE] "
      "[--max-batches=N]\n"
      "           [--drop-after-asks=N]\n"
      "  status   --session=S [--json] [--connect=H:P | --state-dir=DIR]\n"
      "  watch    --session=S [--interval-ms=N] [--polls=N] [--json]\n"
      "           [--connect=H:P | --state-dir=DIR]\n"
      "  export   --session=S --out=FILE [--connect=H:P | --state-dir=DIR]\n"
      "  shutdown [--connect=H:P | --state-dir=DIR]\n");
  return 2;
}

net::Address resolve_daemon(const critter::util::Options& opt) {
  const std::string connect = opt.get("connect", "");
  if (!connect.empty()) return net::parse_address(connect);
  const std::string state_dir = opt.get("state-dir", "");
  if (state_dir.empty()) {
    std::fprintf(stderr, "need --connect=HOST:PORT or --state-dir=DIR\n");
    std::exit(2);
  }
  return {"127.0.0.1", serve::read_daemon_port(state_dir)};
}

/// Sessionless verbs send one request on a fresh connection — no OPEN,
/// so no study flags needed to inspect or stop a running daemon.
std::string request(const net::Address& addr, std::uint32_t verb,
                    const std::string& payload) {
  return net::Client(addr.host, addr.port, serve::kTuneService, 10.0, 30.0)
      .request(verb, payload);
}

int cmd_serve(const critter::util::Options& opt) {
  const std::string state_dir = opt.get("state-dir", "");
  if (state_dir.empty()) return usage();
  const std::string sd = "--state-dir=" + state_dir;
  const std::string pt = "--port=" + std::to_string(opt.get_int("port", 0));
  // Route through the canonical entry point so SIGTERM/SIGINT flush
  // every session exactly as a daemonized run would.
  const char* argv[] = {"tunectl", "--tuner-daemon", sd.c_str(), pt.c_str()};
  return serve::tuner_daemon_main(4, const_cast<char**>(argv));
}

int cmd_tune(const critter::util::Options& opt) {
  const net::Address addr = resolve_daemon(opt);
  tune::TuneOptions topt;
  topt.policy = parse_policy(opt.get("policy", "online"));
  topt.tolerance = opt.get_double("tolerance", 0.125);
  topt.samples = static_cast<int>(opt.get_int("samples", 2));
  topt.workers = static_cast<int>(opt.get_int("workers", 1));
  topt.batch = static_cast<int>(opt.get_int("batch", 0));
  std::tie(topt.strategy, topt.strategy_options) =
      tune::parse_strategy_spec(opt.get("strategy", "exhaustive"));
  topt.prior_file = opt.get("prior", "");
  const tune::Study study = tune::workload_study(
      opt.get("workload", "capital-cholesky"), critter::util::paper_scale());

  serve::ClientOptions copt;
  copt.host = addr.host;
  copt.port = addr.port;
  copt.max_batches = static_cast<int>(opt.get_int("max-batches", 0));
  copt.drop_after_asks =
      static_cast<int>(opt.get_int("drop-after-asks", 0));
  serve::TunerClient client(study, topt,
                            opt.get("session", study.name), copt);
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
                study.configs[static_cast<std::size_t>(st.best_predicted)]
                    .label()
                    .c_str());
  return 0;
}

serve::StatusReply fetch_status(const net::Address& addr,
                                const std::string& session) {
  return serve::decode_status_reply(request(
      addr, net::kTuneStatus, serve::encode_session_ref(session)));
}

/// One stable JSON object per status poll: the decoded per-session fields,
/// this process's socket-layer wire counters, and the daemon's own
/// metrics_json() snapshot verbatim under "daemon_metrics" (null when the
/// daemon predates protocol v3 fields).  Session names are charset-checked
/// by the daemon, so no string escaping is needed.
void print_status_json(const std::string& session,
                       const serve::StatusReply& st) {
  const net::WireCounters wc = net::wire_counters();
  std::printf(
      "{\"session\":\"%s\",\"done\":%s,\"tells\":%d,\"evaluated\":%d,"
      "\"best_predicted\":%d,\"bytes_in\":%lld,\"bytes_out\":%lld,"
      "\"sparse_tells\":%lld,"
      "\"client_wire\":{\"bytes_sent\":%llu,\"bytes_received\":%llu,"
      "\"frames_sent\":%llu,\"frames_received\":%llu},"
      "\"daemon_metrics\":%s}\n",
      session.c_str(), st.done ? "true" : "false", st.tells, st.evaluated,
      st.best_predicted, static_cast<long long>(st.bytes_in),
      static_cast<long long>(st.bytes_out),
      static_cast<long long>(st.sparse_tells),
      static_cast<unsigned long long>(wc.bytes_sent),
      static_cast<unsigned long long>(wc.bytes_received),
      static_cast<unsigned long long>(wc.frames_sent),
      static_cast<unsigned long long>(wc.frames_received),
      st.metrics.empty() ? "null" : st.metrics.c_str());
}

int cmd_status(const critter::util::Options& opt) {
  const std::string session = opt.get("session", "");
  if (session.empty()) return usage();
  const serve::StatusReply st = fetch_status(resolve_daemon(opt), session);
  if (opt.has("json")) {
    print_status_json(session, st);
    return 0;
  }
  std::printf("%s\n", st.text.c_str());
  // This process's side of the conversation, from the socket-layer wire
  // accounting — the round trip above is all the traffic we generated.
  const net::WireCounters wc = net::wire_counters();
  std::printf("client wire: %llu B sent / %llu B received (%llu/%llu "
              "frames)\n",
              static_cast<unsigned long long>(wc.bytes_sent),
              static_cast<unsigned long long>(wc.bytes_received),
              static_cast<unsigned long long>(wc.frames_sent),
              static_cast<unsigned long long>(wc.frames_received));
  return 0;
}

int cmd_watch(const critter::util::Options& opt) {
  const std::string session = opt.get("session", "");
  if (session.empty()) return usage();
  const net::Address addr = resolve_daemon(opt);
  const auto interval =
      static_cast<int>(opt.get_int("interval-ms", 1000));
  const auto max_polls = static_cast<int>(opt.get_int("polls", 0));
  const bool json = opt.has("json");
  for (int poll = 0;; ++poll) {
    const serve::StatusReply st = fetch_status(addr, session);
    if (json)
      print_status_json(session, st);
    else
      std::printf("%s\n", st.text.c_str());
    std::fflush(stdout);
    if (st.done) {
      if (!json) std::printf("sweep complete\n");
      return 0;
    }
    if (max_polls > 0 && poll + 1 >= max_polls) return 0;
    critter::core::sleep_ms(interval);
  }
}

int cmd_export(const critter::util::Options& opt) {
  const std::string session = opt.get("session", "");
  const std::string out = opt.get("out", "");
  if (session.empty() || out.empty()) return usage();
  const std::string stats = request(resolve_daemon(opt), net::kTuneExport,
                                    serve::encode_session_ref(session));
  critter::core::write_file_atomic(out, stats);
  std::printf("exported %zu bytes of session '%s' statistics to %s\n",
              stats.size(), session.c_str(), out.c_str());
  return 0;
}

int cmd_shutdown(const critter::util::Options& opt) {
  request(resolve_daemon(opt), net::kTuneShutdown, "");
  std::printf("daemon acknowledged shutdown\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (serve::is_tuner_daemon(argc, argv))
    return serve::tuner_daemon_main(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  critter::util::Options opt(argc - 1, argv + 1);
  try {
    if (cmd == "serve") return cmd_serve(opt);
    if (cmd == "tune") return cmd_tune(opt);
    if (cmd == "status") return cmd_status(opt);
    if (cmd == "watch") return cmd_watch(opt);
    if (cmd == "export") return cmd_export(opt);
    if (cmd == "shutdown") return cmd_shutdown(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tunectl %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
