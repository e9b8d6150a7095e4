// tunectl: the tuner-daemon control CLI (DESIGN.md §12.5).
//
//   tunectl serve    --state-dir=DIR [--port=N]
//   tunectl tune     --session=S [--connect=H:P | --state-dir=DIR]
//                    [--workload=NAME] [--strategy=SPEC] [--policy=P]
//                    [--tolerance=X] [--samples=N] [--workers=N] [--batch=N]
//                    [--reset=0|1] [--prior=FILE] [--max-batches=N]
//                    [--drop-after-asks=N]
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
// clients).  Both run through the tuning programs' front end
// (app/front_end.hpp), which reads --prior=FILE here and ships its bytes to
// the daemon; `tunectl tune --help` lists the tuning flags.
// `status`/`watch`/`export`/`shutdown` speak to existing
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

#include "app/front_end.hpp"
#include "core/fsio.hpp"
#include "net/service.hpp"

namespace app = critter::app;
namespace net = critter::net;
namespace serve = critter::serve;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tunectl <serve|tune|status|watch|export|shutdown> [--flags]\n"
      "  serve    --state-dir=DIR [--port=N]\n"
      "  tune     --session=S [--connect=H:P | --state-dir=DIR] "
      "[tuning flags: tunectl tune --help]\n"
      "  status   --session=S [--json] [--connect=H:P | --state-dir=DIR]\n"
      "  watch    --session=S [--interval-ms=N] [--polls=N] [--json]\n"
      "           [--connect=H:P | --state-dir=DIR]\n"
      "  export   --session=S --out=FILE [--connect=H:P | --state-dir=DIR]\n"
      "  shutdown [--connect=H:P | --state-dir=DIR]\n");
  return 2;
}

/// Sessionless verbs send one request on a fresh connection — no OPEN,
/// so no study flags needed to inspect or stop a running daemon.
std::string request(const net::Address& addr, std::uint32_t verb,
                    const std::string& payload) {
  return net::Client(addr.host, addr.port, serve::kTuneService, 10.0, 30.0)
      .request(verb, payload);
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
      "\"client_wire\":{\"bytes_sent\":%llu,\"bytes_received\":%llu,"
      "\"frames_sent\":%llu,\"frames_received\":%llu},"
      "\"daemon_metrics\":%s}\n",
      session.c_str(), st.done ? "true" : "false", st.tells, st.evaluated,
      st.best_predicted, static_cast<long long>(st.bytes_in),
      static_cast<long long>(st.bytes_out),
      static_cast<unsigned long long>(wc.bytes_sent),
      static_cast<unsigned long long>(wc.bytes_received),
      static_cast<unsigned long long>(wc.frames_sent),
      static_cast<unsigned long long>(wc.frames_received),
      st.metrics.empty() ? "null" : st.metrics.c_str());
}

int cmd_status(const critter::util::Options& opt) {
  const std::string session = opt.get("session", "");
  if (session.empty()) return usage();
  const serve::StatusReply st = fetch_status(app::daemon_address(opt), session);
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
  const net::Address addr = app::daemon_address(opt);
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
  const std::string stats = request(app::daemon_address(opt), net::kTuneExport,
                                    serve::encode_session_ref(session));
  critter::core::write_file_atomic(out, stats);
  std::printf("exported %zu bytes of session '%s' statistics to %s\n",
              stats.size(), session.c_str(), out.c_str());
  return 0;
}

int cmd_shutdown(const critter::util::Options& opt) {
  request(app::daemon_address(opt), net::kTuneShutdown, "");
  std::printf("daemon acknowledged shutdown\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (serve::is_tuner_daemon(argc, argv))
    return serve::tuner_daemon_main(argc, argv);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "serve" || cmd == "tune")
    return app::run_program(
        argc - 1, argv + 1,
        {.name = cmd == "serve" ? "tunectl serve" : "tunectl tune",
         .pin = cmd == "serve" ? app::Pin::Daemon : app::Pin::Client});
  try {
    const critter::util::Options opt(argc - 1, argv + 1);
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
