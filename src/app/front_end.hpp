// The one front end of the tuning programs (DESIGN.md §7): autotune_cholesky,
// autotune_qr and tunectl's serve and tune verbs parse their flags, run a
// study and report through it.  It is the only code that dispatches into
// both dist/ and serve/.  A command line picks one of four deployments:
//
//   local   the study runs in this process (tune::run_study).
//   shards  --shards=N (N > 1) fans it across N shards through
//           dist::run_sharded.  --executor=subprocess (the default: one
//           worker process per shard, re-execing the binary via
//           --shard-worker and exchanging StatSnapshot files through a run
//           directory, the only thing the workers share) or in-process
//           (thread-parallel shards).  --exchange-every=B makes shards trade
//           statistics deltas every B batches mid-sweep instead of only
//           merging at the end.  Subprocess fleets are
//           fault-tolerant: --max-retries=N relaunches a crashed or stalled
//           worker up to N times, --checkpoint-every=B makes workers publish
//           a recovery checkpoint every B batches so a relaunch resumes
//           bit-identically, and --exchange-strict=0 lets a shard skip a
//           peer whose round delta never arrives instead of aborting.
//   daemon  --serve=DIR [--port=N] serves persistent ask/tell sessions
//           (serve::run_daemon: journals under DIR, the bound port
//           published to DIR/port) instead of tuning.
//   client  --connect=HOST:PORT [--session=S] joins a daemon session as an
//           evaluating serve::TunerClient; several clients on one session
//           reproduce the in-process sweep bit-identically.
//           --max-batches=N stops after N batches, --drop-after-asks=N
//           injects a disconnect with a claim open.
//
// The tuning flags are the same for all four: --workload --strategy
// --policy --tolerance --samples --workers --batch --reset --prior, each
// defaulting per program (Defaults), plus --save-stats=FILE, which saves a
// local or sharded sweep's final statistics.  --prior=FILE is loaded here,
// once, into TuneOptions::prior, so a prior travels only as bytes: through
// the run directory to shard workers and inside OPEN to a daemon, never as
// a path another process opens.  tunectl's verbs pin a deployment: `serve`
// is the daemon and names its directory --state-dir, and `tune` is a client
// that finds its daemon by --connect or by the port file under --state-dir.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "core/stat_store.hpp"
#include "dist/executor.hpp"
#include "net/socket.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "tune/tuner.hpp"
#include "util/cli.hpp"

namespace critter::app {

/// A program's defaults for the tuning flags (these: autotune_cholesky's
/// and tunectl's).
struct Defaults {
  std::string workload = "capital-cholesky";
  std::string policy = "online";
  double tolerance = 0.125;
  int samples = 2;
  bool reset = false;
};

struct Local {};
struct Shards {
  int count = 2;
  std::string executor = "subprocess";
  dist::ExchangePolicy exchange;
  dist::FaultPolicy fault;  ///< applies to the subprocess executors only
};
struct Daemon {
  serve::DaemonOptions options;
};
struct Client {
  std::string session;  ///< default: the study's name
  serve::ClientOptions options;
};
using Deployment = std::variant<Local, Shards, Daemon, Client>;

/// The deployment a command line may pick: any, or the one a tunectl verb
/// pins.
enum class Pin : std::uint8_t { None, Daemon, Client };

/// One parsed command line.
struct Invocation {
  tune::Study study;
  tune::TuneOptions options;  ///< options.prior points into `prior`
  std::unique_ptr<core::StatSnapshot> prior;
  Deployment deployment;
  std::string save_stats;
};

/// Parse the tuning and deployment flags.  Throws on an unknown policy,
/// strategy, workload or executor, and with StatSnapshot::load_file's own
/// error on an absent or corrupt --prior.
Invocation parse(const util::Options& flags, const Defaults& defaults,
                 Pin pin = Pin::None);

/// The daemon a tunectl command names: --connect=HOST:PORT, else the port
/// file its --state-dir publishes.
net::Address daemon_address(const util::Options& flags);

/// A tuning program: its name, defaults and pin, and its own parts of the
/// local and sharded report — the per-configuration table's last column
/// and the summary line under the table.
struct Program {
  const char* name = "";
  Defaults defaults;
  Pin pin = Pin::None;
  const char* column = "";
  std::string (*cell)(const tune::ConfigOutcome&) = nullptr;
  void (*summary)(const tune::TuneResult&) = nullptr;
};

/// A tuning program's whole main(): the --shard-worker and --tuner-daemon
/// re-entries, --help (the flags with the program's defaults, then
/// tune::registry_help()), parse(), then the deployment and its report.
/// Errors print as "<name>: <what>" and return 1.
int run_program(int argc, char** argv, const Program& program);

}  // namespace critter::app
