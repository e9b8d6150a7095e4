// TunerDaemon: ask/tell tuning as a long-lived multi-client service
// (DESIGN.md §12.3-§12.5).
//
// The daemon owns the authoritative Tuner session per (session name); any
// number of clients connect over TCP and speak the serve/protocol.hpp
// verbs.  The daemon is a request handler on the one frame service
// (net/service.hpp), which owns the listener, the connection threads and
// the hello; a close hook releases a departed connection's claims.
// Evaluation happens *client-side*: an ASK hands out the claimed batch,
// the evaluation hints, and the session's shared statistics; the client
// mirrors evaluate() with its own SweepDriver
// and TELLs back outcomes, totals contributions, and its post-evaluation
// statistics (a sparse patch or a full payload).  The TELL *replaces* the
// session's statistics bytes with the client's — sound because the mirror
// started from exactly what ASK shipped and only one claim is ever
// outstanding — so the state after every tell is bit-identical to having
// evaluated locally, and N concurrent clients produce exactly the
// single-process run_study() result.  The daemon holds those statistics
// only as bytes: its Tuner drives the strategy from outcomes alone, so a
// TELL validates and splices the incoming chunks but decodes no table.  A
// fresh session's bytes start from its warm start, if it has one.
//
// Determinism across concurrent clients: a session has at most ONE
// outstanding claim.  The first asker claims the next strategy batch;
// later askers block until the claim is told.  A client that disconnects
// mid-batch orphans its claim — the daemon re-issues the *same* batch (same
// hints, same statistics — nothing can change while the claim is open) to
// the next asker, the §10 degrade/skip analogue: churn costs wall-clock,
// never a different answer.
//
// Durability: every TELL is journaled before it changes the session,
// through the session's dist::SessionJournal — the journal shard workers
// use (dist/checkpoint.hpp, DESIGN.md §10-§11).  A TELL becomes one journal
// record whose session patch is the TELL's state field *verbatim* (""
// = unchanged, sparse patch, or full payload), with a full checkpoint slot
// every 17th record and after a failed write.  Only once the record has
// landed does the session's Tuner hear the outcomes and the claim close, so
// a TELL whose write fails leaves the claim open and its batch re-issues.
// Resume byte-splices the patches onto the base slot's serialized
// statistics (DESIGN.md §13) and decodes nothing, so the reconstructed
// state is the exact byte string the live daemon held, at O(tells) journal
// bytes.  A daemon killed outright (kill -9 included) and restarted on the
// same state directory replays each session — best full slot, longest
// valid log prefix, re-ask/re-tell strategy-only — into the exact state it
// held at its last journaled tell; a torn append costs at most that one
// tell, and the first record after such a resume re-bases with a full slot.
// SIGTERM/SIGINT flush a final full checkpoint per session before exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/service.hpp"
#include "serve/protocol.hpp"

namespace critter::serve {

struct DaemonOptions {
  /// Session journals, the port file, and the resume state live here.
  /// Created if missing; a restart on the same directory resumes every
  /// journaled session.
  std::string state_dir;
  /// TCP port to listen on; 0 binds an ephemeral port.  Either way the
  /// bound port is published atomically to <state_dir>/port.
  int port = 0;
  /// Per-operation socket deadline for client connections (a stuck client
  /// cannot wedge its serving thread past this).
  double op_deadline_s = 30.0;
};

class TunerDaemon {
 public:
  /// Resumes journaled sessions, starts serving, then publishes the port
  /// file.  Throws on a bad state directory or an unusable port.
  explicit TunerDaemon(DaemonOptions opt);
  ~TunerDaemon();

  int port() const;

  /// Graceful shutdown: stop serving (every connection thread joined),
  /// then flush a final full checkpoint per session.  Runs once; the
  /// destructor calls it.  kTuneShutdown only asks for it: see stopping().
  void stop();

  /// True once stop() ran or a client sent kTuneShutdown; the owner polls
  /// it and then calls stop().
  bool stopping() const;

  TunerDaemon(const TunerDaemon&) = delete;
  TunerDaemon& operator=(const TunerDaemon&) = delete;

 private:
  struct Session;

  std::string handle_request(const net::Frame& rq, std::uint64_t conn_id);
  void release_claims(std::uint64_t conn_id);

  Session& resolve_session(const std::string& name);
  Session& open_session(const OpenRequest& rq);
  void load_sessions();
  /// The one session loader, for a fresh OPEN and a restart alike: builds
  /// the session from its identity (the manifest and the warm-start and
  /// prior bytes, "" = none) and resumes its journal, if it has one.
  /// Writes nothing.
  std::unique_ptr<Session> load_session(const std::string& name,
                                        std::string manifest,
                                        std::string warm, std::string prior);

  DaemonOptions opt_;
  std::atomic<bool> stop_{false};
  std::once_flag stop_once_;
  std::mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  /// Last member: destroyed (and so stopped) first, while the sessions its
  /// handlers touch are still alive.
  std::unique_ptr<net::Server> server_;
};

/// Poll <state_dir>/port until the daemon publishes it (or the deadline
/// passes — then throws).  The launcher-side rendezvous.
int read_daemon_port(const std::string& state_dir, double deadline_s = 10.0);

/// True when argv carries --tuner-daemon: main() must then hand the process
/// to tuner_daemon_main() (and exit with its return value) before any other
/// argument handling, with custom workloads registered first — resumed
/// sessions rebuild their studies from the registry.
bool is_tuner_daemon(int argc, char** argv);

/// The --tuner-daemon entry point: parses --state-dir=DIR [--port=N] and
/// calls run_daemon().
int tuner_daemon_main(int argc, char** argv);

/// Serve in the foreground until SIGTERM/SIGINT (flushing every session)
/// or a client's kTuneShutdown, printing the bound port first.  Returns 0
/// on a clean exit, 1 when the daemon cannot start.
int run_daemon(const DaemonOptions& opt);

}  // namespace critter::serve
