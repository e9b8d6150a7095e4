// TunerClient: the evaluating side of daemon-mediated tuning
// (DESIGN.md §12.4).
//
// A client owns a *mirror* SweepDriver but no strategy: per batch it ASKs
// the daemon, imports the session statistics the reply carries (or skips
// the ship entirely when its generation token proves the mirror already
// holds them), runs the batch under the reply's evaluation hints — exactly
// what Tuner::evaluate() would do — and TELLs back the outcomes, the
// totals contributions, and the statistics it grew, as the whole payload
// (DESIGN.md §13).  Because evaluation is a pure function of
// (study, options, statistics, batch, hints), every client computes the
// same bytes for the same claim, which is why client churn and concurrency
// never change the tuned answer.
//
// It talks to the daemon through the one frame client (net/service.hpp).
// Fault handling mirrors the dist layer's degrade-not-abort stance: any
// failure mid-iteration abandons the connection and the in-flight
// operation, reconnects with exponential backoff, and restarts from ASK.
// If the tell had landed before the cut, the re-ask claims the next batch;
// if not, the daemon re-issues the orphaned one and the client
// re-evaluates it to the identical result.
#pragma once

#include <memory>
#include <string>

#include "net/service.hpp"
#include "serve/protocol.hpp"
#include "tune/tuner.hpp"

namespace critter::serve {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  double connect_deadline_s = 10.0;  ///< connect + hello
  double op_deadline_s = 120.0;      ///< each request/reply pair
  /// Consecutive failed iterations before run() gives up.
  int max_reconnects = 8;
  double backoff_initial_s = 0.05;
  double backoff_max_s = 1.0;
  /// Stop after evaluating this many batches (0 = until the sweep is
  /// done) — lets a test split one sweep across cooperating clients.
  int max_batches = 0;
  /// Injected churn: close the connection right after the Nth ask of this
  /// client's lifetime, leaving the claim orphaned, and return.  The
  /// daemon-smoke scenario: a disconnected evaluator's batch must re-issue
  /// to its peers with no effect on the tuned result.
  int drop_after_asks = 0;
};

/// What run() did — counters for tests and the bench harness.
struct ClientReport {
  int asks = 0;
  int tells = 0;
  int reconnects = 0;
  bool done = false;     ///< the daemon reported the sweep complete
  bool dropped = false;  ///< returned via drop_after_asks
  double ask_tell_wall_s = 0.0;  ///< summed request round-trip time
};

class TunerClient {
 public:
  /// `study`/`opt` must be the session identity every participating client
  /// agrees on; warm/prior snapshots are forwarded to the daemon on open
  /// (the daemon owns them from then on).  Requires a registry workload,
  /// like the subprocess executor.
  TunerClient(const tune::Study& study, const tune::TuneOptions& opt,
              std::string session, ClientOptions copt);
  ~TunerClient();

  /// Evaluate batches until the sweep is done or a limit hits.
  ClientReport run();

  /// One-shot verbs (connect on demand).
  std::string export_stats();
  StatusReply status();

  TunerClient(const TunerClient&) = delete;
  TunerClient& operator=(const TunerClient&) = delete;

 private:
  /// The connection with the session open on it: connects and OPENs when
  /// there is none.
  net::Client& connection();

  tune::Study study_;
  tune::TuneOptions opt_;        ///< mirror options (warm/prior stripped)
  std::string session_;
  ClientOptions copt_;
  std::string open_payload_;     ///< identity + snapshots, rebuilt per open
  std::unique_ptr<tune::SweepDriver> mirror_;
  std::unique_ptr<net::Client> conn_;  ///< null until opened, after failure
  int lifetime_asks_ = 0;
  /// Generation-tracked state mirror (DESIGN.md §13): the exact serialized
  /// session statistics this client last synchronized with the daemon, and
  /// the daemon's generation token for them.  A matching token lets ASK
  /// ship nothing (the mirror already holds the bytes), and TELL ships
  /// nothing when the batch left them unchanged.  Reset on ANY failure or
  /// reconnect — generation tokens are only comparable within one daemon
  /// lifetime and one uninterrupted exchange.
  std::string held_state_;
  std::uint64_t held_gen_ = 0;
};

}  // namespace critter::serve
