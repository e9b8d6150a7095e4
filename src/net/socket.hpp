// Blocking-socket layer of the network subsystem (DESIGN.md §12): a
// listener and a connection with per-operation deadlines, nothing more.
// Framing lives in net/frame.hpp, the server and client in
// net/service.hpp, the tuner daemon on top.
//
// Deadlines are relative seconds per call, enforced with poll() over
// non-blocking descriptors — a slow or dead peer surfaces as a thrown
// timeout naming the operation, never a hung process (mirroring the dist
// layer's "throw, never hang" contract).  The tuner client takes its
// connect and request deadlines from serve::ClientOptions, and the daemon
// bounds every frame it reads or writes by its `op_deadline_s`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace critter::net {

/// Process-wide wire accounting: every byte send_all() pushes and
/// recv_all()/recv_all_opt() drains, and every frame the frame codec
/// (net/frame.hpp) completes, land in one set of atomic counters — the
/// substrate for `tunectl status`'s client wire line (DESIGN.md §13.2).
/// Counters are monotonic within the process and cheap (relaxed atomics on
/// the transfer path); reset_wire_counters() zeroes them for interval
/// measurements.
struct WireCounters {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
};
WireCounters wire_counters();
void reset_wire_counters();
/// Frame-codec completion hooks (called by net/frame.cc only).
void note_frame_sent();
void note_frame_received();

/// "host:port" -> (host, port); CRITTER_CHECK-fails on malformed input.
struct Address {
  std::string host;
  int port = 0;
};
Address parse_address(const std::string& spec);

/// One established stream connection (move-only; closes on destruction).
/// All I/O is all-or-nothing under a deadline: a partial transfer past the
/// deadline or a mid-message peer close throws.
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd);
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connect to host:port within `deadline_s` seconds.
  static Connection connect(const std::string& host, int port,
                            double deadline_s);

  bool valid() const { return fd_ >= 0; }
  void close();

  /// Send exactly `n` bytes before the deadline; throws on error/timeout.
  void send_all(const void* p, std::size_t n, double deadline_s);
  /// Receive exactly `n` bytes before the deadline; throws on
  /// error/timeout/mid-message close.
  void recv_all(void* p, std::size_t n, double deadline_s);
  /// Like recv_all, but an orderly peer close *before the first byte*
  /// returns false instead of throwing (the end-of-session signal at a
  /// message boundary).
  bool recv_all_opt(void* p, std::size_t n, double deadline_s);

  /// True once data (or a close) is ready to read, false if `timeout_s`
  /// elapses first — the slice a server loop polls between checks of its
  /// shutdown flag.
  bool readable(double timeout_s);

 private:
  int fd_ = -1;
};

/// Bound, listening TCP socket on 127.0.0.1 (port 0: kernel-assigned —
/// read the outcome from port()).
class Listener {
 public:
  explicit Listener(int port, int backlog = 64);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int port() const { return port_; }
  bool valid() const { return fd_ >= 0; }
  void close();

  /// Accept one connection, waiting at most `timeout_s`; an invalid
  /// Connection means the timeout elapsed (poll again — this is how the
  /// frame server's accept loop observes its shutdown flag).
  Connection accept(double timeout_s);

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace critter::net
