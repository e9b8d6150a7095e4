// The frame service: the server loop and the client a critter network
// service runs on (DESIGN.md §12.1).  A service is a name, a request
// handler and an optional hook that runs when a connection closes; the
// tuner daemon (serve/daemon.hpp) is the one service.
//
// A connection opens with a hello: the client sends kHello carrying the
// service name, the server answers kOk, or kErr ("bad handshake") and
// closes, so a stream meant for one service never cross-wires into
// another.  After that every request is one frame and every reply one
// frame: kOk with the handler's payload, or kErr carrying the text of the
// exception the handler threw.  The client rethrows that text verbatim,
// so a remote failure reads exactly like the local one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace critter::net {

/// Serves one named service on 127.0.0.1: an accept loop, one thread per
/// live connection, the hello check and the request loop.  A connection's
/// thread is joined by the accept loop once it finishes, so a server that
/// outlives many short connections holds only the live ones.
class Server {
 public:
  /// Answers one request of connection `conn` (ids count up from 1 and are
  /// never reused) with a kOk payload; throwing replies kErr with the
  /// exception's text instead.  Runs on the connection's thread.
  using Handler =
      std::function<std::string(const Frame& request, std::uint64_t conn)>;
  /// Runs on a connection's thread once it ends, however it ends.
  using CloseHook = std::function<void(std::uint64_t conn)>;

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  /// accepting.  `op_deadline_s` bounds every frame read or write on a
  /// connection, so a stuck peer cannot wedge its thread past it.
  Server(int port, std::string service, Handler handler,
         CloseHook on_close = {}, double op_deadline_s = 30.0);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return listener_.port(); }
  /// Stop accepting, end every connection at its next request boundary
  /// (one still owing its hello within `op_deadline_s`) and join every
  /// thread.  Idempotent; never call it from a handler.
  void stop();

 private:
  struct Live {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve(Connection conn, std::uint64_t id);
  void join_finished();

  Listener listener_;
  std::string service_;
  Handler handler_;
  CloseHook on_close_;
  double op_deadline_s_;
  std::atomic<bool> stop_{false};
  std::list<Live> live_;  ///< accept thread's until stop() joins it
  std::thread accept_thread_;
};

/// One connection to a frame service: connect, hello, then request/reply.
/// Thread-safe: one request is in flight at a time.
class Client {
 public:
  /// Connect and say hello, both within `connect_deadline_s`; throws if
  /// either fails or the server refuses the service.  `op_deadline_s`
  /// bounds each later request/reply pair.
  Client(const std::string& host, int port, const std::string& service,
         double connect_deadline_s, double op_deadline_s);

  /// Send one request and return the kOk reply's payload; a kErr reply
  /// throws std::runtime_error carrying the remote text.
  std::string request(std::uint32_t verb, const std::string& payload);

 private:
  std::string exchange(std::uint32_t verb, const std::string& payload,
                       double deadline_s);

  std::mutex mu_;
  Connection conn_;
  double op_deadline_s_;
};

}  // namespace critter::net
