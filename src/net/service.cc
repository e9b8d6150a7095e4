#include "net/service.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "core/fsio.hpp"
#include "obs/log.hpp"
#include "util/check.hpp"

namespace critter::net {

namespace {

/// How long a blocking wait (accept, an idle connection) runs before its
/// thread looks at the stop flag again.
constexpr int kPollSlice_ms = 200;
constexpr double kPollSlice_s = kPollSlice_ms / 1000.0;

}  // namespace

Server::Server(int port, std::string service, Handler handler,
               CloseHook on_close, double op_deadline_s)
    : listener_(port),
      service_(std::move(service)),
      handler_(std::move(handler)),
      on_close_(std::move(on_close)),
      op_deadline_s_(op_deadline_s) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stop_.exchange(true)) return;
  accept_thread_.join();
  listener_.close();
  for (Live& c : live_) c.thread.join();
  live_.clear();
}

void Server::accept_loop() {
  std::uint64_t next_id = 1;
  while (!stop_.load()) {
    join_finished();
    try {
      Connection conn = listener_.accept(kPollSlice_s);
      if (!conn.valid()) continue;
      Live& c = live_.emplace_back();
      c.thread = std::thread(
          [this, &c, id = next_id++](Connection accepted) {
            serve(std::move(accepted), id);
            c.done.store(true);
          },
          std::move(conn));
    } catch (const std::exception& e) {
      // Out of descriptors or threads: this connection is refused, and
      // the live ones are still served.  Only an entry whose thread failed
      // to start holds no thread.
      if (!live_.empty() && !live_.back().thread.joinable()) live_.pop_back();
      obs::log_error("%s server: %s", service_.c_str(), e.what());
      core::sleep_ms(kPollSlice_ms);
    }
  }
}

void Server::join_finished() {
  for (auto it = live_.begin(); it != live_.end();) {
    if (!it->done.load()) {
      ++it;
      continue;
    }
    it->thread.join();
    it = live_.erase(it);
  }
}

void Server::serve(Connection conn, std::uint64_t id) {
  try {
    // Hello first: refuse streams meant for another service.
    const Frame hello = recv_frame(conn, op_deadline_s_);
    const bool greeted = hello.verb == kHello && hello.payload == service_;
    send_frame(conn, greeted ? kOk : kErr,
               greeted ? "" : "bad handshake: expected " + service_,
               op_deadline_s_);
    Frame rq;
    while (greeted && !stop_.load()) {
      if (!conn.readable(kPollSlice_s)) continue;
      if (!recv_frame_opt(conn, rq, op_deadline_s_)) break;  // client left
      Frame rp{kOk, {}};
      try {
        rp.payload = handler_(rq, id);
      } catch (const std::exception& e) {
        rp = {kErr, e.what()};
      }
      send_frame(conn, rp.verb, rp.payload, op_deadline_s_);
    }
  } catch (const std::exception&) {
    // A torn frame or a timed-out peer ends this connection, not the
    // server; the client's retry machinery owns recovery.
  }
  if (on_close_) on_close_(id);
}

Client::Client(const std::string& host, int port, const std::string& service,
               double connect_deadline_s, double op_deadline_s)
    : conn_(Connection::connect(host, port, connect_deadline_s)),
      op_deadline_s_(op_deadline_s) {
  exchange(kHello, service, connect_deadline_s);
}

std::string Client::request(std::uint32_t verb, const std::string& payload) {
  std::lock_guard<std::mutex> lk(mu_);
  return exchange(verb, payload, op_deadline_s_);
}

std::string Client::exchange(std::uint32_t verb, const std::string& payload,
                             double deadline_s) {
  send_frame(conn_, verb, payload, deadline_s);
  Frame reply = recv_frame(conn_, deadline_s);
  if (reply.verb == kErr) throw std::runtime_error(reply.payload);
  CRITTER_CHECK(reply.verb == kOk,
                "net: unexpected reply verb " + std::to_string(reply.verb));
  return std::move(reply.payload);
}

}  // namespace critter::net
