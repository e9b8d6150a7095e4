#include "net/blob.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/fsio.hpp"
#include "core/wire_codec.hpp"
#include "util/check.hpp"

namespace critter::net {

namespace {

/// Frame payloads of the blob protocol are [str key] or [str key][str
/// content] on the way in, raw content (kOk) or a message (kErr) on the
/// way out, with exists/published answered as a single "0"/"1" byte.
std::string pack_key(const std::string& key) {
  core::WireWriter w;
  w.str(key);
  return std::move(w.out);
}

std::string pack_key_content(const std::string& key,
                             const std::string& content) {
  core::WireWriter w;
  w.str(key);
  w.str(content);
  return std::move(w.out);
}

/// Split "exchange/s0_r1.snap" under `root` into its directory and leaf
/// for the two-step publish helpers, creating intermediate directories
/// (EEXIST-tolerant) so a fresh DirStore works on an empty root.
std::pair<std::string, std::string> split_dir(const std::string& root,
                                              const std::string& key) {
  std::string dir = root;
  std::size_t start = 0;
  for (std::size_t pos = key.find('/'); pos != std::string::npos;
       pos = key.find('/', start)) {
    dir.append("/").append(key, start, pos - start);
    core::make_dir(dir);
    start = pos + 1;
  }
  return {dir, key.substr(start)};
}

}  // namespace

void DirStore::put(const std::string& key, const std::string& content) {
  const auto [dir, name] = split_dir(root_, key);
  core::write_file_atomic(dir + "/" + name, content);
}

std::string DirStore::get(const std::string& key) {
  return core::read_file(root_ + "/" + key);
}

bool DirStore::exists(const std::string& key) {
  return core::file_exists(root_ + "/" + key);
}

void DirStore::publish(const std::string& key, const std::string& payload) {
  const auto [dir, name] = split_dir(root_, key);
  core::publish_file(dir, name, payload);
}

bool DirStore::published(const std::string& key) {
  return core::file_exists(root_ + "/" + key + ".ok");
}

std::string DirStore::read_published(const std::string& key) {
  const auto [dir, name] = split_dir(root_, key);
  return core::read_published(dir, name);
}

void DirStore::remove(const std::string& key) {
  // Manifest first, then payload (the publish order reversed): a reader
  // polling published() stops seeing the key before the payload can go
  // missing under it.  ENOENT is the idempotent no-op.
  std::remove((root_ + "/" + key + ".ok").c_str());
  std::remove((root_ + "/" + key).c_str());
}

void MemStore::put(const std::string& key, const std::string& content) {
  std::lock_guard<std::mutex> lk(mu_);
  blobs_[key] = content;
}

std::string MemStore::get(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = blobs_.find(key);
  CRITTER_CHECK(it != blobs_.end(), "cannot open " + key);
  return it->second;
}

bool MemStore::exists(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  return blobs_.count(key) != 0;
}

void MemStore::publish(const std::string& key, const std::string& payload) {
  std::lock_guard<std::mutex> lk(mu_);
  // Same order as on disk: payload first, manifest last, so a concurrent
  // reader that sees the manifest always finds a complete payload.
  blobs_[key] = payload;
  manifests_[key] = core::publish_manifest(payload);
}

bool MemStore::published(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  return manifests_.count(key) != 0;
}

std::string MemStore::read_published(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto mit = manifests_.find(key);
  CRITTER_CHECK(mit != manifests_.end(),
                "missing publish manifest " + key +
                    " — the artifact was never published");
  const auto bit = blobs_.find(key);
  CRITTER_CHECK(bit != blobs_.end(),
                "stale manifest " + key + ": payload is missing");
  core::check_publish_manifest(mit->second, bit->second, key);
  return bit->second;
}

void MemStore::remove(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  manifests_.erase(key);
  blobs_.erase(key);
}

BlobServer::BlobServer(Store& store, int port) : store_(store) {
  listener_ = std::make_unique<Listener>(port);
  port_ = listener_->port();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

BlobServer::~BlobServer() { stop(); }

void BlobServer::stop() {
  if (stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_->close();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(threads_mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();
}

void BlobServer::accept_loop() {
  while (!stop_.load()) {
    Connection conn = listener_->accept(0.1);
    if (!conn.valid()) continue;
    std::lock_guard<std::mutex> lk(threads_mu_);
    conn_threads_.emplace_back(
        [this, c = std::move(conn)]() mutable { serve_connection(std::move(c)); });
  }
}

void BlobServer::serve_connection(Connection conn) {
  try {
    // Handshake first: refuse streams meant for another service.
    const Frame hello = recv_frame(conn, 10.0);
    if (hello.verb != kHello || hello.payload != kBlobService) {
      send_frame(conn, kErr, "blob server: bad handshake", 10.0);
      return;
    }
    send_frame(conn, kOk, "", 10.0);
    while (!stop_.load()) {
      if (!conn.readable(0.2)) continue;
      Frame req;
      if (!recv_frame_opt(conn, req, 30.0)) return;  // orderly client exit
      std::string reply;
      std::uint32_t verb = kOk;
      try {
        core::WireReader r{req.payload};
        const std::string key = r.str();
        // Content is bounded by the frame, not by str()'s key bound: its
        // length is checked against the bytes remaining before any copy.
        const auto content = [&r] {
          const std::int32_t n = r.i32();
          CRITTER_CHECK(n >= 0, "blob server: negative content length");
          return std::string(r.bytes(static_cast<std::size_t>(n)));
        };
        switch (req.verb) {
          case kBlobPut:
            store_.put(key, content());
            break;
          case kBlobGet:
            reply = store_.get(key);
            break;
          case kBlobExists:
            reply = store_.exists(key) ? '1' : '0';
            break;
          case kBlobPublish:
            store_.publish(key, content());
            break;
          case kBlobPublished:
            reply = store_.published(key) ? '1' : '0';
            break;
          case kBlobReadPublished:
            reply = store_.read_published(key);
            break;
          case kBlobRemove:
            store_.remove(key);
            break;
          default:
            verb = kErr;
            reply = "blob server: verb " + std::to_string(req.verb) +
                    " is not a blob operation";
        }
      } catch (const std::exception& e) {
        verb = kErr;
        reply = e.what();
      }
      send_frame(conn, verb, reply, 30.0);
    }
  } catch (const std::exception&) {
    // A torn frame or timed-out peer kills this connection, not the
    // server; the dist layer's retry/degrade machinery owns recovery.
  }
}

BlobClient::BlobClient(const std::string& host, int port,
                       double connect_deadline_s, double op_deadline_s)
    : op_deadline_s_(op_deadline_s) {
  conn_ = Connection::connect(host, port, connect_deadline_s);
  send_frame(conn_, kHello, kBlobService, connect_deadline_s);
  const Frame ack = recv_frame(conn_, connect_deadline_s);
  CRITTER_CHECK(ack.verb == kOk,
                "net: blob handshake refused: " + ack.payload);
}

std::string BlobClient::request(std::uint32_t verb,
                                const std::string& payload) {
  std::lock_guard<std::mutex> lk(mu_);
  send_frame(conn_, verb, payload, op_deadline_s_);
  const Frame reply = recv_frame(conn_, op_deadline_s_);
  if (reply.verb == kErr) throw std::runtime_error(reply.payload);
  CRITTER_CHECK(reply.verb == kOk,
                "net: unexpected blob reply verb " +
                    std::to_string(reply.verb));
  return reply.payload;
}

void BlobClient::put(const std::string& key, const std::string& content) {
  request(kBlobPut, pack_key_content(key, content));
}

std::string BlobClient::get(const std::string& key) {
  return request(kBlobGet, pack_key(key));
}

bool BlobClient::exists(const std::string& key) {
  return request(kBlobExists, pack_key(key)) == "1";
}

void BlobClient::publish(const std::string& key, const std::string& payload) {
  request(kBlobPublish, pack_key_content(key, payload));
}

bool BlobClient::published(const std::string& key) {
  return request(kBlobPublished, pack_key(key)) == "1";
}

std::string BlobClient::read_published(const std::string& key) {
  return request(kBlobReadPublished, pack_key(key));
}

void BlobClient::remove(const std::string& key) {
  request(kBlobRemove, pack_key(key));
}

}  // namespace critter::net
