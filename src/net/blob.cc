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

/// Answer one blob request from `store`, in the payload shapes above.
std::string dispatch(Store& store, const Frame& req) {
  core::WireReader r{req.payload};
  const std::string key = r.str();
  // Content is bounded by the frame, not by str()'s key bound: its length
  // is checked against the bytes remaining before any copy.
  const auto content = [&r] {
    const std::int32_t n = r.i32();
    CRITTER_CHECK(n >= 0, "blob server: negative content length");
    return std::string(r.bytes(static_cast<std::size_t>(n)));
  };
  switch (req.verb) {
    case kBlobPut:
      store.put(key, content());
      return {};
    case kBlobGet:
      return store.get(key);
    case kBlobExists:
      return store.exists(key) ? "1" : "0";
    case kBlobPublish:
      store.publish(key, content());
      return {};
    case kBlobPublished:
      return store.published(key) ? "1" : "0";
    case kBlobReadPublished:
      return store.read_published(key);
    case kBlobRemove:
      store.remove(key);
      return {};
  }
  throw std::runtime_error("blob server: verb " + std::to_string(req.verb) +
                           " is not a blob operation");
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

BlobServer::BlobServer(Store& store, int port)
    : Server(port, kBlobService, [&store](const Frame& req, std::uint64_t) {
        return dispatch(store, req);
      }) {}

BlobClient::BlobClient(const std::string& host, int port,
                       double connect_deadline_s, double op_deadline_s)
    : client_(host, port, kBlobService, connect_deadline_s, op_deadline_s) {}

void BlobClient::put(const std::string& key, const std::string& content) {
  client_.request(kBlobPut, pack_key_content(key, content));
}

std::string BlobClient::get(const std::string& key) {
  return client_.request(kBlobGet, pack_key(key));
}

bool BlobClient::exists(const std::string& key) {
  return client_.request(kBlobExists, pack_key(key)) == "1";
}

void BlobClient::publish(const std::string& key, const std::string& payload) {
  client_.request(kBlobPublish, pack_key_content(key, payload));
}

bool BlobClient::published(const std::string& key) {
  return client_.request(kBlobPublished, pack_key(key)) == "1";
}

std::string BlobClient::read_published(const std::string& key) {
  return client_.request(kBlobReadPublished, pack_key(key));
}

void BlobClient::remove(const std::string& key) {
  client_.request(kBlobRemove, pack_key(key));
}

}  // namespace critter::net
