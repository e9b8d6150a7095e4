#include "core/fsio.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace critter::core {

using util::checksum64;  // the publish-manifest checksum

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  CRITTER_CHECK(is.is_open(), "cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  CRITTER_CHECK(!is.bad(), "read failed for " + path);
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  CRITTER_CHECK(os.is_open(), "cannot open " + path + " for writing");
  os.write(content.data(), static_cast<std::streamsize>(content.size()));
  os.close();
  CRITTER_CHECK(!os.fail(), "write failed for " + path);
}

void append_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  CRITTER_CHECK(os.is_open(), "cannot open " + path + " for append");
  os.write(content.data(), static_cast<std::streamsize>(content.size()));
  os.close();
  CRITTER_CHECK(!os.fail(), "append failed for " + path);
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
    CRITTER_CHECK(false, "mkdir failed for " + path + ": " +
                             std::strerror(errno));
}

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> out;
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::string make_temp_dir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && *base != '\0' ? base
                                                                  : "/tmp") +
                     "/" + prefix + "XXXXXX";
  std::string buf = tmpl;
  CRITTER_CHECK(::mkdtemp(buf.data()) != nullptr,
                "mkdtemp failed for " + tmpl + ": " + std::strerror(errno));
  return buf;
}

void remove_dir_tree(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    struct stat st;
    if (::lstat(child.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode))
      remove_dir_tree(child);
    else
      ::unlink(child.c_str());
  }
  ::closedir(d);
  ::rmdir(path.c_str());
}

namespace {

void atomic_write(const std::string& dir, const std::string& name,
                  const std::string& content) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  write_file(tmp, content);
  CRITTER_CHECK(::rename(tmp.c_str(), final_path.c_str()) == 0,
                "rename failed for " + final_path + ": " +
                    std::strerror(errno));
}

std::string manifest_name(const std::string& name) { return name + ".ok"; }

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  write_file(tmp, content);
  CRITTER_CHECK(::rename(tmp.c_str(), path.c_str()) == 0,
                "rename failed for " + path + ": " + std::strerror(errno));
}

std::string publish_manifest(const std::string& payload) {
  std::ostringstream manifest;
  manifest << "bytes=" << payload.size() << "\nxxh64=" << std::hex
           << checksum64(payload.data(), payload.size()) << "\n";
  return manifest.str();
}

void check_publish_manifest(const std::string& manifest,
                            const std::string& payload,
                            const std::string& what) {
  std::size_t bytes = 0;
  unsigned long long sum = 0;
  const int parsed = std::sscanf(manifest.c_str(), "bytes=%zu\nxxh64=%llx",
                                 &bytes, &sum);
  CRITTER_CHECK(parsed == 2,
                "stale manifest " + what + ": unparsable content");
  CRITTER_CHECK(payload.size() == bytes,
                "stale manifest " + what + ": payload has " +
                    std::to_string(payload.size()) + " bytes, manifest "
                    "declares " + std::to_string(bytes));
  CRITTER_CHECK(checksum64(payload.data(), payload.size()) == sum,
                "stale manifest " + what +
                    ": payload checksum mismatch (torn or corrupt publish)");
}

void publish_file(const std::string& dir, const std::string& name,
                  const std::string& payload) {
  atomic_write(dir, name, payload);
  atomic_write(dir, manifest_name(name), publish_manifest(payload));
}

bool published(const std::string& dir, const std::string& name) {
  return file_exists(dir + "/" + manifest_name(name));
}

std::string read_published(const std::string& dir, const std::string& name) {
  const std::string ok_path = dir + "/" + manifest_name(name);
  CRITTER_CHECK(file_exists(ok_path),
                "missing publish manifest " + ok_path +
                    " — the artifact was never published");
  const std::string manifest = read_file(ok_path);
  const std::string payload_path = dir + "/" + name;
  CRITTER_CHECK(file_exists(payload_path),
                "stale manifest " + ok_path + ": payload " + payload_path +
                    " is missing");
  const std::string payload = read_file(payload_path);
  check_publish_manifest(manifest, payload, ok_path);
  return payload;
}

void unpublish(const std::string& dir, const std::string& name) {
  for (const std::string& path :
       {dir + "/" + manifest_name(name), dir + "/" + name})
    CRITTER_CHECK(::unlink(path.c_str()) == 0 || errno == ENOENT,
                  "unlink failed for " + path + ": " + std::strerror(errno));
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace critter::core
