// The little string-backed binary writer/reader every byte-exact wire
// format in the tree shares: the statistics snapshot, the dist layer's
// shard-result and checkpoint payloads, and the net layer's frame payloads
// (which must serialize outcomes identically to the file formats — a told
// batch journaled by the daemon replays bit-equal to one a run directory
// would carry).
//
// Fixed-width little-endian-as-memcpy fields; strings are [i32 length] +
// bytes with a plausibility bound so a corrupt length cannot allocate the
// universe.  Readers throw std::runtime_error on truncation instead of
// returning partial state.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace critter::core {

struct WireWriter {
  std::string out;
  void raw(const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void str(const std::string& s) {
    i32(static_cast<std::int32_t>(s.size()));
    raw(s.data(), s.size());
  }
};

/// Decodes a borrowed byte span — an in-memory payload or an mmap'ed file —
/// which must outlive the reader.  `what` prefixes every error, so each
/// format keeps its own wording.
struct WireReader {
  std::string_view in;
  const char* what = "wire";
  std::size_t pos = 0;
  std::size_t remaining() const { return in.size() - pos; }
  /// The next `n` bytes, borrowed.  `n` is checked against the bytes
  /// remaining before anything is read, so a forged length fails as
  /// truncation without sizing a buffer: every length-prefixed field
  /// decodes through here.
  std::string_view bytes(std::size_t n) {
    if (n > remaining()) fail(": truncated payload");
    const std::string_view v(in.data() + pos, n);
    pos += n;
    return v;
  }
  void raw(void* p, std::size_t n) { std::memcpy(p, bytes(n).data(), n); }
  std::uint8_t u8() { std::uint8_t v; raw(&v, 1); return v; }
  std::int32_t i32() { std::int32_t v; raw(&v, 4); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, 4); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, 8); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, 8); return v; }
  double f64() { double v; raw(&v, 8); return v; }
  std::string str() {
    const std::int32_t n = i32();
    if (n < 0 || n > (1 << 20)) fail(": implausible string");
    return std::string(bytes(static_cast<std::size_t>(n)));
  }
  bool done() const { return pos == in.size(); }
  /// Throws "<what><msg>".  Out of line, so the bounds checks stay small
  /// enough to inline into every read.
  [[noreturn, gnu::noinline]] void fail(const char* msg) const {
    throw std::runtime_error(std::string(what) + msg);
  }
};

}  // namespace critter::core
