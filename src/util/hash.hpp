// checksum64: XXH64 with seed 0 over a byte range — the one checksum every
// framed format uses (stat-snapshot rank chunks, net frames,
// checkpoint trailers, increment-log records, publish manifests).  It
// consumes four 8-byte lanes per step, so it runs at memory speed where a
// byte-serial hash would not.  Not cryptographic: it guards against
// truncation, torn writes, and bit rot, not adversaries.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace critter::util {

namespace xxh64_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

/// Little-endian loads through memcpy: any alignment, the same digest on
/// every host.
inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

inline std::uint64_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap32(v);
  return v;
}

inline std::uint64_t round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

inline std::uint64_t merge_round(std::uint64_t h, std::uint64_t acc) {
  return (h ^ round(0, acc)) * kP1 + kP4;
}

}  // namespace xxh64_detail

inline std::uint64_t checksum64(const void* data, std::size_t n) {
  using namespace xxh64_detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace critter::util
