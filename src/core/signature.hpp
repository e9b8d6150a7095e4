// Kernel signatures.
//
// Following §V-D of the paper: computational kernels are parameterized on
// the routine and its input dimensions (plus transposition flags folded into
// dims); communication kernels on the routine, message size, and the
// (stride, size) decomposition of the sub-communicator relative to the world
// communicator.  Point-to-point kernels are treated as size-2
// sub-communicators whose stride is the world-rank distance.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace critter::core {

enum class KernelClass : std::uint8_t {
  // computation kernels
  Gemm, Syrk, Trsm, Trmm, Potrf, Trtri, Getrf, Geqrf, Ormqr,
  Geqrt, Tpqrt, Tpmqrt, User,
  // communication kernels
  Bcast, Reduce, Allreduce, Allgather, Gather, Scatter, Barrier,
  Send, Recv, Isend,
};

/// Number of kernel classes: every class casts to an index below it.
inline constexpr int kKernelClassCount = static_cast<int>(KernelClass::Isend) + 1;

constexpr bool is_comm_kernel(KernelClass c) {
  return c >= KernelClass::Bcast;
}

const char* kernel_class_name(KernelClass c);

struct KernelKey {
  KernelClass cls{};
  /// Input dimensions (m, n, k, flags) for compute kernels — transposition
  /// and side/uplo options are packed into the last slot; {bytes, 0, 0, 0}
  /// for communication kernels.
  std::array<std::int64_t, 4> dims{};
  /// Channel signature hash (stride/size decomposition) for communication
  /// kernels; zero for compute kernels.
  std::uint64_t chan = 0;

  KernelKey() : hash_(compute_hash()) {}
  KernelKey(KernelClass c, std::array<std::int64_t, 4> d, std::uint64_t ch)
      : cls(c), dims(d), chan(ch), hash_(compute_hash()) {}

  bool operator==(const KernelKey& o) const {
    return hash_ == o.hash_ && cls == o.cls && dims == o.dims && chan == o.chan;
  }

  /// Memoized at construction: the intercept path hashes every key several
  /// times per invocation (K lookup, ~K bump, hash registry), and the dims
  /// never change after construction.
  std::uint64_t hash() const { return hash_; }

  std::string to_string() const;

 private:
  std::uint64_t compute_hash() const {
    std::uint64_t h = util::mix64(static_cast<std::uint64_t>(cls) + 0x1234);
    for (auto d : dims) h = util::hash_combine(h, static_cast<std::uint64_t>(d));
    return util::hash_combine(h, chan);
  }

  std::uint64_t hash_;
};

struct KernelKeyHash {
  std::size_t operator()(const KernelKey& k) const { return k.hash(); }
};

}  // namespace critter::core
