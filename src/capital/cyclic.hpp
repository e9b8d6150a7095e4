// 3D processor grid and replicated-cyclic matrix distribution used by
// Capital's communication-avoiding Cholesky (paper §V-A).
//
// The grid is c x c x c with c = p^(1/3).  Every layer (fixed depth index)
// holds a full cyclic copy of each matrix: element (gi, gj) lives on the
// layer-grid position (gi mod c, gj mod c) of every layer.  Layer-local
// row/column communicators carry the slab broadcasts of the 3D products;
// the depth communicator carries the k-slice reduction and base-case
// replication.
//
// In ExecMode::Model no element storage is allocated — the schedule runs on
// byte counts alone.
#pragma once

#include <cstdint>
#include <optional>

#include "la/matrix.hpp"
#include "sim/api.hpp"

namespace critter::capital {

struct Grid3D {
  int c = 1;       ///< cube side: p = c^3
  int li = 0;      ///< my row coordinate within the layer grid
  int lj = 0;      ///< my column coordinate within the layer grid
  int layer = 0;   ///< my depth coordinate
  sim::Comm world{};
  sim::Comm layer_comm{};  ///< all ranks of my layer (c*c)
  sim::Comm row_comm{};    ///< fixed (layer, li), varying lj (size c)
  sim::Comm col_comm{};    ///< fixed (layer, lj), varying li (size c)
  sim::Comm depth_comm{};  ///< fixed (li, lj), varying layer (size c)

  /// Build the grid from the world communicator via intercepted splits.
  /// World rank r maps to (li, lj, layer) = (r % c, (r/c) % c, r / c^2).
  static Grid3D build(int c);
};

/// One rank's share of an n x n matrix in the replicated-cyclic layout.
class CyclicMatrix {
 public:
  CyclicMatrix() = default;
  /// `real` allocates local storage (ExecMode::Real); model mode passes
  /// false and all data pointers are null.
  CyclicMatrix(int n, const Grid3D& g, bool real);

  int n() const { return n_; }
  bool real() const { return static_cast<bool>(local_); }
  int local_dim() const { return nloc_; }

  /// Local storage (null in model mode): nloc x nloc column-major where
  /// local (a, b) is global (a*c + li, b*c + lj).
  double* data() { return local_ ? local_->data() : nullptr; }
  const double* data() const { return local_ ? local_->data() : nullptr; }

  double& at_local(int a, int b) { return (*local_)(a, b); }
  bool owns(int gi, int gj) const;

  /// Fill from a full replicated matrix (each rank copies its entries).
  void scatter_from_full(const la::Matrix& full);
  /// Gather the full matrix by combining all ranks of one layer
  /// (test/verification helper; collective over layer_comm).
  la::Matrix gather_full() const;

  /// Bytes of the local share of an r x s global sub-block (upper bound,
  /// identical on all ranks, used for uniform collective payloads).
  static std::int64_t share_bytes(int rows, int cols, int c);

  const Grid3D* grid() const { return grid_; }

 private:
  int n_ = 0;
  int nloc_ = 0;
  const Grid3D* grid_ = nullptr;
  std::optional<la::Matrix> local_;
};

}  // namespace critter::capital
