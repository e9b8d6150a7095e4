#include "capital/cyclic.hpp"

#include "core/mpi.hpp"
#include "util/check.hpp"

namespace critter::capital {

Grid3D Grid3D::build(int c) {
  Grid3D g;
  g.c = c;
  g.world = sim::world();
  const int r = sim::world_rank();
  CRITTER_CHECK(sim::world_size() == c * c * c,
                "3D grid requires exactly c^3 ranks");
  g.li = r % c;
  g.lj = (r / c) % c;
  g.layer = r / (c * c);
  g.layer_comm = mpi::comm_split(g.world, g.layer, g.li + c * g.lj);
  g.row_comm = mpi::comm_split(g.world, g.layer * c + g.li, g.lj);
  g.col_comm = mpi::comm_split(g.world, g.layer * c + g.lj, g.li);
  g.depth_comm = mpi::comm_split(g.world, g.li + c * g.lj, g.layer);
  return g;
}

CyclicMatrix::CyclicMatrix(int n, const Grid3D& g, bool real)
    : n_(n), grid_(&g) {
  CRITTER_CHECK(n % g.c == 0, "matrix dimension must be divisible by c");
  nloc_ = n / g.c;
  if (real) local_.emplace(nloc_, nloc_);
}

bool CyclicMatrix::owns(int gi, int gj) const {
  return gi % grid_->c == grid_->li && gj % grid_->c == grid_->lj;
}

void CyclicMatrix::scatter_from_full(const la::Matrix& full) {
  CRITTER_CHECK(local_.has_value(), "scatter_from_full needs real storage");
  const int c = grid_->c;
  for (int b = 0; b < nloc_; ++b)
    for (int a = 0; a < nloc_; ++a)
      (*local_)(a, b) = full(a * c + grid_->li, b * c + grid_->lj);
}

la::Matrix CyclicMatrix::gather_full() const {
  CRITTER_CHECK(local_.has_value(), "gather_full needs real storage");
  const int c = grid_->c;
  // allgather local blocks across the layer; reassemble in cyclic order
  const int bytes = nloc_ * nloc_ * 8;
  std::vector<double> all(static_cast<std::size_t>(nloc_) * nloc_ * c * c);
  mpi::allgather(local_->data(), bytes, all.data(), grid_->layer_comm);
  la::Matrix full(n_, n_);
  // layer_comm local rank of (li, lj) is li + c*lj (split key above)
  for (int lj = 0; lj < c; ++lj)
    for (int li = 0; li < c; ++li) {
      const double* blk =
          all.data() + static_cast<std::size_t>(li + c * lj) * nloc_ * nloc_;
      for (int b = 0; b < nloc_; ++b)
        for (int a = 0; a < nloc_; ++a)
          full(a * c + li, b * c + lj) = blk[static_cast<std::size_t>(b) * nloc_ + a];
    }
  return full;
}

std::int64_t CyclicMatrix::share_bytes(int rows, int cols, int c) {
  const std::int64_t r = (rows + c - 1) / c;
  const std::int64_t s = (cols + c - 1) / c;
  return r * s * 8;
}

}  // namespace critter::capital
