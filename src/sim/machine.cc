#include "sim/machine.hpp"

#include <cmath>

namespace critter::sim {

namespace {
double log2p(int p) { return p <= 1 ? 1.0 : std::log2(static_cast<double>(p)); }
}  // namespace

const char* coll_name(CollType t) {
  switch (t) {
    case CollType::Bcast: return "bcast";
    case CollType::Reduce: return "reduce";
    case CollType::Allreduce: return "allreduce";
    case CollType::Allgather: return "allgather";
    case CollType::Gather: return "gather";
    case CollType::Scatter: return "scatter";
    case CollType::Barrier: return "barrier";
    case CollType::Split: return "comm_split";
  }
  return "?";
}

Machine Machine::knl_like() { return Machine{}; }

Machine Machine::noiseless() {
  Machine m;
  m.comm_noise = 0.0;
  m.comp_noise = 0.0;
  return m;
}

double Machine::coll_cost(CollType type, std::int64_t bytes, int p) const {
  const double b = static_cast<double>(bytes);
  const double lg = log2p(p);
  switch (type) {
    case CollType::Bcast:
    case CollType::Reduce:
      // pipelined tree: latency scales with depth, bandwidth with payload
      return lg * alpha + beta * b;
    case CollType::Allreduce:
      return 2.0 * lg * alpha + 2.0 * beta * b;
    case CollType::Allgather:
    case CollType::Gather:
    case CollType::Scatter:
      // `bytes` is the per-rank contribution; total moved ~ p*bytes
      return lg * alpha + beta * b * static_cast<double>(p - 1);
    case CollType::Barrier:
      return 2.0 * lg * alpha;
    case CollType::Split:
      return lg * alpha + beta * 16.0 * static_cast<double>(p - 1);
  }
  return 0.0;
}

double Machine::coll_bytes_moved(CollType type, std::int64_t bytes, int p) {
  const double b = static_cast<double>(bytes);
  switch (type) {
    case CollType::Bcast:
    case CollType::Reduce:
      return b;
    case CollType::Allreduce:
      return 2.0 * b;
    case CollType::Allgather:
    case CollType::Gather:
    case CollType::Scatter:
      return b * static_cast<double>(p - 1);
    case CollType::Barrier:
      return 0.0;
    case CollType::Split:
      return 16.0 * static_cast<double>(p - 1);
  }
  return 0.0;
}

}  // namespace critter::sim
