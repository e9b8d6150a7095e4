// Machine cost model: alpha-beta-gamma (latency / inverse bandwidth / time
// per flop) with tree-based collective formulas and lognormal noise knobs.
//
// This stands in for the paper's Stampede2 testbed (KNL nodes, Omni-Path
// fat-tree).  Absolute constants are tunable; the autotuning experiments
// depend on cost *trade-offs* (latency vs bandwidth vs compute terms), which
// the model preserves.
#pragma once

#include <cstdint>

namespace critter::sim {

enum class CollType : std::uint8_t {
  Bcast,
  Reduce,
  Allreduce,
  Allgather,
  Gather,
  Scatter,
  Barrier,
  Split,
};

const char* coll_name(CollType t);

struct Machine {
  double alpha = 2.0e-6;   ///< per-message latency (s)
  double beta = 8.0e-10;   ///< per-byte transfer time (s)
  double gamma = 2.0e-11;  ///< per-flop compute time (s)

  /// Lognormal sigma for communication / computation timing noise.  The
  /// paper reports high variability on Stampede2; these default to a
  /// moderate 8%.
  double comm_noise = 0.08;
  double comp_noise = 0.08;

  std::uint64_t seed = 0x517cc1b727220a95ULL;

  /// Preset loosely calibrated to one KNL core driving Omni-Path.
  static Machine knl_like();
  /// Noise-free variant for exactness tests.
  static Machine noiseless();

  /// Expected collective cost for `p` participants moving `bytes` per rank.
  double coll_cost(CollType type, std::int64_t bytes, int p) const;

  /// Bytes moved along one rank's execution path for BSP communication-cost
  /// accounting (the "h-relation" size matching coll_cost's beta term).
  static double coll_bytes_moved(CollType type, std::int64_t bytes, int p);
};

}  // namespace critter::sim
