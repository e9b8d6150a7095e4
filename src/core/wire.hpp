// What an intercepted communication kernel propagates: path metrics, the
// execute flag, the ~K path-count table and (eager policy) kernel statistics
// being aggregated along the channel (DESIGN.md §3–§4).
//
// Point-to-point kernels piggyback an IntMsg from sender to receiver.  Its
// wire size, fixed by the configured capacities, is what the simulator
// charges (beta * wire_bytes per message: the profiling overhead the paper
// reports as "minimal", charged honestly); only the header and the ~K
// entries in use are copied.
//
// Blocking collectives agree through a typed fold instead.  Each member
// hands the engine a Vote, and `agree` replays, struct by struct, the left
// fold that an allreduce of packed IntMsg images computed: the elementwise
// max of the path metrics, the OR of the execute flags, the ~K of the
// longest path and the Chan merge of eager statistics.  Nothing is packed;
// the engine still charges an allreduce of wire_bytes(tilde_cap, eager_cap).
//
// ~K travels only in runs that keep it (keeps_tilde, RankProfiler::
// keep_tilde).  In every other run a piggyback carries the header alone and
// neither path adopts a ~K, while the charged sizes stay as they are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/profiler.hpp"

namespace critter::core {

struct WireHeader {
  double metrics[PathMetrics::kFields];
  std::int64_t execute;   // the sender's execute flag
  std::int64_t n_tilde;   // valid ~K entries
  std::int64_t n_eager;   // always 0: only collectives aggregate eager
                          // statistics, but the field stays in the charged size
};

struct WireTilde {
  std::uint64_t key;
  std::int64_t freq;
};

struct WireEager {
  std::uint64_t key;
  std::uint64_t agg;  // coverage hash *before* this aggregation step
  std::int64_t n;
  double mean;
  double m2;
};

/// One point-to-point piggyback: a buffer the size of the whole charged
/// image, of which only payload() bytes travel.
class IntMsg {
 public:
  IntMsg(int tilde_cap, int eager_cap);

  /// The size charged for any internal message under these capacities.
  static int wire_bytes(int tilde_cap, int eager_cap);

  std::byte* data() { return buf_.data(); }
  const std::byte* data() const { return buf_.data(); }
  /// The charged size, wire_bytes(tilde_cap, eager_cap).
  int bytes() const { return static_cast<int>(buf_.size()); }
  /// The bytes in use: the header and its n_tilde entries.
  int payload() const;

  WireHeader& header();
  const WireHeader& header() const;
  WireTilde* tilde();
  const WireTilde* tilde() const;

  int tilde_cap() const { return tilde_cap_; }
  int eager_cap() const { return eager_cap_; }

  /// Fill from the current rank state: path metrics, execute flag, ~K
  /// entries (largest-frequency first when over capacity; none when the
  /// run keeps no ~K).
  void pack(const RankProfiler& rp, bool want_execute);

  /// Merge a received message into the rank state: adopt metrics
  /// (elementwise max with own) and, if the run keeps ~K, the ~K of the
  /// longer path.
  void unpack_into(RankProfiler& rp) const;

 private:
  int tilde_cap_;
  int eager_cap_;
  std::vector<std::byte> buf_;
};

/// One member's side of a blocking collective's agreement.  A rank fills
/// one on its own fiber stack and hands it to the engine (sim::Consensus);
/// it is read and its profiler written only by `agree`, while every member
/// is blocked in the operation.
struct Vote {
  RankProfiler* rp = nullptr;
  const Config* cfg = nullptr;
  std::uint64_t chan = 0;  ///< the communicator's channel hash
  bool want = false;       ///< this rank's local execute decision
};

/// The left fold of the members' votes, in local-rank order.
struct Agreement {
  PathMetrics metrics;  ///< elementwise max
  bool execute = false;  ///< OR of the want flags
  /// The first member whose exec_time is the maximum: its ~K, as a
  /// piggyback would carry it (IntMsg::pack), is what the others adopt.
  const RankProfiler* tilde_src = nullptr;
  int tilde_cap = 0;
  int eager_cap = 0;
  /// Eager entries, Chan-merged per (key, agg), at most eager_cap of them.
  std::vector<WireEager> eager;

  /// Begin the fold with member 0's vote.
  void start(const Vote& first);
  /// Fold in the next member's vote.
  void fold(const Vote& in);
  /// Fold one eager entry: Chan-merge it into an entry of the same key and
  /// aggregation base, replace a less-sampled one of another base, or
  /// append it while there is room.
  void merge_eager(const WireEager& e);
  /// Write the agreement into a member's profiler: adopt the metric maxima,
  /// the longest path's ~K if it is longer than the member's own and the
  /// run keeps ~K (by copy when it fits in tilde_cap), and the eager
  /// statistics.
  void apply(const Vote& member) const;
};

/// The fold of sim::Consensus over Vote objects: folds every vote, applies
/// the agreement to every member and returns whether to execute.
bool agree(void* const* votes, int n);

}  // namespace critter::core
