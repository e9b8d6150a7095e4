// Deterministic discrete-event engine simulating an MPI job.
//
// Each rank is a fiber with a virtual clock.  A rank runs until it blocks
// (waits on a receive or collective that cannot complete yet), finishes, or
// reaches a split; the scheduler then resumes the runnable rank with the
// smallest (clock, rank) pair.  No virtual time depends on that dispatch
// order: matching is per-key FIFO, noise is keyed by logical identifiers,
// and folds run in local-rank order.  Only a split first waits until its
// rank is the earliest runnable one, because it numbers communicators in
// completion order (DESIGN.md §1–§2).
//
// Semantics notes (documented divergences from MPI are deliberate; see
// DESIGN.md for the full contract):
//  * sends are eager/buffered: a sender never blocks on its peer;
//  * wildcard source/tag matching is unsupported;
//  * a buffer handed to a nonblocking op must not be reused before wait(),
//    exactly like MPI;
//  * all buffers may be null ("model mode"): costs accrue, no data moves.
//
// A blocking collective may carry a Consensus: an agreement that runs ahead
// of the user operation, in the same engine operation, and decides whether
// it runs at all (the critter profiler's execute/skip decision, DESIGN.md
// §3).  A send may copy a payload shorter than the size it is charged.
//
// Hot-path data structures: the ready queue is a binary min-heap keyed on
// (clock, rank); one open-addressed hash map over a hashed P2PKey holds one
// record per message key, so a send or a receive looks its key up once;
// request and collective state live in slot/freelist tables indexed by id,
// and message payloads recycle through a buffer pool.
// One engine instance is confined to one OS thread, but independent engines
// may run concurrently on different threads (the tuner's worker pool does).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/machine.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace critter::sim {

class Engine;

/// Communicator handle (cheap value type; state lives in the engine).
struct Comm {
  int id = -1;
  bool operator==(const Comm&) const = default;
};

/// Nonblocking-operation handle.
struct Request {
  std::uint64_t id = 0;
};

/// Elementwise combine for reduce/allreduce: fold `in` into `inout`.
using ReduceFn = std::function<void(const void* in, void* inout, int bytes)>;

ReduceFn reduce_sum_double();
ReduceFn reduce_max_double();
ReduceFn reduce_sum_i64();
ReduceFn reduce_max_i64();

/// The agreement a blocking collective runs before its user operation, as
/// one engine operation (see f_coll).  Every member passes one, with the
/// same `bytes` and `fold`.
struct Consensus {
  /// This member's typed object.  It must not move until f_coll returns:
  /// the fold, run by whichever member arrives last, reads and writes every
  /// member's object while all of them are blocked in the operation.
  void* member = nullptr;
  /// Charged as an allreduce of this many bytes; nothing is copied.
  int bytes = 0;
  /// Runs once, when every member has arrived, over the members' objects in
  /// local-rank order; returns whether the user collective executes.
  bool (*fold)(void* const* members, int n) = nullptr;
  /// Set for every member when the fold has run: the virtual time of the
  /// agreement (its allreduce's completion) and the fold's verdict.
  double agreed = 0.0;
  bool execute = false;
};

/// Per-rank execution context.  `user_data` is owned by higher layers
/// (the critter profiler hangs its per-rank state here).
struct RankCtx {
  int rank = -1;
  double clock = 0.0;
  void* user_data = nullptr;
  Engine* engine = nullptr;
};

class Engine {
 public:
  Engine(int nranks, Machine machine, std::uint64_t seed_salt = 0);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run one SPMD program to completion: `body` is invoked once per rank on
  /// that rank's fiber.  Throws on deadlock or if any rank throws.
  void run(const std::function<void(RankCtx&)>& body);

  int nranks() const { return nranks_; }
  const Machine& machine() const { return machine_; }

  /// Virtual time at which the last rank finished (valid after run()).
  double max_time() const { return max_time_; }
  /// Final virtual clock of each rank (valid after run()).
  const std::vector<double>& final_clocks() const { return final_clocks_; }

  /// Number of point-to-point messages / collective operations executed.
  /// A consensus counts as a collective of its own, and its user collective
  /// counts only if it executed.
  std::int64_t p2p_count() const { return p2p_count_; }
  std::int64_t coll_count() const { return coll_count_; }

  // --- rank-side API (must be called from inside a rank fiber) ---

  /// Context of the currently running rank (of this thread's engine).
  static RankCtx& ctx();
  /// True if a fiber of some engine is currently running on this thread.
  static bool in_rank();

  Comm world() const { return Comm{0}; }
  int comm_size(Comm c) const;
  int comm_rank(Comm c) const;  // local rank of the *current* fiber
  /// World ranks of the communicator's group, indexed by local rank: the
  /// world communicator in rank order, a split's group ordered by (key,
  /// world rank), so not sorted in general.
  const std::vector<int>& comm_members(Comm c) const;

  void f_advance(double seconds);
  /// A send is charged for `bytes`, but copies only the first `payload`
  /// bytes of `buf` (all of them when negative) into the receiver's buffer,
  /// whose size must still be `bytes`.  Sends are buffered, so a blocking
  /// send is complete once posted, and f_isend's request is born complete.
  void f_send(const void* buf, int bytes, int dest, int tag, Comm c,
              int payload = -1);
  Request f_isend(const void* buf, int bytes, int dest, int tag, Comm c,
                  int payload = -1);
  void f_recv(void* buf, int bytes, int src, int tag, Comm c);
  Request f_irecv(void* buf, int bytes, int src, int tag, Comm c);
  void f_wait(Request r);

  /// A blocking collective.  With a `consensus`, the members first agree:
  /// once all have arrived, the agreement completes at the latest arrival
  /// plus an allreduce of `consensus->bytes` (this operation's sequence
  /// number s draws its noise), and the fold runs.  If it says execute, the
  /// user collective runs as if every member had arrived at the agreed time,
  /// with sequence number s+1's noise; otherwise every member leaves at the
  /// agreed time and the collective consumed one sequence number.
  void f_coll(CollType type, const void* sendbuf, void* recvbuf, int bytes,
              int root, const ReduceFn& fn, Comm c,
              Consensus* consensus = nullptr);
  Request f_icoll(CollType type, const void* sendbuf, void* recvbuf, int bytes,
                  int root, const ReduceFn& fn, Comm c);
  /// Split `parent` by color, each group ordered by (key, world rank).  The
  /// only operation that first waits for virtual-time order (sync_to_min):
  /// new communicators are numbered in completion order.
  Comm f_split(Comm parent, int color, int key);

 private:
  struct RankState;

  struct P2PKey {
    int comm, dst, src, tag;
    bool operator==(const P2PKey&) const = default;
  };
  struct P2PKeyHash {
    std::size_t operator()(const P2PKey& k) const {
      const std::uint64_t a =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.comm)) << 32) |
          static_cast<std::uint32_t>(k.tag);
      const std::uint64_t b =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.dst)) << 32) |
          static_cast<std::uint32_t>(k.src);
      return util::hash_combine(a, b);
    }
  };

  struct MsgInFlight {
    double avail;
    int bytes;
    std::vector<std::byte> data;
  };

  /// Everything the engine keeps for one (comm, dst, src, tag) key: the
  /// sequence number of its next message (it keys the message's noise),
  /// its sent-but-unreceived messages and its posted receives (request
  /// ids), both in FIFO order.  At most one of the two queues is non-empty.
  /// Records are never erased: a key's sequence numbers must keep counting.
  struct P2PRecord {
    std::uint64_t next_seq = 0;
    util::Fifo<MsgInFlight> sent;
    util::Fifo<std::uint64_t> posted;
  };

  struct ReqState {
    bool done = false;
    int owner = -1;
    int bytes = 0;
    int coll_slot = -1;  ///< owning collective op, -1 for p2p
    double done_time = 0.0;
    void* recv_buf = nullptr;
  };

  struct CollOp {
    CollType type{};
    int bytes = 0;
    int root = 0;
    int arrived = 0;
    int comm_id = -1;          ///< owning communicator (for slot release)
    std::uint64_t seq = 0;     ///< per-comm collective sequence number
    double max_arrival = 0.0;
    double cost = 0.0;         ///< noisy cost, fixed at op creation
    int consensus_bytes = -1;  ///< charged consensus size, -1 without one
    double consensus_cost = 0.0;
    bool root_arrived = false;
    double root_time = 0.0;
    ReduceFn fn;
    std::vector<std::vector<std::byte>> contrib;  // per local rank
    std::vector<void*> recv_bufs;                 // per local rank
    std::vector<std::uint64_t> req_ids;           // per local rank
    std::vector<bool> has_arrived;                // per local rank
    std::vector<double> arrival;                  // per local rank
    std::vector<Consensus*> consensus;            // per local rank
    std::vector<std::array<int, 2>> colorkey;     // split payload
    std::vector<std::byte> folded;                // cached reduction result
    bool folded_done = false;
    bool split_done = false;
    int outstanding_waits = 0;
  };

  struct CommData {
    std::vector<int> members;        // world ranks, ordered by local rank
    std::vector<int> local_of_world; // world rank -> local rank (-1 if absent)
    std::vector<std::uint64_t> seq;  // per local rank collective sequence no.
    /// In-flight collectives: (seq, coll slot).  At most a handful are live
    /// per communicator, so linear search beats any tree/hash here.
    std::vector<std::pair<std::uint64_t, int>> active;
  };

  /// Binary min-heap of runnable ranks ordered by (clock, rank).  A rank
  /// appears at most once, so the (clock, rank) keys are unique and pops
  /// reproduce exactly the std::map iteration order the engine had before.
  /// Stored as a structure of arrays — the time lane is what every sift
  /// comparison touches, so comparisons stay within one dense double array —
  /// and sifts are batched: the displaced entry is held in registers while
  /// the hole moves, one store per level instead of a three-store swap.
  class ReadyHeap {
   public:
    bool empty() const { return times_.empty(); }
    std::size_t size() const { return times_.size(); }
    void reserve(std::size_t n) {
      times_.reserve(n);
      ranks_.reserve(n);
    }
    double top_time() const { return times_[0]; }
    int top_rank() const { return ranks_[0]; }
    void push(double time, int rank);
    int pop();  ///< removes and returns the minimal entry's rank
    /// Total sift levels moved by push/pop — the heap-work observability
    /// counter (a plain per-level increment; flushed to the metrics
    /// registry once per run, never read by the simulation itself).
    std::int64_t sift_steps() const { return sift_steps_; }
   private:
    bool less(std::size_t i, double time, int rank) const {
      return times_[i] < time || (times_[i] == time && ranks_[i] < rank);
    }
    std::vector<double> times_;
    std::vector<int> ranks_;
    std::int64_t sift_steps_ = 0;
  };

  /// Slot/freelist table of nonblocking requests.  A request id encodes
  /// (slot + 1) in the high 32 bits and the slot's generation in the low 32,
  /// so stale or double waits are still detected in O(1).  Slots live in a
  /// deque: references stay valid while a blocked rank's peer allocates new
  /// requests (no defensive re-lookup after wakeup).
  class ReqTable {
   public:
    std::uint64_t alloc(ReqState** out);
    ReqState* find(std::uint64_t id);
    void release(std::uint64_t id);
   private:
    struct Slot {
      ReqState st;
      std::uint32_t gen = 1;
      bool active = false;
    };
    std::deque<Slot> slots_;
    std::vector<std::uint32_t> free_;
  };

  /// Slot/freelist table of collective operations.  Recycled slots keep
  /// their per-rank vector capacities, so steady-state collectives allocate
  /// nothing.
  class CollTable {
   public:
    int alloc();
    CollOp& operator[](int slot) { return slots_[slot]; }
    void release(int slot) { free_.push_back(slot); }
   private:
    std::deque<CollOp> slots_;
    std::vector<int> free_;
  };

  RankState& current();
  /// Yield until this rank is the earliest runnable one by (clock, rank).
  /// An operation whose result depends on what other ranks have done so far
  /// must call it first; today only a split's arrival does (DESIGN.md §2).
  void sync_to_min();
  void block_current(const char* why);
  void make_ready(int rank, double at_time);
  double noise_comm(std::uint64_t k1, std::uint64_t k2) const;
  /// Noisy cost of a collective on `comm_id` with sequence number `seq`.
  double coll_cost(CollType type, int bytes, int p, int comm_id,
                   std::uint64_t seq) const;
  Request post_coll(CollType type, const void* sendbuf, void* recvbuf,
                    int bytes, int root, const ReduceFn& fn, Comm c,
                    Consensus* consensus);
  /// Mark one participant's collective request done at `when`, deliver its
  /// data, and wake it if blocked.
  void finalize_coll_member(CollOp& op, const CommData& cd, int lr,
                            double when);
  /// Mark a collective request done at `when` and wake its owner if blocked.
  void finish_coll_request(ReqState& q, std::uint64_t id, int world_rank,
                           double when);
  void complete_coll_sync(int comm_id, CollOp& op);
  /// Complete what the arrival of local rank `lr` at time `t` completes.
  void complete_arrival(int comm_id, CollOp& op, int lr, double t);
  /// Run a consensus once every member has arrived: charge it, fold, and
  /// finish the members or run the user collective.
  void complete_consensus(int comm_id, CollOp& op,
                          bool (*fold)(void* const*, int));
  void deliver_coll_data(CollOp& op, const CommData& cd, int lr);
  void release_coll(int slot);
  int register_comm(std::vector<int> members);
  std::vector<std::byte> pool_acquire(int bytes);
  void pool_release(std::vector<std::byte>&& buf);
  [[noreturn]] void report_deadlock();

  int nranks_;
  Machine machine_;
  std::uint64_t seed_;
  /// Sized once at construction, never resized: fibers and the profiler
  /// hold stable pointers into these contiguous per-rank records.
  /// (std::vector of the incomplete RankState is fine — every member
  /// function is instantiated in engine.cc where the type is complete.)
  std::vector<RankState> ranks_;
  std::vector<CommData> comms_;
  ReadyHeap ready_;
  int running_ = -1;
  util::FlatMap<P2PKey, P2PRecord, P2PKeyHash> p2p_;
  ReqTable reqs_;
  CollTable colls_;
  std::vector<std::vector<std::byte>> pool_;  // recycled message payloads
  std::vector<void*> fold_args_;  // consensus members, reused across folds
  double max_time_ = 0.0;
  std::vector<double> final_clocks_;
  std::int64_t p2p_count_ = 0;
  std::int64_t coll_count_ = 0;
  std::int64_t fiber_switches_ = 0;  ///< scheduler dispatches (run() only)
  std::exception_ptr first_error_;
};

}  // namespace critter::sim
