#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace critter::sim {

namespace {
// One engine is confined to one OS thread; the thread's currently running
// engine lives in a thread-local slot so rank-side free functions can find
// their context.  Independent engines on different threads never interact.
thread_local Engine* g_engine = nullptr;
}  // namespace

ReduceFn reduce_sum_double() {
  return [](const void* in, void* inout, int bytes) {
    const auto* a = static_cast<const double*>(in);
    auto* b = static_cast<double*>(inout);
    for (int i = 0; i < bytes / 8; ++i) b[i] += a[i];
  };
}
ReduceFn reduce_max_double() {
  return [](const void* in, void* inout, int bytes) {
    const auto* a = static_cast<const double*>(in);
    auto* b = static_cast<double*>(inout);
    for (int i = 0; i < bytes / 8; ++i) b[i] = std::max(b[i], a[i]);
  };
}
ReduceFn reduce_sum_i64() {
  return [](const void* in, void* inout, int bytes) {
    const auto* a = static_cast<const std::int64_t*>(in);
    auto* b = static_cast<std::int64_t*>(inout);
    for (int i = 0; i < bytes / 8; ++i) b[i] += a[i];
  };
}
ReduceFn reduce_max_i64() {
  return [](const void* in, void* inout, int bytes) {
    const auto* a = static_cast<const std::int64_t*>(in);
    auto* b = static_cast<std::int64_t*>(inout);
    for (int i = 0; i < bytes / 8; ++i) b[i] = std::max(b[i], a[i]);
  };
}

struct Engine::RankState {
  RankCtx ctx;
  std::unique_ptr<Fiber> fiber;
  enum class St { Ready, Running, Blocked, Done } st = St::Ready;
  const char* block_reason = nullptr;
  std::uint64_t blocked_req = 0;
  int split_result = -1;
};

// --- ReadyHeap -------------------------------------------------------------

void Engine::ReadyHeap::push(double time, int rank) {
  // Batched sift-up: hold the new entry in registers, shift losing parents
  // down, store once at the final hole.
  times_.push_back(0.0);
  ranks_.push_back(0);
  std::size_t i = times_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(parent, time, rank)) {
      times_[i] = times_[parent];
      ranks_[i] = ranks_[parent];
      i = parent;
      ++sift_steps_;
    } else {
      break;
    }
  }
  times_[i] = time;
  ranks_[i] = rank;
}

int Engine::ReadyHeap::pop() {
  const int rank = ranks_[0];
  const double time = times_.back();
  const int last = ranks_.back();
  times_.pop_back();
  ranks_.pop_back();
  const std::size_t n = times_.size();
  if (n == 0) return rank;
  // Batched sift-down of the displaced last entry: the hole descends toward
  // the smaller child, one store per level, until the entry fits.
  std::size_t i = 0;
  for (;;) {
    const std::size_t l = 2 * i + 1, r = l + 1;
    if (l >= n) break;
    std::size_t c = l;
    if (r < n && less(r, times_[l], ranks_[l])) c = r;
    if (!less(c, time, last)) break;
    times_[i] = times_[c];
    ranks_[i] = ranks_[c];
    i = c;
    ++sift_steps_;
  }
  times_[i] = time;
  ranks_[i] = last;
  return rank;
}

// --- ReqTable --------------------------------------------------------------

std::uint64_t Engine::ReqTable::alloc(ReqState** out) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.active = true;
  s.st = ReqState{};
  *out = &s.st;
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | s.gen;
}

Engine::ReqState* Engine::ReqTable::find(std::uint64_t id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return nullptr;
  Slot& s = slots_[hi - 1];
  if (!s.active || s.gen != static_cast<std::uint32_t>(id)) return nullptr;
  return &s.st;
}

void Engine::ReqTable::release(std::uint64_t id) {
  const std::uint32_t slot = static_cast<std::uint32_t>((id >> 32) - 1);
  Slot& s = slots_[slot];
  s.active = false;
  ++s.gen;  // stale ids now fail find()
  free_.push_back(slot);
}

// --- CollTable -------------------------------------------------------------

int Engine::CollTable::alloc() {
  if (!free_.empty()) {
    const int slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size()) - 1;
}

// --- message-buffer pool ----------------------------------------------------

std::vector<std::byte> Engine::pool_acquire(int bytes) {
  std::vector<std::byte> v;
  if (!pool_.empty()) {
    v = std::move(pool_.back());
    pool_.pop_back();
  }
  v.resize(bytes);  // contents are always fully overwritten by the caller
  return v;
}

void Engine::pool_release(std::vector<std::byte>&& buf) {
  if (buf.capacity() > 0 && pool_.size() < 4096) pool_.push_back(std::move(buf));
}

// --- engine ----------------------------------------------------------------

Engine::Engine(int nranks, Machine machine, std::uint64_t seed_salt)
    : nranks_(nranks), machine_(machine),
      seed_(util::hash_combine(machine.seed, seed_salt)) {
  CRITTER_CHECK(nranks >= 1, "engine needs at least one rank");
  ranks_.resize(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    ranks_[r].ctx.rank = r;
    ranks_[r].ctx.engine = this;
  }
  ready_.reserve(nranks_);
  std::vector<int> all(nranks_);
  for (int r = 0; r < nranks_; ++r) all[r] = r;
  register_comm(std::move(all));  // id 0 == world
}

Engine::~Engine() = default;

int Engine::register_comm(std::vector<int> members) {
  CommData cd;
  cd.members = std::move(members);
  cd.local_of_world.assign(nranks_, -1);
  for (std::size_t i = 0; i < cd.members.size(); ++i)
    cd.local_of_world[cd.members[i]] = static_cast<int>(i);
  cd.seq.assign(cd.members.size(), 0);
  comms_.push_back(std::move(cd));
  return static_cast<int>(comms_.size()) - 1;
}

RankCtx& Engine::ctx() {
  CRITTER_CHECK(g_engine != nullptr && g_engine->running_ >= 0,
                "sim API called outside a rank fiber");
  return g_engine->ranks_[g_engine->running_].ctx;
}

bool Engine::in_rank() { return g_engine != nullptr && g_engine->running_ >= 0; }

Engine::RankState& Engine::current() {
  CRITTER_CHECK(running_ >= 0, "no rank is running");
  return ranks_[running_];
}

int Engine::comm_size(Comm c) const {
  return static_cast<int>(comms_.at(c.id).members.size());
}

int Engine::comm_rank(Comm c) const {
  const int wr = ranks_[running_].ctx.rank;
  const int lr = comms_.at(c.id).local_of_world[wr];
  CRITTER_CHECK(lr >= 0, "rank not a member of this communicator");
  return lr;
}

const std::vector<int>& Engine::comm_members(Comm c) const {
  return comms_.at(c.id).members;
}

double Engine::noise_comm(std::uint64_t k1, std::uint64_t k2) const {
  return util::lognormal_factor(machine_.comm_noise,
                                util::hash_combine(seed_, k1), k2);
}

void Engine::sync_to_min() {
  RankState& rs = current();
  if (ready_.empty()) return;
  if (rs.ctx.clock < ready_.top_time() ||
      (rs.ctx.clock == ready_.top_time() && rs.ctx.rank <= ready_.top_rank()))
    return;
  // Another runnable rank is earlier in virtual time; let it act first, so
  // that what this rank's next operation reads of the others is what they
  // had done by its clock (DESIGN.md §2).
  ready_.push(rs.ctx.clock, rs.ctx.rank);
  rs.st = RankState::St::Ready;
  const int self = running_;
  rs.fiber->yield();
  CRITTER_CHECK(running_ == self, "scheduler resumed wrong fiber");
}

void Engine::block_current(const char* why) {
  RankState& rs = current();
  rs.st = RankState::St::Blocked;
  rs.block_reason = why;
  rs.fiber->yield();
  CRITTER_CHECK(rs.st == RankState::St::Running, "resumed while not running");
}

void Engine::make_ready(int rank, double at_time) {
  RankState& rs = ranks_[rank];
  CRITTER_CHECK(rs.st == RankState::St::Blocked, "waking a non-blocked rank");
  rs.ctx.clock = std::max(rs.ctx.clock, at_time);
  rs.st = RankState::St::Ready;
  rs.blocked_req = 0;
  rs.block_reason = nullptr;
  ready_.push(rs.ctx.clock, rs.ctx.rank);
}

void Engine::f_advance(double seconds) {
  CRITTER_CHECK(seconds >= 0.0, "cannot advance time backwards");
  current().ctx.clock += seconds;
}

void Engine::f_send(const void* buf, int bytes, int dest, int tag, Comm c,
                    int payload) {
  RankState& rs = current();
  const CommData& cd = comms_.at(c.id);
  CRITTER_CHECK(dest >= 0 && dest < static_cast<int>(cd.members.size()),
                "send destination out of range");
  const int src_local = cd.local_of_world[rs.ctx.rank];
  CRITTER_CHECK(src_local >= 0, "sender not in communicator");

  rs.ctx.clock += machine_.alpha;  // injection overhead
  P2PRecord& rec = p2p_[P2PKey{c.id, dest, src_local, tag}];
  const std::uint64_t sq = rec.next_seq++;
  const double noise = noise_comm(
      util::hash_combine(static_cast<std::uint64_t>(c.id) * 1315423911ULL + tag,
                         (static_cast<std::uint64_t>(src_local) << 20) | dest),
      sq);
  const double avail =
      rs.ctx.clock + machine_.beta * static_cast<double>(bytes) * noise;
  ++p2p_count_;

  // Only the payload is copied: straight into a posted receive, or else
  // into a pooled buffer that waits in the key's queue.  Model-mode fast
  // path: a null buffer ships no payload, so nothing is copied and no
  // allocation happens on either side.
  const int copied = payload < 0 ? bytes : payload;
  CRITTER_CHECK(copied <= bytes, "send payload exceeds its charged size");
  if (!rec.posted.empty()) {
    const std::uint64_t rid = rec.posted.front();
    rec.posted.pop_front();
    ReqState* q = reqs_.find(rid);
    CRITTER_CHECK(q != nullptr, "posted recv request vanished");
    CRITTER_CHECK(q->bytes == bytes, "p2p message size mismatch");
    if (q->recv_buf != nullptr && buf != nullptr && copied > 0)
      std::memcpy(q->recv_buf, buf, copied);
    q->done = true;
    q->done_time = avail;
    RankState& owner = ranks_[q->owner];
    if (owner.st == RankState::St::Blocked && owner.blocked_req == rid)
      make_ready(owner.ctx.rank, avail);
  } else {
    std::vector<std::byte> data;
    if (buf != nullptr && copied > 0) {
      data = pool_acquire(copied);
      std::memcpy(data.data(), buf, copied);
    }
    rec.sent.push_back(MsgInFlight{avail, bytes, std::move(data)});
  }
}

Request Engine::f_isend(const void* buf, int bytes, int dest, int tag, Comm c,
                        int payload) {
  f_send(buf, bytes, dest, tag, c, payload);
  // Eager/buffered: the send buffer is copied, so the request is
  // immediately complete at the sender's current clock.
  const RankCtx& me = current().ctx;
  ReqState* q = nullptr;
  Request r{reqs_.alloc(&q)};
  q->done = true;
  q->done_time = me.clock;
  q->owner = me.rank;
  return r;
}

Request Engine::f_irecv(void* buf, int bytes, int src, int tag, Comm c) {
  RankState& rs = current();
  const CommData& cd = comms_.at(c.id);
  const int me = cd.local_of_world[rs.ctx.rank];
  CRITTER_CHECK(me >= 0, "receiver not in communicator");
  CRITTER_CHECK(src >= 0 && src < static_cast<int>(cd.members.size()),
                "recv source out of range (wildcards unsupported)");

  ReqState* q = nullptr;
  Request r{reqs_.alloc(&q)};
  q->owner = rs.ctx.rank;
  q->recv_buf = buf;
  q->bytes = bytes;

  P2PRecord& rec = p2p_[P2PKey{c.id, me, src, tag}];
  if (!rec.sent.empty()) {
    MsgInFlight& msg = rec.sent.front();
    CRITTER_CHECK(msg.bytes == bytes, "p2p message size mismatch");
    if (buf != nullptr && !msg.data.empty())
      std::memcpy(buf, msg.data.data(), msg.data.size());
    q->done = true;
    q->done_time = msg.avail;
    pool_release(std::move(msg.data));
    rec.sent.pop_front();
  } else {
    rec.posted.push_back(r.id);
  }
  return r;
}

void Engine::f_recv(void* buf, int bytes, int src, int tag, Comm c) {
  f_wait(f_irecv(buf, bytes, src, tag, c));
}

void Engine::f_wait(Request r) {
  RankState& rs = current();
  ReqState* q = reqs_.find(r.id);
  CRITTER_CHECK(q != nullptr, "wait on unknown or already-waited request");
  CRITTER_CHECK(q->owner == rs.ctx.rank, "wait on another rank's request");
  if (!q->done) {
    rs.blocked_req = r.id;
    block_current("wait");  // q stays valid: slots live in a stable deque
  } else {
    rs.ctx.clock = std::max(rs.ctx.clock, q->done_time);
  }
  const int coll_slot = q->coll_slot;
  reqs_.release(r.id);
  if (coll_slot >= 0 && --colls_[coll_slot].outstanding_waits == 0)
    release_coll(coll_slot);
}

void Engine::release_coll(int slot) {
  CollOp& op = colls_[slot];
  auto& active = comms_.at(op.comm_id).active;
  for (auto it = active.begin(); it != active.end(); ++it) {
    if (it->second == slot) {
      *it = active.back();
      active.pop_back();
      break;
    }
  }
  colls_.release(slot);
}

double Engine::coll_cost(CollType type, int bytes, int p, int comm_id,
                         std::uint64_t seq) const {
  return machine_.coll_cost(type, bytes, p) *
         noise_comm(util::hash_combine(0xC011EC71FULL,
                                       static_cast<std::uint64_t>(comm_id)),
                    seq);
}

Request Engine::f_icoll(CollType type, const void* sendbuf, void* recvbuf,
                        int bytes, int root, const ReduceFn& fn, Comm c) {
  return post_coll(type, sendbuf, recvbuf, bytes, root, fn, c, nullptr);
}

Request Engine::post_coll(CollType type, const void* sendbuf, void* recvbuf,
                          int bytes, int root, const ReduceFn& fn, Comm c,
                          Consensus* consensus) {
  RankState& rs = current();
  CommData& cd = comms_.at(c.id);
  const int p = static_cast<int>(cd.members.size());
  const int lr = cd.local_of_world[rs.ctx.rank];
  CRITTER_CHECK(lr >= 0, "caller not in communicator");
  const std::uint64_t seq = cd.seq[lr]++;
  const int consensus_bytes = consensus != nullptr ? consensus->bytes : -1;

  int slot = -1;
  for (const auto& [sq, sl] : cd.active) {
    if (sq == seq) {
      slot = sl;
      break;
    }
  }
  const bool inserted = slot < 0;
  if (inserted) {
    slot = colls_.alloc();
    cd.active.emplace_back(seq, slot);
  }
  CollOp& op = colls_[slot];
  if (inserted) {
    op.type = type;
    op.bytes = bytes;
    op.root = root;
    op.arrived = 0;
    op.comm_id = c.id;
    op.seq = seq;
    op.max_arrival = 0.0;
    op.root_arrived = false;
    op.root_time = 0.0;
    op.fn = fn;
    op.contrib.resize(p);
    for (auto& v : op.contrib) v.clear();  // recycled slots keep capacity
    op.recv_bufs.assign(p, nullptr);
    op.req_ids.assign(p, 0);
    op.has_arrived.assign(p, false);
    op.arrival.assign(p, 0.0);
    op.consensus.assign(consensus != nullptr ? p : 0, nullptr);
    op.colorkey.clear();
    if (type == CollType::Split) op.colorkey.resize(p);
    op.folded.clear();
    op.folded_done = false;
    op.split_done = false;
    op.outstanding_waits = p;
    // A consensus is the operation's allreduce at sequence number `seq`;
    // the user collective's cost is drawn only if it executes.
    op.consensus_bytes = consensus_bytes;
    if (consensus != nullptr)
      op.consensus_cost =
          coll_cost(CollType::Allreduce, consensus_bytes, p, c.id, seq);
    else
      op.cost = coll_cost(type, bytes, p, c.id, seq);
    ++coll_count_;
  } else if (op.type != type || op.bytes != bytes || op.root != root ||
             op.consensus_bytes != consensus_bytes) {
    // Diagnostic built only on actual mismatch: the happy path must not pay
    // for an ostringstream per collective arrival.
    std::ostringstream os;
    os << "collective mismatch on comm " << c.id << " seq " << seq << ": "
       << coll_name(op.type) << "/" << op.bytes << "/root " << op.root
       << "/consensus " << op.consensus_bytes << " vs " << coll_name(type)
       << "/" << bytes << "/root " << root << "/consensus " << consensus_bytes;
    CRITTER_CHECK(false, os.str());
  }

  // Stage this rank's contribution.
  const bool is_root = (lr == root);
  int contrib_bytes = 0;
  switch (type) {
    case CollType::Bcast: contrib_bytes = is_root ? bytes : 0; break;
    case CollType::Reduce:
    case CollType::Allreduce:
    case CollType::Allgather:
    case CollType::Gather: contrib_bytes = bytes; break;
    case CollType::Scatter: contrib_bytes = is_root ? bytes * p : 0; break;
    case CollType::Barrier: contrib_bytes = 0; break;
    case CollType::Split: {
      const int* ck = static_cast<const int*>(sendbuf);
      op.colorkey[lr] = {ck[0], ck[1]};
      contrib_bytes = 0;
      break;
    }
  }
  if (contrib_bytes > 0 && sendbuf != nullptr) {
    op.contrib[lr].resize(contrib_bytes);
    std::memcpy(op.contrib[lr].data(), sendbuf, contrib_bytes);
  }
  op.recv_bufs[lr] = recvbuf;

  ReqState* q = nullptr;
  Request r{reqs_.alloc(&q)};
  q->owner = rs.ctx.rank;
  q->coll_slot = slot;
  op.req_ids[lr] = r.id;

  ++op.arrived;
  op.has_arrived[lr] = true;
  op.arrival[lr] = rs.ctx.clock;
  op.max_arrival = std::max(op.max_arrival, rs.ctx.clock);

  // A consensus synchronizes every member before anything else happens.
  if (consensus != nullptr) {
    op.consensus[lr] = consensus;
    if (op.arrived == p) complete_consensus(c.id, op, consensus->fold);
    return r;
  }

  complete_arrival(c.id, op, lr, rs.ctx.clock);
  return r;
}

void Engine::complete_arrival(int comm_id, CollOp& op, int lr, double t) {
  const CommData& cd = comms_.at(comm_id);
  const int p = static_cast<int>(cd.members.size());
  // Completion semantics depend on the operation's data-flow direction:
  //  * allreduce / allgather / barrier / split synchronize everyone;
  //  * bcast / scatter receivers depend on the root only (a pipelined MPI
  //    broadcast does not make receivers wait for one another);
  //  * reduce / gather contributors inject their payload and leave — only
  //    the root waits for everyone.
  switch (op.type) {
    case CollType::Allreduce:
    case CollType::Allgather:
    case CollType::Barrier:
    case CollType::Split:
      if (op.arrived == p) complete_coll_sync(comm_id, op);
      break;
    case CollType::Bcast:
    case CollType::Scatter:
      if (lr == op.root) {
        op.root_arrived = true;
        op.root_time = t;
        for (int m = 0; m < p; ++m)
          if (op.has_arrived[m])
            finalize_coll_member(op, cd, m,
                                 std::max(op.arrival[m], op.root_time + op.cost));
      } else if (op.root_arrived) {
        finalize_coll_member(op, cd, lr, std::max(t, op.root_time + op.cost));
      }
      break;
    case CollType::Reduce:
    case CollType::Gather:
      if (lr != op.root) finalize_coll_member(op, cd, lr, t + machine_.alpha);
      if (op.arrived == p)
        finalize_coll_member(op, cd, op.root, op.max_arrival + op.cost);
      break;
  }
}

void Engine::complete_consensus(int comm_id, CollOp& op,
                                bool (*fold)(void* const*, int)) {
  CommData& cd = comms_[comm_id];
  const int p = static_cast<int>(cd.members.size());
  const double agreed = op.max_arrival + op.consensus_cost;
  fold_args_.resize(p);
  for (int lr = 0; lr < p; ++lr) fold_args_[lr] = op.consensus[lr]->member;
  const bool execute = fold(fold_args_.data(), p);
  for (Consensus* m : op.consensus) {
    m->agreed = agreed;
    m->execute = execute;
  }
  if (!execute) {
    for (int lr = 0; lr < p; ++lr) {
      ReqState* q = reqs_.find(op.req_ids[lr]);
      CRITTER_CHECK(q != nullptr, "collective request state missing");
      finish_coll_request(*q, op.req_ids[lr], cd.members[lr], agreed);
    }
    return;
  }
  // The user collective is a collective of its own: it takes the next
  // sequence number, and every member arrives at it at the agreed time.
  ++coll_count_;
  for (std::uint64_t& s : cd.seq) ++s;
  op.cost = coll_cost(op.type, op.bytes, p, comm_id, op.seq + 1);
  op.arrival.assign(p, agreed);
  op.max_arrival = agreed;
  op.arrived = 0;
  for (int lr = 0; lr < p; ++lr) {
    ++op.arrived;
    complete_arrival(comm_id, op, lr, agreed);
  }
}

void Engine::finalize_coll_member(CollOp& op, const CommData& cd, int lr,
                                  double when) {
  ReqState* q = reqs_.find(op.req_ids[lr]);
  CRITTER_CHECK(q != nullptr, "collective request state missing");
  if (q->done) return;
  deliver_coll_data(op, cd, lr);
  finish_coll_request(*q, op.req_ids[lr], cd.members[lr], when);
}

void Engine::finish_coll_request(ReqState& q, std::uint64_t id, int world_rank,
                                 double when) {
  q.done = true;
  q.done_time = when;
  RankState& owner = ranks_[world_rank];
  if (owner.st == RankState::St::Blocked && owner.blocked_req == id)
    make_ready(world_rank, when);
}

void Engine::complete_coll_sync(int comm_id, CollOp& op) {
  const int p = static_cast<int>(comms_.at(comm_id).members.size());
  const double completion = op.max_arrival + op.cost;
  // Deliver data for everyone; re-fetch the comm each call because Split
  // registers communicators, which can reallocate comms_.
  for (int lr = 0; lr < p; ++lr) deliver_coll_data(op, comms_.at(comm_id), lr);
  const CommData& cd = comms_.at(comm_id);
  for (int lr = 0; lr < p; ++lr) {
    ReqState* q = reqs_.find(op.req_ids[lr]);
    CRITTER_CHECK(q != nullptr, "collective request state missing");
    if (!q->done)
      finish_coll_request(*q, op.req_ids[lr], cd.members[lr], completion);
  }
}

void Engine::deliver_coll_data(CollOp& op, const CommData& cd, int lr) {
  const int p = static_cast<int>(cd.members.size());
  const int bytes = op.bytes;
  // Lazily fold reduction contributions once (valid only when everyone has
  // arrived, which the per-type finalize ordering guarantees).
  auto folded = [&]() -> const std::vector<std::byte>& {
    if (!op.folded_done) {
      op.folded_done = true;
      if (!op.contrib[0].empty()) {
        op.folded = op.contrib[0];
        for (int m = 1; m < p; ++m) {
          CRITTER_CHECK(!op.contrib[m].empty(), "reduce with partial data");
          op.fn(op.contrib[m].data(), op.folded.data(), bytes);
        }
      }
    }
    return op.folded;
  };
  switch (op.type) {
    case CollType::Bcast: {
      const auto& src = op.contrib[op.root];
      if (src.empty()) return;  // model mode
      if (op.recv_bufs[lr] != nullptr && lr != op.root)
        std::memcpy(op.recv_bufs[lr], src.data(), bytes);
      return;
    }
    case CollType::Reduce: {
      if (lr != op.root) return;
      const auto& acc = folded();
      if (!acc.empty() && op.recv_bufs[lr] != nullptr)
        std::memcpy(op.recv_bufs[lr], acc.data(), bytes);
      return;
    }
    case CollType::Allreduce: {
      const auto& acc = folded();
      if (!acc.empty() && op.recv_bufs[lr] != nullptr)
        std::memcpy(op.recv_bufs[lr], acc.data(), bytes);
      return;
    }
    case CollType::Allgather:
    case CollType::Gather: {
      if (op.type == CollType::Gather && lr != op.root) return;
      void* dst = op.recv_bufs[lr];
      if (dst == nullptr || op.contrib[0].empty()) return;
      for (int s = 0; s < p; ++s) {
        CRITTER_CHECK(!op.contrib[s].empty(), "gather with partial data");
        std::memcpy(static_cast<std::byte*>(dst) + static_cast<std::size_t>(s) * bytes,
                    op.contrib[s].data(), bytes);
      }
      return;
    }
    case CollType::Scatter: {
      const auto& src = op.contrib[op.root];
      if (src.empty()) return;
      if (op.recv_bufs[lr] != nullptr)
        std::memcpy(op.recv_bufs[lr],
                    src.data() + static_cast<std::size_t>(lr) * bytes, bytes);
      return;
    }
    case CollType::Barrier:
      return;
    case CollType::Split: {
      if (op.split_done) return;
      op.split_done = true;
      // Group members by color, order each group by (key, world rank), and
      // register one new communicator per color.  Cold path: std::map keeps
      // the color iteration order deterministic.
      std::map<int, std::vector<std::pair<std::pair<int, int>, int>>> groups;
      for (int m = 0; m < p; ++m) {
        const int color = op.colorkey[m][0];
        const int key = op.colorkey[m][1];
        groups[color].push_back({{key, cd.members[m]}, cd.members[m]});
      }
      for (auto& [color, v] : groups) {
        std::sort(v.begin(), v.end());
        std::vector<int> members;
        members.reserve(v.size());
        for (auto& e : v) members.push_back(e.second);
        const int id = register_comm(std::move(members));
        for (auto& e : v) ranks_[e.second].split_result = id;
      }
      return;
    }
  }
}

void Engine::f_coll(CollType type, const void* sendbuf, void* recvbuf,
                    int bytes, int root, const ReduceFn& fn, Comm c,
                    Consensus* consensus) {
  f_wait(post_coll(type, sendbuf, recvbuf, bytes, root, fn, c, consensus));
}

Comm Engine::f_split(Comm parent, int color, int key) {
  RankState& rs = current();
  // Communicator ids follow completion order and key the noise of
  // everything later run on them (DESIGN.md §2).
  sync_to_min();
  const int ck[2] = {color, key};
  f_coll(CollType::Split, ck, nullptr, 0, 0, nullptr, parent);
  CRITTER_CHECK(rs.split_result >= 0, "split produced no communicator");
  const Comm out{rs.split_result};
  rs.split_result = -1;
  return out;
}

namespace {

/// One flush per completed run keeps the event loop itself free of atomics:
/// the engine accumulates plain per-instance counters and deposits them
/// here.  References are resolved once per process (registry entries are
/// never deleted).
void flush_run_metrics(std::int64_t switches, std::int64_t sifts,
                       std::int64_t p2p, std::int64_t coll) {
  static obs::Counter& jobs = obs::counter("sim.jobs");
  static obs::Counter& fiber_switches = obs::counter("sim.fiber_switches");
  static obs::Counter& heap_sifts = obs::counter("sim.heap_sifts");
  static obs::Counter& p2p_msgs = obs::counter("sim.p2p_msgs");
  static obs::Counter& coll_ops = obs::counter("sim.coll_ops");
  jobs.add(1);
  fiber_switches.add(static_cast<std::uint64_t>(switches));
  heap_sifts.add(static_cast<std::uint64_t>(sifts));
  p2p_msgs.add(static_cast<std::uint64_t>(p2p));
  coll_ops.add(static_cast<std::uint64_t>(coll));
}

}  // namespace

void Engine::run(const std::function<void(RankCtx&)>& body) {
  CRITTER_CHECK(final_clocks_.empty(), "Engine::run may only be called once");
  obs::ScopedSpan span("sim.run", "sim", "ranks",
                       static_cast<std::uint64_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    RankState* rs = &ranks_[r];
    rs->fiber = std::make_unique<Fiber>([this, rs, &body] { body(rs->ctx); });
    ready_.push(0.0, r);
  }
  Engine* prev = g_engine;
  g_engine = this;
  while (!ready_.empty()) {
    const int r = ready_.pop();
    RankState& rs = ranks_[r];
    rs.st = RankState::St::Running;
    running_ = r;
    rs.fiber->resume();
    ++fiber_switches_;
    running_ = -1;
    if (rs.fiber->finished()) {
      rs.st = RankState::St::Done;
      if (rs.fiber->error() && !first_error_) {
        first_error_ = rs.fiber->error();
        break;
      }
    }
  }
  g_engine = prev;
  flush_run_metrics(fiber_switches_, ready_.sift_steps(), p2p_count_,
                    coll_count_);
  if (first_error_) std::rethrow_exception(first_error_);

  for (const auto& rs : ranks_)
    if (rs.st != RankState::St::Done) report_deadlock();

  final_clocks_.resize(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    final_clocks_[r] = ranks_[r].ctx.clock;
    max_time_ = std::max(max_time_, final_clocks_[r]);
  }
}

void Engine::report_deadlock() {
  std::ostringstream os;
  os << "simulated deadlock: ranks still blocked — ";
  int shown = 0;
  for (const auto& rs : ranks_) {
    if (rs.st == RankState::St::Done) continue;
    if (shown++ >= 8) {
      os << "...";
      break;
    }
    os << "[rank " << rs.ctx.rank << " @t=" << rs.ctx.clock << " "
       << (rs.block_reason == nullptr ? "ready?" : rs.block_reason) << "] ";
  }
  throw std::runtime_error(os.str());
}

}  // namespace critter::sim
