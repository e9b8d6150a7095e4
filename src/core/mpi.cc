#include "core/mpi.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/channel.hpp"
#include "core/wire.hpp"
#include "util/check.hpp"

namespace critter::mpi {

namespace {

constexpr int kInternalTagOffset = 1 << 20;

// One reusable point-to-point piggyback per *rank*: a send copies its
// piggyback before it returns, but a receive blocks until its piggyback
// arrives, and the ranks that run meanwhile would otherwise overwrite it.
// A rank runs one call at a time, so its sends and receives share it.
// Rebuilt when capacities change.  thread_local so concurrent tuner workers
// (one engine per thread) do not share scratch state.
core::IntMsg& scratch_msg(const Config& cfg) {
  const int rank = sim::world_rank();
  thread_local std::vector<std::unique_ptr<core::IntMsg>> per_rank;
  if (static_cast<int>(per_rank.size()) <= rank) per_rank.resize(rank + 1);
  auto& p = per_rank[rank];
  if (!p || p->tilde_cap() != cfg.tilde_capacity ||
      p->eager_cap() != cfg.eager_capacity)
    p = std::make_unique<core::IntMsg>(cfg.tilde_capacity, cfg.eager_capacity);
  return *p;
}

core::KernelClass coll_kernel_class(sim::CollType t) {
  switch (t) {
    case sim::CollType::Bcast: return core::KernelClass::Bcast;
    case sim::CollType::Reduce: return core::KernelClass::Reduce;
    case sim::CollType::Allreduce: return core::KernelClass::Allreduce;
    case sim::CollType::Allgather: return core::KernelClass::Allgather;
    case sim::CollType::Gather: return core::KernelClass::Gather;
    case sim::CollType::Scatter: return core::KernelClass::Scatter;
    case sim::CollType::Barrier: return core::KernelClass::Barrier;
    case sim::CollType::Split: break;
  }
  CRITTER_CHECK(false, "no kernel class for collective");
}

/// Channel signature of a point-to-point pair: a size-2 sub-communicator
/// whose stride is the world-rank distance (paper §V-D).  The hash is
/// computed directly — pair channels are deliberately NOT registered in the
/// ChannelRegistry: no coverage query (try_extend_coverage / covers_world)
/// ever names a p2p channel, and registering one forces the registry to
/// combine it against every existing channel, which profiling shows
/// dominates the instrumented-sim event loop on p2p-heavy workloads.
/// It depends only on the two world ranks, so it is cached per peer world
/// rank for the store's lifetime.
std::uint64_t p2p_channel(sim::Comm c, int peer_local) {
  critter::RankProfiler& rp = critter::prof();
  const int peer_world = sim::engine().comm_members(c)[peer_local];
  std::uint64_t& cached = rp.pair_chan[peer_world];
  if (cached != 0) return cached;
  const int me_world = sim::Engine::ctx().rank;
  std::vector<int> pair{std::min(me_world, peer_world),
                        std::max(me_world, peer_world)};
  if (pair[0] == pair[1]) pair.pop_back();  // self-message
  cached = core::channel_from_ranks(pair).hash();
  return cached;
}

/// Virtual time this rank spends in `op`.
template <typename Op>
double timed(Op&& op) {
  const double t0 = sim::now();
  op();
  return sim::now() - t0;
}

/// The timing half of a communication kernel's bookkeeping, once its
/// execute/skip decision is known: an executed kernel adds its `measured`
/// duration as a sample, a skipped one charges its mean; either way the
/// time goes to the path model P.
void account_time(critter::RankProfiler& rp, core::KernelStats& ks,
                  bool executed, double measured) {
  double dt;
  if (executed) {
    dt = measured;
    ks.add_sample(dt);
    ++ks.executions_this_epoch;
    ++ks.total_executions;
    rp.local.kernel_comm_time += dt;
    ++rp.local.executed;
  } else {
    dt = ks.mean;
    ++rp.local.skipped;
  }
  rp.path.exec_time += dt;
  rp.path.comm_time += dt;
  rp.local.modeled_comm_time += dt;
}

/// The structural half: one BSP superstep moving `words` words, charged
/// whether the kernel executed or not.
void account_words(critter::RankProfiler& rp, double words) {
  rp.path.sync_cost += 1.0;
  rp.path.comm_cost += words;
  rp.local.syncs += 1.0;
  rp.local.words += words;
}

/// The kernel a send or isend intercepted, and whether it executes.
struct SendSide {
  core::KernelKey key;
  core::KernelStats& ks;
  bool execute;
};

/// The sender's side of an intercepted send or isend: the kernel's
/// execute/skip decision, piggybacked with this rank's path profile on the
/// internal tag.  The piggyback is always sent, so the receiver learns the
/// decision (DESIGN.md §4).  It is charged at the full wire size, but only
/// the header and the ~K entries in use are copied.
SendSide decide_and_piggyback(critter::RankProfiler& rp, const Config& cfg,
                              core::KernelClass cls, int bytes, int dest,
                              int tag, sim::Comm c) {
  const core::KernelKey key{cls, {static_cast<std::int64_t>(bytes), 0, 0, 0},
                            p2p_channel(c, dest)};
  core::KernelStats& ks = critter::detail::stats_for(rp, key);
  critter::detail::note_invocation(rp, key, ks);
  const bool execute = critter::detail::wants_execution(rp, cfg, key, ks);
  core::IntMsg& msg = scratch_msg(cfg);
  msg.pack(rp, execute);
  rp.local.overhead_time += timed([&] {
    sim::engine().f_send(msg.data(), msg.bytes(), dest,
                         tag + kInternalTagOffset, c, msg.payload());
  });
  return {key, ks, execute};
}

void intercepted_coll(sim::CollType type, const void* sendbuf, void* recvbuf,
                      int bytes, int root, const sim::ReduceFn& fn,
                      sim::Comm c) {
  const Config& cfg = critter::config();
  if (!cfg.instrument) {
    sim::engine().f_coll(type, sendbuf, recvbuf, bytes, root, fn, c);
    return;
  }
  critter::RankProfiler& rp = critter::prof();
  const std::uint64_t chan = critter::detail::channel_of(c);
  core::KernelKey key{coll_kernel_class(type),
                      {static_cast<std::int64_t>(bytes), 0, 0, 0}, chan};
  core::KernelStats& ks = critter::detail::stats_for(rp, key);
  critter::detail::note_invocation(rp, key, ks);
  const bool want = critter::detail::wants_execution(rp, cfg, key, ks);

  // The consensus and the user collective are one engine operation: the
  // members' votes fold into path profiles, a consistent execute decision
  // and (eager) aggregated kernel statistics, charged as an allreduce of
  // the internal message's wire size; the collective runs only on execute.
  core::Vote vote{&rp, &cfg, chan, want};
  sim::Consensus consensus{
      &vote, core::IntMsg::wire_bytes(cfg.tilde_capacity, cfg.eager_capacity),
      core::agree};
  const double t0 = sim::now();
  sim::engine().f_coll(type, sendbuf, recvbuf, bytes, root, fn, c, &consensus);
  rp.local.overhead_time += consensus.agreed - t0;
  const double measured =
      consensus.execute ? sim::now() - consensus.agreed : 0.0;
  const int p = sim::comm_size(c);
  account_time(rp, ks, consensus.execute, measured);
  account_words(rp, sim::Machine::coll_bytes_moved(type, bytes, p) / 8.0);
}

}  // namespace

void bcast(void* buf, int bytes, int root, sim::Comm c) {
  intercepted_coll(sim::CollType::Bcast, buf, buf, bytes, root, nullptr, c);
}
void reduce(const void* sbuf, void* rbuf, int bytes, const sim::ReduceFn& fn,
            int root, sim::Comm c) {
  intercepted_coll(sim::CollType::Reduce, sbuf, rbuf, bytes, root, fn, c);
}
void allreduce(const void* sbuf, void* rbuf, int bytes, const sim::ReduceFn& fn,
               sim::Comm c) {
  intercepted_coll(sim::CollType::Allreduce, sbuf, rbuf, bytes, 0, fn, c);
}
void allgather(const void* sbuf, int bytes, void* rbuf, sim::Comm c) {
  intercepted_coll(sim::CollType::Allgather, sbuf, rbuf, bytes, 0, nullptr, c);
}
void gather(const void* sbuf, int bytes, void* rbuf, int root, sim::Comm c) {
  intercepted_coll(sim::CollType::Gather, sbuf, rbuf, bytes, root, nullptr, c);
}
void scatter(const void* sbuf, int bytes, void* rbuf, int root, sim::Comm c) {
  intercepted_coll(sim::CollType::Scatter, sbuf, rbuf, bytes, root, nullptr, c);
}
void barrier(sim::Comm c) {
  intercepted_coll(sim::CollType::Barrier, nullptr, nullptr, 0, 0, nullptr, c);
}

void send(const void* buf, int bytes, int dest, int tag, sim::Comm c) {
  const Config& cfg = critter::config();
  if (!cfg.instrument) {
    sim::send(buf, bytes, dest, tag, c);
    return;
  }
  critter::RankProfiler& rp = critter::prof();
  const SendSide s = decide_and_piggyback(rp, cfg, core::KernelClass::Send,
                                          bytes, dest, tag, c);
  const double measured =
      s.execute ? timed([&] { sim::send(buf, bytes, dest, tag, c); }) : 0.0;
  account_time(rp, s.ks, s.execute, measured);
  account_words(rp, bytes / 8.0);
}

void recv(void* buf, int bytes, int src, int tag, sim::Comm c) {
  const Config& cfg = critter::config();
  if (!cfg.instrument) {
    sim::recv(buf, bytes, src, tag, c);
    return;
  }
  critter::RankProfiler& rp = critter::prof();
  const std::uint64_t chan = p2p_channel(c, src);
  core::KernelKey key{core::KernelClass::Recv,
                      {static_cast<std::int64_t>(bytes), 0, 0, 0}, chan};
  core::KernelStats& ks = critter::detail::stats_for(rp, key);
  critter::detail::note_invocation(rp, key, ks);

  core::IntMsg& peer = scratch_msg(cfg);
  rp.local.overhead_time += timed([&] {
    sim::recv(peer.data(), peer.bytes(), src, tag + kInternalTagOffset, c);
  });
  peer.unpack_into(rp);
  // Sender-decides rule: the data transfer happens iff the sender executed.
  const bool execute = peer.header().execute != 0;
  const double measured =
      execute ? timed([&] { sim::recv(buf, bytes, src, tag, c); }) : 0.0;
  account_time(rp, ks, execute, measured);
  account_words(rp, bytes / 8.0);
}

Request isend(const void* buf, int bytes, int dest, int tag, sim::Comm c) {
  Request out;
  out.valid = true;
  const Config& cfg = critter::config();
  if (!cfg.instrument) {
    out.user = sim::isend(buf, bytes, dest, tag, c);
    out.executed = true;
    return out;
  }
  critter::RankProfiler& rp = critter::prof();
  const SendSide s = decide_and_piggyback(rp, cfg, core::KernelClass::Isend,
                                          bytes, dest, tag, c);
  if (s.execute) out.user = sim::isend(buf, bytes, dest, tag, c);
  out.key = s.key;
  out.executed = s.execute;
  // Structural costs are attributed at post time; the timing sample is
  // collected at wait() (paper's MPI_Wait interception).
  account_words(rp, bytes / 8.0);
  return out;
}

Request ibcast(void* buf, int bytes, int root, sim::Comm c) {
  Request out;
  out.valid = true;
  const Config& cfg = critter::config();
  out.user = sim::ibcast(buf, bytes, root, c);
  out.executed = true;
  if (!cfg.instrument) return out;
  critter::RankProfiler& rp = critter::prof();
  const std::uint64_t chan = critter::detail::channel_of(c);
  out.key = core::KernelKey{core::KernelClass::Bcast,
                            {static_cast<std::int64_t>(bytes), 0, 0, 1}, chan};
  core::KernelStats& ks = critter::detail::stats_for(rp, out.key);
  critter::detail::note_invocation(rp, out.key, ks);
  out.words = sim::Machine::coll_bytes_moved(sim::CollType::Bcast, bytes,
                                             sim::comm_size(c)) /
              8.0;
  return out;
}

void wait(Request& r) {
  CRITTER_CHECK(r.valid, "wait on an empty critter request");
  r.valid = false;
  const Config& cfg = critter::config();
  if (!cfg.instrument) {
    sim::wait(r.user);
    return;
  }
  critter::RankProfiler& rp = critter::prof();
  core::KernelStats& ks = critter::detail::stats_for(rp, r.key);
  const double measured = r.executed ? timed([&] { sim::wait(r.user); }) : 0.0;
  account_time(rp, ks, r.executed, measured);
  if (r.words > 0.0) account_words(rp, r.words);
}

sim::Comm comm_split(sim::Comm parent, int color, int key) {
  sim::Comm out = sim::split(parent, color, key);
  if (critter::config().instrument) {
    critter::detail::channel_of(out);  // register channel + aggregates
  }
  return out;
}

}  // namespace critter::mpi
