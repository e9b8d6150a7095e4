// Rank-side convenience API: free functions that forward to the engine of
// the currently running fiber.  Application code (the factorization
// libraries, examples) reads like an MPI program:
//
//   sim::bcast(buf, bytes, /*root=*/0, comm);
//   sim::advance(machine.gamma * flops);
//
// The critter interception layer (core/mpi.hpp) wraps these with profiling
// and selective execution; library code should normally go through critter.
#pragma once

#include "sim/engine.hpp"

namespace critter::sim {

inline RankCtx& this_ctx() { return Engine::ctx(); }
inline Engine& engine() { return *Engine::ctx().engine; }
inline double now() { return Engine::ctx().clock; }

inline Comm world() { return engine().world(); }
inline int comm_size(Comm c) { return engine().comm_size(c); }
inline int comm_rank(Comm c) { return engine().comm_rank(c); }
inline int world_rank() { return Engine::ctx().rank; }
inline int world_size() { return engine().nranks(); }

/// Advance this rank's virtual clock by `seconds` of local work.
inline void advance(double seconds) { engine().f_advance(seconds); }

inline void send(const void* buf, int bytes, int dest, int tag, Comm c) {
  engine().f_send(buf, bytes, dest, tag, c);
}
inline Request isend(const void* buf, int bytes, int dest, int tag, Comm c) {
  return engine().f_isend(buf, bytes, dest, tag, c);
}
inline void recv(void* buf, int bytes, int src, int tag, Comm c) {
  engine().f_recv(buf, bytes, src, tag, c);
}
inline Request irecv(void* buf, int bytes, int src, int tag, Comm c) {
  return engine().f_irecv(buf, bytes, src, tag, c);
}
inline void wait(Request r) { engine().f_wait(r); }

inline void sendrecv(const void* sbuf, int sbytes, int dest, int stag,
                     void* rbuf, int rbytes, int src, int rtag, Comm c) {
  Request r = engine().f_irecv(rbuf, rbytes, src, rtag, c);
  engine().f_send(sbuf, sbytes, dest, stag, c);
  engine().f_wait(r);
}

inline void bcast(void* buf, int bytes, int root, Comm c) {
  engine().f_coll(CollType::Bcast, buf, buf, bytes, root, nullptr, c);
}
inline void reduce(const void* sbuf, void* rbuf, int bytes, const ReduceFn& fn,
                   int root, Comm c) {
  engine().f_coll(CollType::Reduce, sbuf, rbuf, bytes, root, fn, c);
}
inline void allreduce(const void* sbuf, void* rbuf, int bytes,
                      const ReduceFn& fn, Comm c) {
  engine().f_coll(CollType::Allreduce, sbuf, rbuf, bytes, 0, fn, c);
}
/// Each rank contributes `bytes`; every rank receives `bytes * p`.
inline void allgather(const void* sbuf, int bytes, void* rbuf, Comm c) {
  engine().f_coll(CollType::Allgather, sbuf, rbuf, bytes, 0, nullptr, c);
}
/// Each rank contributes `bytes`; root receives `bytes * p`.
inline void gather(const void* sbuf, int bytes, void* rbuf, int root, Comm c) {
  engine().f_coll(CollType::Gather, sbuf, rbuf, bytes, root, nullptr, c);
}
/// Root provides `bytes * p`; every rank receives its `bytes` slice.
inline void scatter(const void* sbuf, int bytes, void* rbuf, int root, Comm c) {
  engine().f_coll(CollType::Scatter, sbuf, rbuf, bytes, root, nullptr, c);
}
inline void barrier(Comm c) {
  engine().f_coll(CollType::Barrier, nullptr, nullptr, 0, 0, nullptr, c);
}

inline Request ibcast(void* buf, int bytes, int root, Comm c) {
  return engine().f_icoll(CollType::Bcast, buf, buf, bytes, root, nullptr, c);
}
inline Request iallreduce(const void* sbuf, void* rbuf, int bytes,
                          const ReduceFn& fn, Comm c) {
  return engine().f_icoll(CollType::Allreduce, sbuf, rbuf, bytes, 0, fn, c);
}

inline Comm split(Comm parent, int color, int key) {
  return engine().f_split(parent, color, key);
}

}  // namespace critter::sim
