// Intercepted MPI layer (paper Fig. 2).
//
// Application code calls critter::mpi::* exactly as it would call MPI (or
// the raw sim API).  Each call:
//   1. derives the kernel signature (routine, message size, channel),
//   2. propagates the path profile, the ~K execution-count table, and the
//      execute flag (for blocking collectives a consensus that the engine
//      runs in the same operation as the collective; for point-to-point a
//      one-way sender->receiver message),
//   3. selectively executes the user operation, and
//   4. updates the kernel's statistics and the online critical-path model.
//
// Divergence from Fig. 2 (documented in DESIGN.md): for point-to-point
// kernels the *sender's* decision alone controls the data transfer.  The
// paper's pseudocode takes max(sender, receiver) flags at the receiver, but
// the sender cannot learn the receiver's flag before posting a nonblocking
// send, so that rule is unimplementable without an extra round-trip; the
// sender-decides rule is deadlock-free and keeps both sides consistent.
#pragma once

#include "core/profiler.hpp"
#include "sim/api.hpp"

namespace critter::mpi {

void bcast(void* buf, int bytes, int root, sim::Comm c);
void reduce(const void* sbuf, void* rbuf, int bytes, const sim::ReduceFn& fn,
            int root, sim::Comm c);
void allreduce(const void* sbuf, void* rbuf, int bytes, const sim::ReduceFn& fn,
               sim::Comm c);
void allgather(const void* sbuf, int bytes, void* rbuf, sim::Comm c);
void gather(const void* sbuf, int bytes, void* rbuf, int root, sim::Comm c);
void scatter(const void* sbuf, int bytes, void* rbuf, int root, sim::Comm c);
void barrier(sim::Comm c);

void send(const void* buf, int bytes, int dest, int tag, sim::Comm c);
void recv(void* buf, int bytes, int src, int tag, sim::Comm c);

/// Nonblocking send handle; statistics are updated at wait() (paper's
/// MPI_Wait interception).
struct Request {
  sim::Request user{};
  core::KernelKey key{};
  bool executed = false;
  bool valid = false;
  double words = 0.0;  ///< BSP words accounted at wait (collectives)
};

Request isend(const void* buf, int bytes, int dest, int tag, sim::Comm c);

/// Intercepted nonblocking broadcast.  Nonblocking collectives are always
/// executed (never skipped): a selective decision would need a consensus
/// that is not available until wait(), and the paper itself reports that
/// nonblocking kernels resist prediction.  Timing is sampled at wait().
Request ibcast(void* buf, int bytes, int root, sim::Comm c);

void wait(Request& r);

/// Intercepted communicator split: creates the sub-communicator and
/// registers its channel (building aggregate channels, Fig. 2 lines 8-26).
sim::Comm comm_split(sim::Comm parent, int color, int key);

}  // namespace critter::mpi
