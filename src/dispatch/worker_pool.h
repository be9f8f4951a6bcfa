#ifndef PTRIDER_DISPATCH_WORKER_POOL_H_
#define PTRIDER_DISPATCH_WORKER_POOL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "dispatch/thread_pool.h"
#include "dispatch/worker_context.h"

namespace ptrider::dispatch {

/// A ThreadPool bundled with one WorkerContext per participating thread —
/// the common fan-out shape for read-only phases over frozen system
/// state (the dispatcher's sharded match, the simulator's movement
/// advance, and whatever sharded phase comes next). Callers get handed
/// their thread's private context, so per-thread DistanceOracle clones
/// never need to be wired by hand at each call site.
///
/// Contexts persist for the pool's lifetime, so each thread's search
/// scratch is allocated once, not per batch or tick.
class WorkerPool {
 public:
  /// `num_threads` participating threads total, the calling thread
  /// included (clamped to >= 1): num_threads - 1 pool workers are
  /// spawned and the caller works alongside them, so one thread means
  /// no pool at all.
  WorkerPool(const core::PTRider& system, size_t num_threads);

  /// Pool workers plus the participating caller.
  size_t num_threads() const { return pool_.num_workers() + 1; }

  /// Runs fn(index, context) for every index in [0, n), where `context`
  /// is private to the executing thread for the duration of the call.
  /// Blocks until all n calls returned.
  void ParallelFor(size_t n,
                   const std::function<void(size_t index,
                                            WorkerContext& context)>& fn);

 private:
  ThreadPool pool_;
  std::vector<WorkerContext> workers_;
};

}  // namespace ptrider::dispatch

#endif  // PTRIDER_DISPATCH_WORKER_POOL_H_
