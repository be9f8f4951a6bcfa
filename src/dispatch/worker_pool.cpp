#include "dispatch/worker_pool.h"

namespace ptrider::dispatch {

WorkerPool::WorkerPool(const core::PTRider& system, size_t num_threads)
    : pool_(num_threads <= 1 ? 0 : num_threads - 1) {
  // One context per pool worker plus one for the calling thread, which
  // ParallelFor enlists as worker id pool_.num_workers().
  workers_.reserve(pool_.num_workers() + 1);
  for (size_t w = 0; w < pool_.num_workers() + 1; ++w) {
    workers_.emplace_back(system, w);
  }
}

void WorkerPool::ParallelFor(
    size_t n,
    const std::function<void(size_t index, WorkerContext& context)>& fn) {
  pool_.ParallelFor(
      n, [&](size_t index, size_t worker) { fn(index, workers_[worker]); });
}

}  // namespace ptrider::dispatch
