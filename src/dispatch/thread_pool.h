#ifndef PTRIDER_DISPATCH_THREAD_POOL_H_
#define PTRIDER_DISPATCH_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>  // lint: allow(raw-thread)
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ptrider::dispatch {

/// Fixed-size worker pool with a FIFO task queue — the repo's first
/// concurrency primitive, shared by the parallel dispatcher and whatever
/// sharding/async work comes after it.
///
/// Every task receives the index of the worker executing it
/// (0..num_workers-1), so callers can maintain per-worker state — e.g.
/// one roadnet::DistanceOracle per thread — and tasks touch it without
/// locking. One coordinating thread owns the pool: it Submit()s work and
/// Wait()s for completion (the library is exception-free; tasks must not
/// throw). Workers live for the lifetime of the pool, so per-batch use
/// pays queue hand-off, not thread start-up.
///
/// Locking contract (machine-checked under clang, DESIGN.md section 13):
/// queue_, active_ and stopping_ are GUARDED_BY(mu_); both condition
/// variables pair with mu_. workers_ is written only in the constructor
/// and joined in the destructor, so it needs no guard.
class ThreadPool {
 public:
  /// Starts `num_workers` workers. A pool of zero workers is legal and
  /// supports ParallelFor only (the calling thread does all the work —
  /// the degenerate single-threaded configuration, with zero hand-off
  /// cost).
  explicit ThreadPool(size_t num_workers);
  /// Drains nothing: pending tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues `task`; some worker eventually runs task(worker_id). On a
  /// zero-worker pool the task runs synchronously on the caller (as
  /// worker 0) — there is no one else to hand it to.
  void Submit(std::function<void(size_t worker)> task) EXCLUDES(mu_);

  /// Blocks the calling thread until every submitted task has finished
  /// (queue empty and no task mid-execution).
  void Wait() EXCLUDES(mu_);

  /// Runs fn(index, worker) for every index in [0, n), each thread
  /// claiming the next unclaimed index off a shared counter so uneven
  /// per-index cost still balances. The calling thread participates as
  /// worker id num_workers() — fn runs on num_workers() + 1 threads
  /// total, and per-worker state must be sized accordingly. Blocks until
  /// all n calls returned.
  void ParallelFor(size_t n,
                   const std::function<void(size_t index, size_t worker)>&
                       fn) EXCLUDES(mu_);

 private:
  void WorkerLoop(size_t worker_id) EXCLUDES(mu_);

  util::Mutex mu_;
  util::CondVar task_ready_;
  util::CondVar all_done_;
  std::deque<std::function<void(size_t)>> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // lint: allow(raw-thread)
};

}  // namespace ptrider::dispatch

#endif  // PTRIDER_DISPATCH_THREAD_POOL_H_
