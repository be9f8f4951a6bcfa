#include "dispatch/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace ptrider::dispatch {

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mu_);
    stopping_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void(size_t)> task) {
  if (workers_.empty()) {
    // No worker will ever drain the queue; the caller is the only
    // executor there is (it gets id 0, as ParallelFor would give it).
    task(0);
    return;
  }
  {
    const util::MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.NotifyOne();
}

void ThreadPool::Wait() {
  const util::MutexLock lock(mu_);
  while (!queue_.empty() || active_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  // One pump task per worker; indices come off a shared counter so a
  // slow index never strands work behind it. `fn` and `next` outlive
  // the tasks because Wait() returns only after every task object is
  // destroyed.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  const auto pump = [next, n, &fn](size_t worker) {
    for (size_t i = next->fetch_add(1, std::memory_order_relaxed); i < n;
         i = next->fetch_add(1, std::memory_order_relaxed)) {
      fn(i, worker);
    }
  };
  const size_t pumps = std::min(num_workers(), n);
  for (size_t t = 0; t < pumps; ++t) Submit(pump);
  // The caller pumps too (as worker id num_workers()) instead of
  // sleeping in Wait — with zero pool workers this degenerates to a
  // plain loop.
  pump(num_workers());
  Wait();
}

void ThreadPool::WorkerLoop(size_t worker_id) {
  mu_.Lock();
  while (true) {
    while (!stopping_ && queue_.empty()) task_ready_.Wait(mu_);
    if (queue_.empty()) break;  // only reachable when stopping
    std::function<void(size_t)> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    mu_.Unlock();
    task(worker_id);
    task = nullptr;  // release captures before signalling completion
    mu_.Lock();
    --active_;
    if (queue_.empty() && active_ == 0) all_done_.NotifyAll();
  }
  mu_.Unlock();
}

}  // namespace ptrider::dispatch
