#ifndef PTRIDER_DISPATCH_WORKER_CONTEXT_H_
#define PTRIDER_DISPATCH_WORKER_CONTEXT_H_

#include "core/ptrider.h"
#include "roadnet/distance_oracle.h"

namespace ptrider::dispatch {

/// Everything one matching worker owns privately, so concurrent matches
/// never share mutable search state: a DistanceOracle clone (own
/// search-engine scratch, own counters) over the shared immutable road
/// network. The fleet, grid and vehicle index are read through
/// core::PTRider::MatchReadOnly and stay shared — they are frozen for
/// the duration of the sharded-match phase.
///
/// Contexts persist across batches (held by the WorkerPool), so a
/// worker's search scratch is allocated once per simulation.
class WorkerContext {
 public:
  explicit WorkerContext(const core::PTRider& system, size_t index = 0)
      : oracle_(system.oracle().Clone()), index_(index) {}

  roadnet::DistanceOracle& oracle() { return oracle_; }

  /// This context's 0-based slot in its WorkerPool — stable for the
  /// pool's lifetime and private to one thread per ParallelFor call, so
  /// per-worker recording (e.g. the service's quote-latency reservoirs)
  /// can index an array instead of taking a lock.
  size_t index() const { return index_; }

 private:
  roadnet::DistanceOracle oracle_;
  size_t index_ = 0;
};

}  // namespace ptrider::dispatch

#endif  // PTRIDER_DISPATCH_WORKER_CONTEXT_H_
