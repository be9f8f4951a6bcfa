#ifndef PTRIDER_DISPATCH_REINDEX_H_
#define PTRIDER_DISPATCH_REINDEX_H_

#include <span>

#include "dispatch/worker_pool.h"
#include "vehicle/vehicle_index.h"

namespace ptrider::dispatch {

/// Applies a batch of deferred vehicle-index re-registrations
/// (vehicle::VehicleIndex::Prepare results), shard-concurrently when it
/// pays: with a pool, more than one shard and a batch worth the fan-out,
/// every worker applies the whole batch in order restricted to its
/// shards; otherwise one thread applies it sequentially. Both paths
/// issue identical per-shard operation sequences, so the resulting
/// lists are bit-identical regardless of pool, shard count or threshold
/// (DESIGN.md section 10). The batch is consumed in order — pass
/// updates in the order the sequential reference would have applied
/// them.
///
/// Each call also counts as one reindex batch toward the index's density
/// rebalance cadence (VehicleIndex::MaybeRebalance).
void ApplyReindex(vehicle::VehicleIndex& index,
                  std::span<const vehicle::PendingUpdate> pending,
                  WorkerPool* pool);

}  // namespace ptrider::dispatch

#endif  // PTRIDER_DISPATCH_REINDEX_H_
