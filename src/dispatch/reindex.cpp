#include "dispatch/reindex.h"

namespace ptrider::dispatch {

namespace {
/// Below this batch size the pool fan-out costs more than the shard
/// loops it parallelizes. Either path produces identical lists, so the
/// threshold is a pure latency knob.
constexpr size_t kParallelReindexMin = 16;
}  // namespace

void ApplyReindex(vehicle::VehicleIndex& index,
                  std::span<const vehicle::PendingUpdate> pending,
                  WorkerPool* pool) {
  if (pending.empty()) return;
  const size_t shards = index.num_shards();
  if (pool == nullptr || shards <= 1 ||
      pending.size() < kParallelReindexMin) {
    index.ApplyBatch(pending);
    index.MaybeRebalance();
    return;
  }
  // Sequential bookkeeping once, then one task per shard: updates within
  // a shard apply in batch order, shards apply concurrently — exactly
  // the decomposition VehicleIndex::ApplyShard's contract requires.
  index.BeginBatch(pending);
  pool->ParallelFor(
      shards,
      [&](size_t shard, WorkerContext&) {
        for (const vehicle::PendingUpdate& u : pending) {
          index.ApplyShard(u, static_cast<uint32_t>(shard));
        }
      },
      /*chunk=*/1);
  index.MaybeRebalance();
}

}  // namespace ptrider::dispatch
