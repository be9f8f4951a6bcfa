#ifndef PTRIDER_VEHICLE_VEHICLE_INDEX_H_
#define PTRIDER_VEHICLE_VEHICLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "roadnet/grid_index.h"
#include "vehicle/vehicle.h"

namespace ptrider::vehicle {

/// One vehicle's next registration, precomputed from its state by
/// VehicleIndex::Prepare at commit time: which list kind it belongs to
/// and the sorted, deduplicated cells it must appear in. Applying a
/// PendingUpdate later — possibly shard-by-shard on different threads —
/// yields exactly the lists an immediate Update(v) would have produced,
/// which is what lets the movement commit and the batch dispatcher defer
/// re-registration out of their sequential sections (DESIGN.md
/// section 10).
struct PendingUpdate {
  VehicleId id = kInvalidVehicle;
  bool is_empty = true;
  /// Sorted unique cells of the next registration.
  std::vector<roadnet::CellId> cells;
};

/// Grid-cell vehicle lists (Fig. 1(b), lists (iv) and (v)): per cell, the
/// empty vehicles located in it and the non-empty vehicles whose trip
/// schedules touch it.
///
/// An empty vehicle is registered in the single cell of its current
/// location. A non-empty vehicle is registered in the cells of its current
/// location and of every stop in its kinetic tree — exactly the locations
/// a new pick-up can be inserted after, which is what makes single-side
/// search's cell-by-cell termination bound sound (DESIGN.md section 4.3).
/// The paper additionally registers cells crossed by schedule edges; that
/// superset only affects when a vehicle is first examined, not which
/// options exist, and is omitted here.
///
/// The index is sharded by grid region: cells are partitioned into
/// `num_shards` contiguous ranges, and all mutable state (registration
/// records, position handles, the per-cell lists themselves) is owned by
/// exactly one shard. ApplyShard calls for DISTINCT shards touch disjoint
/// state and may run concurrently; calls within one shard must be
/// serialized and issued in the same update order on every shard, which
/// makes the resulting lists bit-identical for every shard count
/// (DESIGN.md section 10). Removal is O(1) per cell via per-entry
/// position handles (swap-with-back plus a handle fix for the moved
/// entry) instead of a linear scan.
class VehicleIndex {
 public:
  /// `num_shards` contiguous cell-range shards, clamped to
  /// [1, NumCells()]. Every shard count produces identical lists; > 1
  /// only enables concurrent ApplyShard application.
  explicit VehicleIndex(const roadnet::GridIndex& grid,
                        size_t num_shards = 1);

  /// (Re-)registers `v` according to its current state. Idempotent.
  void Update(const Vehicle& v);
  /// Removes `v` from all lists (e.g. vehicle goes offline).
  void Remove(VehicleId id);

  // --- Deferred (shard-parallel) updates -----------------------------------
  /// Computes `v`'s next registration without touching index state. The
  /// result stays valid regardless of later index mutations; it captures
  /// the vehicle's state at call time.
  PendingUpdate Prepare(const Vehicle& v) const;

  /// Applies a batch of prepared updates sequentially, in order.
  /// Equivalent to calling BeginBatch(pending) followed by
  /// ApplyShard(u, s) for every update x shard.
  void ApplyBatch(std::span<const PendingUpdate> pending);

  /// Sequential bookkeeping for a batch about to be applied via
  /// ApplyShard: registration presence and the update counter. Call once
  /// per batch, before any ApplyShard of it. Touches only registered_ /
  /// num_registered_ / update_count_ — state no ApplyShard reads — so
  /// the pipelined tick engine may run it concurrently with a PREVIOUS
  /// batch's still-in-flight ApplyShard calls (DESIGN.md section 15).
  void BeginBatch(std::span<const PendingUpdate> pending);

  /// Applies the part of `u` owned by `shard`: diffs the vehicle's old
  /// in-shard registration against u's in-shard cells, removing, adding
  /// or keeping entries (kept entries keep their list positions). An
  /// update whose kind and in-shard cells are unchanged returns before
  /// touching anything — the diff would keep every entry in place. Never
  /// hashes, and allocates only while a shard's arrays are still growing.
  /// Thread-safe across DISTINCT shards; within a shard, calls must be
  /// serialized and ordered like the sequential reference.
  void ApplyShard(const PendingUpdate& u, uint32_t shard);

  // --- Lists (Fig. 1(b) lists (iv) and (v)) --------------------------------
  const std::vector<VehicleId>& EmptyVehicles(roadnet::CellId c) const {
    return empty_lists_[static_cast<size_t>(c)];
  }
  const std::vector<VehicleId>& NonEmptyVehicles(roadnet::CellId c) const {
    return non_empty_lists_[static_cast<size_t>(c)];
  }

  /// Cells `v` is currently registered in, ascending (empty when
  /// unregistered).
  std::vector<roadnet::CellId> RegisteredCells(VehicleId id) const;

  const roadnet::GridIndex& grid() const { return *grid_; }

  /// Shard owning cell `c`. Non-decreasing in `c` (shards are contiguous
  /// cell ranges), so a sorted cell list splits into per-shard runs.
  uint32_t ShardOfCell(roadnet::CellId c) const {
    return shard_of_cell_[static_cast<size_t>(c)];
  }
  size_t num_shards() const { return shards_.size(); }

  // --- Density-based shard load-balancing ----------------------------------
  /// Recomputes the contiguous shard boundaries so each shard owns
  /// roughly the same registration weight (per-cell list sizes, plus one
  /// so empty regions keep nonzero width), then re-buckets existing
  /// per-shard registrations under the new ownership. The per-cell lists
  /// and every position handle are untouched — only which shard OWNS
  /// each (vehicle, cell-run) slice changes — so a rebalance is
  /// invisible to readers and to the report (the sharded==unsharded
  /// list-identity regression in tests/vehicle_index_test.cpp pins
  /// this). Sequential-only: must not overlap any ApplyShard.
  void Rebalance();
  /// Batch-boundary hook: counts reindex batches and triggers
  /// Rebalance() every kRebalanceInterval-th one. Called from
  /// dispatch::ApplyReindex (and the simulator's floated-reindex join),
  /// NOT from Update/ApplyBatch — per-update callers (e.g. the E11
  /// bench) never pay for rebalances they didn't ask for.
  void MaybeRebalance();
  /// Reindex batches MaybeRebalance has observed.
  uint64_t reindex_batches() const { return reindex_batches_; }
  /// Times Rebalance() ran (the constructor's initial split included).
  /// Readers caching cell->shard decisions (the pipelined tick engine's
  /// float masks) compare this to detect moved boundaries.
  uint64_t rebalance_count() const { return rebalances_; }

  /// Total number of Update/Remove operations applied (experiment E11).
  uint64_t update_count() const { return update_count_; }
  /// Number of registered vehicles.
  size_t size() const { return num_registered_; }

 private:
  /// One list entry of a registration: the cell, and the index of the
  /// vehicle's entry in that cell's list — the O(1) unregister handle.
  struct Entry {
    roadnet::CellId cell;
    uint32_t pos;
  };
  /// Per-shard slice of one vehicle's registration: its in-shard
  /// entries, sorted by cell. A lone entry — an empty vehicle's whole
  /// registration — is stored inline, so the common update reads no heap
  /// block beyond the record; longer runs live in `spill`.
  struct ShardRegistration {
    bool is_empty = true;
    uint32_t size = 0;
    Entry single{};
    std::vector<Entry> spill;  // the entries iff size > 1

    std::span<Entry> entries() {
      return size == 1 ? std::span<Entry>(&single, 1)
                       : std::span<Entry>(spill);
    }
    std::span<const Entry> entries() const {
      return const_cast<ShardRegistration*>(this)->entries();
    }
    /// Installs `next` as the entries. `next` receives the old spill
    /// storage, so neither side allocates once capacities have grown.
    void Assign(std::vector<Entry>& next);
  };
  /// One shard's registrations: `slot[id]` names the vehicle's record in
  /// `pool` (kNoRecord: no cell in this shard). Released records go on
  /// `free` with their capacity kept, and ApplyShard builds the next
  /// registration in the `next` scratch and swaps it into the record, so
  /// a steady-state update allocates nothing. All of it belongs to this
  /// shard alone (cache-line aligned, so neighbouring shards do not even
  /// share lines): ApplyShard calls on different shards touch disjoint
  /// memory.
  struct alignas(64) Shard {
    std::vector<uint32_t> slot;
    std::vector<ShardRegistration> pool;
    std::vector<uint32_t> free;
    std::vector<Entry> next;

    /// `id`'s record in this shard, or null.
    ShardRegistration* Find(VehicleId id) {
      const auto i = static_cast<size_t>(id);
      return i < slot.size() && slot[i] != kNoRecord ? &pool[slot[i]]
                                                     : nullptr;
    }
    const ShardRegistration* Find(VehicleId id) const {
      return const_cast<Shard*>(this)->Find(id);
    }
    /// A record for `id`, which must have none here; it has no entries.
    /// May grow `pool`, invalidating record pointers.
    ShardRegistration& Acquire(VehicleId id);
    /// Returns `id`'s record to the free list.
    void Release(VehicleId id);
  };
  static constexpr uint32_t kNoRecord = UINT32_MAX;

  /// Swap-with-back removal of `id` at `pos` in `cell`'s list, fixing
  /// the moved entry's handle (the moved vehicle is registered in the
  /// same shard — cells never change shards).
  void RemoveEntry(std::vector<std::vector<VehicleId>>& lists,
                   roadnet::CellId cell, uint32_t pos, uint32_t shard);
  uint32_t AppendEntry(std::vector<std::vector<VehicleId>>& lists,
                       roadnet::CellId cell, VehicleId id);

  /// Rebalance cadence, in reindex batches (a city-scale day runs a few
  /// thousand batches, so boundaries track demand drift at ~minute
  /// granularity without rebalance cost showing up in profiles).
  static constexpr uint64_t kRebalanceInterval = 64;

  const roadnet::GridIndex* grid_;
  std::vector<uint32_t> shard_of_cell_;
  std::vector<std::vector<VehicleId>> empty_lists_;
  std::vector<std::vector<VehicleId>> non_empty_lists_;
  std::vector<Shard> shards_;
  /// Shard-ownership tokens, one per shard: ApplyShard claims its
  /// shard's token (exchange 0 -> 1, acquire) on entry and releases it
  /// (store 0, release) on every exit, asserting the claim found the
  /// token free. Two ApplyShard calls on DISTINCT shards therefore
  /// concurrently hold distinct tokens — the checkable form of the
  /// disjoint-shard commit rule the pipelined tick engine relies on
  /// (DESIGN.md section 15); a same-shard overlap trips the assert in
  /// debug builds and the TSan CI jobs.
  std::unique_ptr<std::atomic<uint32_t>[]> shard_owner_;
  uint64_t reindex_batches_ = 0;
  uint64_t rebalances_ = 0;
  /// Presence bitmap + count (ids are dense per Fleet). Mutated only in
  /// the sequential entry points (BeginBatch / Remove).
  std::vector<char> registered_;
  size_t num_registered_ = 0;
  uint64_t update_count_ = 0;
};

}  // namespace ptrider::vehicle

#endif  // PTRIDER_VEHICLE_VEHICLE_INDEX_H_
