#ifndef PTRIDER_VEHICLE_VEHICLE_INDEX_H_
#define PTRIDER_VEHICLE_VEHICLE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "roadnet/grid_index.h"
#include "vehicle/vehicle.h"

namespace ptrider::vehicle {

/// One vehicle's next registration, computed from its state by
/// VehicleIndex::Prepare: which list kind it belongs to and the sorted,
/// deduplicated cells it must appear in. Update(v) applies Prepare(v).
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
/// One registration table, updated in place (DESIGN.md section 10):
/// each registered vehicle owns a record of (cell, list position)
/// entries, so leaving a cell is O(1) (swap-with-back plus a handle fix
/// for the moved entry) instead of a linear scan. Once registered, a
/// vehicle stays registered. Not thread-safe: readers may run
/// concurrently with each other, never with a mutation.
class VehicleIndex {
 public:
  explicit VehicleIndex(const roadnet::GridIndex& grid);

  /// (Re-)registers `v` according to its current state. Idempotent: an
  /// update whose kind and cells are unchanged leaves every list as it
  /// was (and still counts in update_count()).
  void Update(const Vehicle& v);

  /// Computes `v`'s next registration without touching index state.
  PendingUpdate Prepare(const Vehicle& v) const;

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

  /// Always 0: the index is one table and never rebalances. Remains only
  /// because bench/ptrider_bench reports it.
  uint64_t rebalance_count() const { return 0; }

  /// Total number of Update calls (experiment E11).
  uint64_t update_count() const { return update_count_; }
  /// Number of registered vehicles.
  size_t size() const { return registered_; }

 private:
  /// One list entry of a registration: the cell, and the index of the
  /// vehicle's entry in that cell's list — the O(1) unregister handle.
  struct Entry {
    roadnet::CellId cell;
    uint32_t pos;
  };
  /// One vehicle's registration: its entries, sorted by cell. A lone
  /// entry — an empty vehicle's whole registration — is stored inline,
  /// so the common update reads no heap block beyond the record; longer
  /// registrations live in `spill`.
  struct Registration {
    bool is_empty = true;
    uint32_t size = 0;
    Entry single{};
    std::vector<Entry> spill;  // the entries iff size > 1

    std::span<Entry> entries() {
      return size == 1 ? std::span<Entry>(&single, 1)
                       : std::span<Entry>(spill);
    }
    std::span<const Entry> entries() const {
      return const_cast<Registration*>(this)->entries();
    }
    /// Installs `next` as the entries. `next` receives the old spill
    /// storage, so neither side allocates once capacities have grown.
    void Assign(std::vector<Entry>& next);
  };

  /// Applies `u` (a Prepare result, so `u.cells` is never empty): diffs
  /// the vehicle's old registration against u's cells, removing, adding
  /// or keeping entries (kept entries keep their list positions).
  void Apply(const PendingUpdate& u);

  /// `id`'s record, or null when `id` is not registered (a registration
  /// always has an entry).
  Registration* Find(VehicleId id) {
    const auto i = static_cast<size_t>(id);
    return i < records_.size() && records_[i].size > 0 ? &records_[i]
                                                       : nullptr;
  }
  const Registration* Find(VehicleId id) const {
    return const_cast<VehicleIndex*>(this)->Find(id);
  }

  std::vector<std::vector<VehicleId>>& Lists(bool is_empty) {
    return is_empty ? empty_lists_ : non_empty_lists_;
  }
  /// Swap-with-back removal of the entry at `pos` in `cell`'s list,
  /// fixing the moved entry's handle.
  void RemoveEntry(std::vector<std::vector<VehicleId>>& lists,
                   roadnet::CellId cell, uint32_t pos);
  static uint32_t AppendEntry(std::vector<std::vector<VehicleId>>& lists,
                              roadnet::CellId cell, VehicleId id);

  const roadnet::GridIndex* grid_;
  std::vector<std::vector<VehicleId>> empty_lists_;
  std::vector<std::vector<VehicleId>> non_empty_lists_;
  /// `records_[id]` is vehicle `id`'s registration (ids are dense).
  /// Apply builds the next registration in the `next_` scratch and swaps
  /// it into the record, so a steady-state update allocates nothing
  /// beyond Prepare's cell vector.
  std::vector<Registration> records_;
  std::vector<Entry> next_;
  size_t registered_ = 0;
  uint64_t update_count_ = 0;
};

}  // namespace ptrider::vehicle

#endif  // PTRIDER_VEHICLE_VEHICLE_INDEX_H_
