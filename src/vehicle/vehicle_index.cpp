#include "vehicle/vehicle_index.h"

#include <algorithm>
#include <cassert>

namespace ptrider::vehicle {

VehicleIndex::VehicleIndex(const roadnet::GridIndex& grid)
    : grid_(&grid),
      empty_lists_(static_cast<size_t>(grid.NumCells())),
      non_empty_lists_(static_cast<size_t>(grid.NumCells())) {}

void VehicleIndex::Registration::Assign(std::vector<Entry>& next) {
  size = static_cast<uint32_t>(next.size());
  if (size == 1) {
    single = next.front();
    spill.clear();
  } else {
    spill.swap(next);
  }
}

void VehicleIndex::Update(const Vehicle& v) {
  ++update_count_;
  Apply(Prepare(v));
}

PendingUpdate VehicleIndex::Prepare(const Vehicle& v) const {
  PendingUpdate u;
  u.id = v.id();
  u.is_empty = v.IsEmpty();
  u.cells.push_back(grid_->CellOfVertex(v.location()));
  if (!u.is_empty) {
    for (const Branch& b : v.tree().branches()) {
      for (const Stop& s : b.stops) {
        u.cells.push_back(grid_->CellOfVertex(s.location));
      }
    }
    std::sort(u.cells.begin(), u.cells.end());
    u.cells.erase(std::unique(u.cells.begin(), u.cells.end()),
                  u.cells.end());
  }
  return u;
}

uint32_t VehicleIndex::AppendEntry(
    std::vector<std::vector<VehicleId>>& lists, roadnet::CellId cell,
    VehicleId id) {
  std::vector<VehicleId>& list = lists[static_cast<size_t>(cell)];
  list.push_back(id);
  return static_cast<uint32_t>(list.size() - 1);
}

void VehicleIndex::RemoveEntry(std::vector<std::vector<VehicleId>>& lists,
                               roadnet::CellId cell, uint32_t pos) {
  std::vector<VehicleId>& list = lists[static_cast<size_t>(cell)];
  assert(pos < list.size());
  const VehicleId moved = list.back();
  list[pos] = moved;
  list.pop_back();
  if (static_cast<size_t>(pos) < list.size()) {
    Registration* mr = Find(moved);
    assert(mr != nullptr);
    const std::span<Entry> entries = mr->entries();
    const auto it =
        std::ranges::lower_bound(entries, cell, {}, &Entry::cell);
    assert(it != entries.end() && it->cell == cell);
    it->pos = pos;
  }
}

void VehicleIndex::Apply(const PendingUpdate& u) {
  assert(!u.cells.empty());
  const std::vector<roadnet::CellId>& cells = u.cells;
  next_.clear();
  Registration* old = Find(u.id);
  if (old == nullptr) {
    // A first registration: the only path that grows records_, and it
    // holds no record pointer across the growth.
    auto& lists = Lists(u.is_empty);
    for (const roadnet::CellId c : cells) {
      next_.push_back({c, AppendEntry(lists, c, u.id)});
    }
    const auto i = static_cast<size_t>(u.id);
    if (i >= records_.size()) records_.resize(i + 1);
    records_[i].is_empty = u.is_empty;
    records_[i].Assign(next_);
    ++registered_;
    return;
  }
  const std::span<const Entry> prev = old->entries();
  const bool kind_changed = old->is_empty != u.is_empty;
  if (!kind_changed && std::ranges::equal(prev, cells, {}, &Entry::cell)) {
    // Same kind, same cells: the merge below would keep every entry at
    // its position, so returning leaves identical lists.
    return;
  }
  auto& old_lists = Lists(old->is_empty);
  auto& new_lists = Lists(u.is_empty);

  // Merge-walk the sorted old entries and new cells into the scratch:
  // entries only in the old registration are removed, only in the new
  // one appended, and unchanged ones keep their list position (unless
  // the vehicle switched list kinds, which moves every entry).
  // RemoveEntry fixes other vehicles' records only — this vehicle has
  // one entry per list — and nothing here grows records_, so `old` and
  // `prev` stay valid throughout.
  size_t i = 0;
  size_t j = 0;
  while (i < prev.size() || j < cells.size()) {
    if (j == cells.size() ||
        (i < prev.size() && prev[i].cell < cells[j])) {
      RemoveEntry(old_lists, prev[i].cell, prev[i].pos);
      ++i;
    } else if (i == prev.size() || cells[j] < prev[i].cell) {
      next_.push_back({cells[j], AppendEntry(new_lists, cells[j], u.id)});
      ++j;
    } else {
      if (kind_changed) {
        RemoveEntry(old_lists, prev[i].cell, prev[i].pos);
        next_.push_back(
            {cells[j], AppendEntry(new_lists, cells[j], u.id)});
      } else {
        next_.push_back(prev[i]);
      }
      ++i;
      ++j;
    }
  }
  old->is_empty = u.is_empty;
  old->Assign(next_);
}

std::vector<roadnet::CellId> VehicleIndex::RegisteredCells(
    VehicleId id) const {
  std::vector<roadnet::CellId> cells;
  if (const Registration* reg = Find(id)) {
    for (const Entry& e : reg->entries()) cells.push_back(e.cell);
  }
  return cells;
}

}  // namespace ptrider::vehicle
