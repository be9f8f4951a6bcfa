#include "vehicle/vehicle_index.h"

#include <algorithm>
#include <cassert>

namespace ptrider::vehicle {

VehicleIndex::VehicleIndex(const roadnet::GridIndex& grid,
                           size_t num_shards)
    : grid_(&grid) {
  const size_t cells = static_cast<size_t>(grid.NumCells());
  const size_t shards = std::clamp<size_t>(num_shards, 1, cells);
  empty_lists_.assign(cells, {});
  non_empty_lists_.assign(cells, {});
  shards_.resize(shards);
  shard_owner_.reset(new std::atomic<uint32_t>[shards]);
  for (size_t s = 0; s < shards; ++s) {
    shard_owner_[s].store(0, std::memory_order_relaxed);
  }
  shard_of_cell_.resize(cells);
  // With no registrations every cell weighs 1, so the initial
  // density-based split degenerates to the uniform cell-count split
  // shard(c) = c * S / cells (consecutive cell ids are geometric row
  // neighbors).
  Rebalance();
}

void VehicleIndex::Rebalance() {
  ++rebalances_;
  const size_t cells = shard_of_cell_.size();
  const size_t shards = shards_.size();
  if (shards <= 1) {
    std::fill(shard_of_cell_.begin(), shard_of_cell_.end(), 0u);
    return;
  }
  // Cell weight = current registration load (+1 so empty regions keep
  // nonzero width and every shard owns at least the cells the uniform
  // split would give it when the grid is empty). Boundaries place each
  // cell by its exclusive weight prefix, which keeps shards contiguous
  // and non-decreasing in c — the invariant ShardOfCell readers and the
  // sorted-run split in ApplyShard rely on.
  uint64_t total = 0;
  for (size_t c = 0; c < cells; ++c) {
    total += empty_lists_[c].size() + non_empty_lists_[c].size() + 1;
  }
  uint64_t prefix = 0;
  for (size_t c = 0; c < cells; ++c) {
    shard_of_cell_[c] = static_cast<uint32_t>(
        std::min<uint64_t>(shards - 1, prefix * shards / total));
    prefix += empty_lists_[c].size() + non_empty_lists_[c].size() + 1;
  }
  // Re-bucket registrations under the new ownership. The per-cell lists
  // and position handles are never touched: each vehicle's full sorted
  // registration is gathered from the old shards (ascending contiguous
  // ranges, so shard-order concatenation stays sorted), its records are
  // released, and it is re-split into runs along the new boundaries.
  // Iterating the id-dense presence bitmap keeps the walk, and so every
  // shard's free-list order, deterministic.
  struct Gathered {
    VehicleId id;
    bool is_empty;
    size_t begin;
    size_t end;
  };
  std::vector<Gathered> gathered;
  std::vector<Entry> entries;
  for (size_t slot = 0; slot < registered_.size(); ++slot) {
    if (!registered_[slot]) continue;
    Gathered g{static_cast<VehicleId>(slot), true, entries.size(), 0};
    for (Shard& sh : shards_) {
      const ShardRegistration* reg = sh.Find(g.id);
      if (reg == nullptr) continue;
      g.is_empty = reg->is_empty;
      const std::span<const Entry> run = reg->entries();
      entries.insert(entries.end(), run.begin(), run.end());
      sh.Release(g.id);
    }
    g.end = entries.size();
    gathered.push_back(g);
  }
  std::vector<Entry> part;
  for (const Gathered& g : gathered) {
    size_t i = g.begin;
    while (i < g.end) {
      const uint32_t s = ShardOfCell(entries[i].cell);
      size_t j = i;
      while (j < g.end && ShardOfCell(entries[j].cell) == s) ++j;
      ShardRegistration& reg = shards_[s].Acquire(g.id);
      reg.is_empty = g.is_empty;
      part.assign(entries.begin() + static_cast<ptrdiff_t>(i),
                  entries.begin() + static_cast<ptrdiff_t>(j));
      reg.Assign(part);
      i = j;
    }
  }
}

void VehicleIndex::ShardRegistration::Assign(std::vector<Entry>& next) {
  size = static_cast<uint32_t>(next.size());
  if (size == 1) {
    single = next.front();
    spill.clear();
  } else {
    spill.swap(next);
  }
}

VehicleIndex::ShardRegistration& VehicleIndex::Shard::Acquire(VehicleId id) {
  const auto i = static_cast<size_t>(id);
  if (i >= slot.size()) slot.resize(i + 1, kNoRecord);
  assert(slot[i] == kNoRecord);
  if (free.empty()) {
    slot[i] = static_cast<uint32_t>(pool.size());
    pool.emplace_back();
  } else {
    slot[i] = free.back();
    free.pop_back();
  }
  return pool[slot[i]];
}

void VehicleIndex::Shard::Release(VehicleId id) {
  const auto i = static_cast<size_t>(id);
  ShardRegistration& reg = pool[slot[i]];
  reg.size = 0;
  reg.spill.clear();  // capacity kept for the record's next owner
  free.push_back(slot[i]);
  slot[i] = kNoRecord;
}

void VehicleIndex::MaybeRebalance() {
  if (++reindex_batches_ % kRebalanceInterval == 0) Rebalance();
}

void VehicleIndex::Update(const Vehicle& v) {
  const PendingUpdate u = Prepare(v);
  ApplyBatch({&u, 1});
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

void VehicleIndex::BeginBatch(std::span<const PendingUpdate> pending) {
  for (const PendingUpdate& u : pending) {
    ++update_count_;
    const size_t slot = static_cast<size_t>(u.id);
    if (slot >= registered_.size()) registered_.resize(slot + 1, 0);
    if (!registered_[slot]) {
      registered_[slot] = 1;
      ++num_registered_;
    }
  }
}

void VehicleIndex::ApplyBatch(std::span<const PendingUpdate> pending) {
  BeginBatch(pending);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    for (const PendingUpdate& u : pending) ApplyShard(u, s);
  }
}

uint32_t VehicleIndex::AppendEntry(
    std::vector<std::vector<VehicleId>>& lists, roadnet::CellId cell,
    VehicleId id) {
  std::vector<VehicleId>& list = lists[static_cast<size_t>(cell)];
  list.push_back(id);
  return static_cast<uint32_t>(list.size() - 1);
}

void VehicleIndex::RemoveEntry(std::vector<std::vector<VehicleId>>& lists,
                               roadnet::CellId cell, uint32_t pos,
                               uint32_t shard) {
  std::vector<VehicleId>& list = lists[static_cast<size_t>(cell)];
  assert(pos < list.size());
  const VehicleId moved = list.back();
  list[pos] = moved;
  list.pop_back();
  if (static_cast<size_t>(pos) < list.size()) {
    // Fix the moved entry's handle. Its owner is registered in this very
    // shard (the entry lives in a cell this shard owns), so no
    // cross-shard state is touched.
    ShardRegistration* mr = shards_[shard].Find(moved);
    assert(mr != nullptr);
    const std::span<Entry> run = mr->entries();
    const auto it = std::ranges::lower_bound(run, cell, {}, &Entry::cell);
    assert(it != run.end() && it->cell == cell);
    it->pos = pos;
  }
}

void VehicleIndex::ApplyShard(const PendingUpdate& u, uint32_t shard) {
  // Shard-ownership token (see the member doc): claimed for the whole
  // call, released on every exit path.
  struct OwnerToken {
    std::atomic<uint32_t>& owner;
    explicit OwnerToken(std::atomic<uint32_t>& o) : owner(o) {
      const uint32_t prev = owner.exchange(1, std::memory_order_acquire);
      assert(prev == 0 && "concurrent ApplyShard calls on one shard");
      (void)prev;
    }
    ~OwnerToken() { owner.store(0, std::memory_order_release); }
  } token(shard_owner_[shard]);

  Shard& sh = shards_[shard];
  // In-shard slice of the new cells: shards are contiguous cell ranges
  // and u.cells is sorted, so it is one contiguous run.
  size_t first = 0;
  while (first < u.cells.size() && ShardOfCell(u.cells[first]) < shard) {
    ++first;
  }
  size_t last = first;
  while (last < u.cells.size() && ShardOfCell(u.cells[last]) == shard) {
    ++last;
  }

  const std::span<const roadnet::CellId> cells(u.cells.data() + first,
                                               last - first);
  std::vector<Entry>& next = sh.next;
  next.clear();
  ShardRegistration* old = sh.Find(u.id);
  if (old == nullptr) {
    if (cells.empty()) return;  // shard untouched
    auto& lists = u.is_empty ? empty_lists_ : non_empty_lists_;
    for (const roadnet::CellId c : cells) {
      next.push_back({c, AppendEntry(lists, c, u.id)});
    }
    ShardRegistration& reg = sh.Acquire(u.id);
    reg.is_empty = u.is_empty;
    reg.Assign(next);
    return;
  }
  const std::span<const Entry> prev = old->entries();
  const bool kind_changed = old->is_empty != u.is_empty;
  if (!kind_changed && std::ranges::equal(prev, cells, {}, &Entry::cell)) {
    // Same kind, same cells: the merge below would keep every entry at
    // its position, so returning leaves identical lists.
    return;
  }
  auto& old_lists = old->is_empty ? empty_lists_ : non_empty_lists_;
  auto& new_lists = u.is_empty ? empty_lists_ : non_empty_lists_;

  // Merge-walk the sorted old entries and new in-shard cells into the
  // shard's scratch: entries only in the old registration are removed,
  // only in the new one appended, and unchanged ones keep their list
  // position (unless the vehicle switched list kinds, which moves every
  // entry). RemoveEntry fixes other vehicles' records only — this
  // vehicle has one entry per list — and nothing here grows the pool, so
  // `old` and `prev` stay valid throughout.
  size_t i = 0;
  size_t j = 0;
  while (i < prev.size() || j < cells.size()) {
    if (j == cells.size() ||
        (i < prev.size() && prev[i].cell < cells[j])) {
      RemoveEntry(old_lists, prev[i].cell, prev[i].pos, shard);
      ++i;
    } else if (i == prev.size() || cells[j] < prev[i].cell) {
      next.push_back({cells[j], AppendEntry(new_lists, cells[j], u.id)});
      ++j;
    } else {
      if (kind_changed) {
        RemoveEntry(old_lists, prev[i].cell, prev[i].pos, shard);
        next.push_back({cells[j], AppendEntry(new_lists, cells[j], u.id)});
      } else {
        next.push_back(prev[i]);
      }
      ++i;
      ++j;
    }
  }

  old->is_empty = u.is_empty;
  old->Assign(next);
  if (old->size == 0) sh.Release(u.id);
}

void VehicleIndex::Remove(VehicleId id) {
  ++update_count_;
  const size_t slot = static_cast<size_t>(id);
  if (slot >= registered_.size() || !registered_[slot]) return;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = shards_[s];
    const ShardRegistration* reg = sh.Find(id);
    if (reg == nullptr) continue;
    auto& lists = reg->is_empty ? empty_lists_ : non_empty_lists_;
    for (const Entry& e : reg->entries()) {
      RemoveEntry(lists, e.cell, e.pos, s);
    }
    sh.Release(id);
  }
  registered_[slot] = 0;
  --num_registered_;
}

std::vector<roadnet::CellId> VehicleIndex::RegisteredCells(
    VehicleId id) const {
  std::vector<roadnet::CellId> cells;
  // Shards own ascending contiguous cell ranges, so concatenating the
  // per-shard sorted runs in shard order keeps the result sorted.
  for (const Shard& sh : shards_) {
    const ShardRegistration* reg = sh.Find(id);
    if (reg == nullptr) continue;
    for (const Entry& e : reg->entries()) cells.push_back(e.cell);
  }
  return cells;
}

}  // namespace ptrider::vehicle
