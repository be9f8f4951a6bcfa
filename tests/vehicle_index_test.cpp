#include "vehicle/vehicle_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "core/distance_providers.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"
#include "util/random.h"

namespace ptrider::vehicle {
namespace {

class VehicleIndexTest : public ::testing::Test {
 protected:
  VehicleIndexTest()
      : ex_(roadnet::MakePaperExampleNetwork()), oracle_(ex_.graph) {
    roadnet::GridIndexOptions opts;
    opts.cells_x = 3;
    opts.cells_y = 3;
    auto grid = roadnet::GridIndex::Build(ex_.graph, opts);
    EXPECT_TRUE(grid.ok());
    grid_ = std::make_unique<roadnet::GridIndex>(std::move(grid).value());
    index_ = std::make_unique<VehicleIndex>(*grid_);
  }

  bool InList(const std::vector<VehicleId>& list, VehicleId id) {
    return std::find(list.begin(), list.end(), id) != list.end();
  }

  roadnet::PaperExampleNetwork ex_;
  roadnet::DistanceOracle oracle_;
  std::unique_ptr<roadnet::GridIndex> grid_;
  std::unique_ptr<VehicleIndex> index_;
};

TEST_F(VehicleIndexTest, EmptyVehicleRegisteredInLocationCell) {
  Vehicle v(0, ex_.v(13), 3);
  index_->Update(v);
  const roadnet::CellId cell = grid_->CellOfVertex(ex_.v(13));
  EXPECT_TRUE(InList(index_->EmptyVehicles(cell), 0));
  EXPECT_FALSE(InList(index_->NonEmptyVehicles(cell), 0));
  EXPECT_EQ(index_->RegisteredCells(0),
            (std::vector<roadnet::CellId>{cell}));
  EXPECT_EQ(index_->size(), 1u);
}

TEST_F(VehicleIndexTest, NonEmptyVehicleCoversStopCells) {
  Vehicle v(1, ex_.v(1), 4);
  core::ExactDistanceProvider dist(oracle_);
  Request r;
  r.id = 1;
  r.start = ex_.v(2);
  r.destination = ex_.v(16);
  r.num_riders = 2;
  r.max_wait_s = 5.0;
  r.service_sigma = 0.2;
  ASSERT_TRUE(v.mutable_tree()
                  .CommitInsert(r, 6.0, 0.0, {0.0, 1.0}, dist)
                  .ok());
  index_->Update(v);

  const roadnet::CellId loc_cell = grid_->CellOfVertex(ex_.v(1));
  const roadnet::CellId pickup_cell = grid_->CellOfVertex(ex_.v(2));
  const roadnet::CellId drop_cell = grid_->CellOfVertex(ex_.v(16));
  EXPECT_TRUE(InList(index_->NonEmptyVehicles(loc_cell), 1));
  EXPECT_TRUE(InList(index_->NonEmptyVehicles(pickup_cell), 1));
  EXPECT_TRUE(InList(index_->NonEmptyVehicles(drop_cell), 1));
  EXPECT_FALSE(InList(index_->EmptyVehicles(loc_cell), 1));
  // Registered cells are sorted and unique.
  const auto cells = index_->RegisteredCells(1);
  EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
  EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end());
}

TEST_F(VehicleIndexTest, UpdateMovesBetweenLists) {
  Vehicle v(2, ex_.v(13), 4);
  index_->Update(v);
  const roadnet::CellId old_cell = grid_->CellOfVertex(ex_.v(13));
  ASSERT_TRUE(InList(index_->EmptyVehicles(old_cell), 2));

  // Vehicle becomes non-empty: moves to the non-empty lists.
  core::ExactDistanceProvider dist(oracle_);
  Request r;
  r.id = 9;
  r.start = ex_.v(12);
  r.destination = ex_.v(17);
  r.num_riders = 1;
  r.max_wait_s = 100.0;
  r.service_sigma = 0.5;
  ASSERT_TRUE(v.mutable_tree()
                  .CommitInsert(r, 8.0, 0.0, {0.0, 1.0}, dist)
                  .ok());
  index_->Update(v);
  EXPECT_FALSE(InList(index_->EmptyVehicles(old_cell), 2));
  EXPECT_TRUE(InList(index_->NonEmptyVehicles(old_cell), 2));

  // Remove drops it everywhere.
  index_->Remove(2);
  EXPECT_FALSE(InList(index_->NonEmptyVehicles(old_cell), 2));
  EXPECT_TRUE(index_->RegisteredCells(2).empty());
  EXPECT_EQ(index_->size(), 0u);
}

TEST_F(VehicleIndexTest, UpdateIsIdempotent) {
  Vehicle v(3, ex_.v(5), 3);
  index_->Update(v);
  index_->Update(v);
  index_->Update(v);
  const roadnet::CellId cell = grid_->CellOfVertex(ex_.v(5));
  // Registered once despite repeated updates.
  EXPECT_EQ(std::count(index_->EmptyVehicles(cell).begin(),
                       index_->EmptyVehicles(cell).end(), 3),
            1);
  EXPECT_EQ(index_->update_count(), 3u);
}

TEST_F(VehicleIndexTest, RemoveUnknownIsNoop) {
  index_->Remove(77);
  EXPECT_EQ(index_->size(), 0u);
}

TEST_F(VehicleIndexTest, ShardMappingIsContiguousAndCoversAllShards) {
  VehicleIndex sharded(*grid_, 4);
  EXPECT_EQ(sharded.num_shards(), 4u);
  uint32_t prev = 0;
  std::vector<char> hit(4, 0);
  for (roadnet::CellId c = 0; c < grid_->NumCells(); ++c) {
    const uint32_t s = sharded.ShardOfCell(c);
    ASSERT_LT(s, 4u);
    EXPECT_GE(s, prev);  // contiguous ranges: non-decreasing in cell id
    prev = s;
    hit[s] = 1;
  }
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 4);
  // Shard counts beyond the cell count clamp instead of exploding.
  VehicleIndex tiny(*grid_, 10000);
  EXPECT_LE(tiny.num_shards(), static_cast<size_t>(grid_->NumCells()));
}

// --- Churn under Update/Remove interleavings --------------------------------
//
// The registration <-> list consistency invariant, plus the sharding
// headline: every shard count produces bit-identical lists for the same
// operation sequence (the per-cell operation order is shard-independent,
// DESIGN.md section 10). Exercised over random fleets of teleporting,
// committing, vanishing, re-registered and unchanged re-submitted
// vehicles across several seeds — and every index must equal a plain
// per-cell reference model element for element, so an optimization that
// reorders a list (say, a wrong early return) fails even when all shard
// counts agree with each other.

/// The list semantics spelled out with nothing but vectors: removal is
/// swap-with-back at the entry's position, a new cell appends, and a kept
/// entry (same cell, same list kind) stays where it is.
class ReferenceLists {
 public:
  explicit ReferenceLists(size_t cells)
      : empty_(cells), non_empty_(cells) {}

  void Update(const PendingUpdate& u) {
    const auto it = reg_.find(u.id);
    if (it != reg_.end()) {
      const Registration& old = it->second;
      const bool kind_changed = old.is_empty != u.is_empty;
      for (const roadnet::CellId c : old.cells) {
        if (kind_changed || !Contains(u.cells, c)) {
          Erase(Lists(old.is_empty)[static_cast<size_t>(c)], u.id);
        }
      }
      for (const roadnet::CellId c : u.cells) {
        if (kind_changed || !Contains(old.cells, c)) {
          Lists(u.is_empty)[static_cast<size_t>(c)].push_back(u.id);
        }
      }
    } else {
      for (const roadnet::CellId c : u.cells) {
        Lists(u.is_empty)[static_cast<size_t>(c)].push_back(u.id);
      }
    }
    reg_[u.id] = Registration{u.is_empty, u.cells};
  }

  void Remove(VehicleId id) {
    const auto it = reg_.find(id);
    if (it == reg_.end()) return;
    for (const roadnet::CellId c : it->second.cells) {
      Erase(Lists(it->second.is_empty)[static_cast<size_t>(c)], id);
    }
    reg_.erase(it);
  }

  const std::vector<VehicleId>& EmptyVehicles(roadnet::CellId c) const {
    return empty_[static_cast<size_t>(c)];
  }
  const std::vector<VehicleId>& NonEmptyVehicles(roadnet::CellId c) const {
    return non_empty_[static_cast<size_t>(c)];
  }

 private:
  struct Registration {
    bool is_empty = true;
    std::vector<roadnet::CellId> cells;
  };

  static bool Contains(const std::vector<roadnet::CellId>& cells,
                       roadnet::CellId c) {
    return std::find(cells.begin(), cells.end(), c) != cells.end();
  }
  static void Erase(std::vector<VehicleId>& list, VehicleId id) {
    const auto it = std::find(list.begin(), list.end(), id);
    ASSERT_NE(it, list.end());
    *it = list.back();
    list.pop_back();
  }
  std::vector<std::vector<VehicleId>>& Lists(bool is_empty) {
    return is_empty ? empty_ : non_empty_;
  }

  std::vector<std::vector<VehicleId>> empty_;
  std::vector<std::vector<VehicleId>> non_empty_;
  std::map<VehicleId, Registration> reg_;
};

class VehicleIndexChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VehicleIndexChurnTest, ConsistencyAndShardedEqualsUnsharded) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 10;
  gopts.cols = 10;
  gopts.seed = 31;
  auto g = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(g.ok());
  const roadnet::RoadNetwork graph = std::move(g).value();
  roadnet::GridIndexOptions grid_opts;
  grid_opts.cells_x = 6;
  grid_opts.cells_y = 6;
  auto grid = roadnet::GridIndex::Build(graph, grid_opts);
  ASSERT_TRUE(grid.ok());
  roadnet::DistanceOracle oracle(graph);
  core::ExactDistanceProvider dist(oracle);

  const std::vector<size_t> shard_counts = {1, 2, 4, 5};
  std::vector<VehicleIndex> indexes;
  indexes.reserve(shard_counts.size());
  for (const size_t s : shard_counts) indexes.emplace_back(*grid, s);
  ReferenceLists reference(static_cast<size_t>(grid->NumCells()));

  constexpr int kVehicles = 16;
  std::vector<std::optional<Vehicle>> fleet(kVehicles);
  const auto n_vertices =
      static_cast<int64_t>(graph.NumVertices()) - 1;
  util::Rng rng(GetParam());
  RequestId next_request = 1;

  // Invariant check of one index against the live fleet: every list
  // entry is backed by a registration, lists carry no duplicates or
  // stale ids, the list kind matches the vehicle's emptiness, and the
  // location cell is always covered.
  const auto check_consistency = [&](const VehicleIndex& index) {
    std::map<VehicleId, std::vector<roadnet::CellId>> seen_empty;
    std::map<VehicleId, std::vector<roadnet::CellId>> seen_non_empty;
    for (roadnet::CellId c = 0; c < grid->NumCells(); ++c) {
      for (const VehicleId id : index.EmptyVehicles(c)) {
        seen_empty[id].push_back(c);
      }
      for (const VehicleId id : index.NonEmptyVehicles(c)) {
        seen_non_empty[id].push_back(c);
      }
    }
    size_t registered = 0;
    for (VehicleId id = 0; id < kVehicles; ++id) {
      SCOPED_TRACE("vehicle " + std::to_string(id));
      std::vector<roadnet::CellId> cells = index.RegisteredCells(id);
      EXPECT_TRUE(std::is_sorted(cells.begin(), cells.end()));
      EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()),
                cells.end());
      if (!fleet[static_cast<size_t>(id)].has_value()) {
        EXPECT_TRUE(cells.empty());
        EXPECT_EQ(seen_empty.count(id), 0u);
        EXPECT_EQ(seen_non_empty.count(id), 0u);
        continue;
      }
      ++registered;
      const Vehicle& v = *fleet[static_cast<size_t>(id)];
      auto& mine = v.IsEmpty() ? seen_empty[id] : seen_non_empty[id];
      auto& other = v.IsEmpty() ? seen_non_empty : seen_empty;
      EXPECT_EQ(other.count(id), 0u) << "entry in the wrong list kind";
      std::sort(mine.begin(), mine.end());
      EXPECT_EQ(mine, cells) << "lists and registration disagree";
      EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(),
                                     grid->CellOfVertex(v.location())));
    }
    EXPECT_EQ(index.size(), registered);
  };

  // The sharded variants must mirror the unsharded reference exactly —
  // same entries in the same per-cell order.
  const auto check_shard_equality = [&] {
    for (size_t k = 1; k < indexes.size(); ++k) {
      SCOPED_TRACE("shards " + std::to_string(shard_counts[k]));
      for (roadnet::CellId c = 0; c < grid->NumCells(); ++c) {
        EXPECT_EQ(indexes[k].EmptyVehicles(c),
                  indexes[0].EmptyVehicles(c));
        EXPECT_EQ(indexes[k].NonEmptyVehicles(c),
                  indexes[0].NonEmptyVehicles(c));
      }
      EXPECT_EQ(indexes[k].size(), indexes[0].size());
      EXPECT_EQ(indexes[k].update_count(), indexes[0].update_count());
    }
  };

  // Every index, at every shard count, against the reference model.
  const auto check_reference = [&] {
    for (size_t k = 0; k < indexes.size(); ++k) {
      SCOPED_TRACE("shards " + std::to_string(shard_counts[k]));
      for (roadnet::CellId c = 0; c < grid->NumCells(); ++c) {
        ASSERT_EQ(indexes[k].EmptyVehicles(c), reference.EmptyVehicles(c))
            << "cell " << c;
        ASSERT_EQ(indexes[k].NonEmptyVehicles(c),
                  reference.NonEmptyVehicles(c))
            << "cell " << c;
      }
    }
  };

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto id =
        static_cast<VehicleId>(rng.UniformInt(0, kVehicles - 1));
    const int64_t op = rng.UniformInt(0, 11);
    Vehicle* v = fleet[static_cast<size_t>(id)].has_value()
                     ? &*fleet[static_cast<size_t>(id)]
                     : nullptr;
    if (op < 2) {
      for (VehicleIndex& index : indexes) index.Remove(id);
      reference.Remove(id);
      fleet[static_cast<size_t>(id)].reset();
    } else if (op >= 10 && v != nullptr) {
      if (op == 11) {
        // Remove and register again: the index must hand the vehicle a
        // record from its shards' free lists.
        for (VehicleIndex& index : indexes) index.Remove(id);
        reference.Remove(id);
      }
      // Register `v` again. After op 10 this re-submits an unchanged
      // registration: it still counts as an update, and must leave
      // every list exactly as it was.
      for (VehicleIndex& index : indexes) {
        const uint64_t before = index.update_count();
        index.Update(*v);
        EXPECT_EQ(index.update_count(), before + 1);
      }
      reference.Update(indexes[0].Prepare(*v));
    } else {
      if (op < 8 || v == nullptr) {
        // Teleport: fresh empty vehicle at a random vertex (also the
        // empty -> non-empty -> empty kind flips).
        fleet[static_cast<size_t>(id)].emplace(
            id, static_cast<roadnet::VertexId>(
                    rng.UniformInt(0, n_vertices)),
            4);
      } else if (v->tree().NumPendingRequests() < 3) {
        // Commit a request: the vehicle turns (or stays) non-empty and
        // registers its new stop cells.
        Request r;
        r.id = next_request++;
        r.start = static_cast<roadnet::VertexId>(
            rng.UniformInt(0, n_vertices));
        r.destination = static_cast<roadnet::VertexId>(
            rng.UniformInt(0, n_vertices));
        if (r.start == r.destination) continue;
        r.num_riders = 1;
        r.max_wait_s = 1e7;
        r.service_sigma = 20.0;
        const roadnet::Weight pd = dist.Exact(v->location(), r.start);
        ASSERT_NE(pd, roadnet::kInfWeight);
        ASSERT_TRUE(v->mutable_tree()
                        .CommitInsert(r, pd, 1.0, {0.0, 1.0}, dist)
                        .ok());
      }
      for (VehicleIndex& index : indexes) {
        index.Update(*fleet[static_cast<size_t>(id)]);
      }
      reference.Update(
          indexes[0].Prepare(*fleet[static_cast<size_t>(id)]));
    }
    check_reference();
    if (step % 40 == 0) {
      for (const VehicleIndex& index : indexes) check_consistency(index);
      check_shard_equality();
    }
  }
  for (const VehicleIndex& index : indexes) check_consistency(index);
  check_shard_equality();
}

INSTANTIATE_TEST_SUITE_P(Seeds, VehicleIndexChurnTest,
                         ::testing::Values<uint64_t>(7, 21, 1234));

TEST_F(VehicleIndexTest, DeferredApplyMatchesImmediateUpdate) {
  // Prepare-then-ApplyBatch is the deferred path the movement commit and
  // the dispatcher use; it must land exactly where Update would.
  VehicleIndex deferred(*grid_, 3);
  Vehicle a(0, ex_.v(13), 3);
  Vehicle b(1, ex_.v(5), 3);
  std::vector<PendingUpdate> pending;
  pending.push_back(deferred.Prepare(a));
  pending.push_back(deferred.Prepare(b));
  deferred.ApplyBatch(pending);

  index_->Update(a);
  index_->Update(b);
  for (roadnet::CellId c = 0; c < grid_->NumCells(); ++c) {
    EXPECT_EQ(deferred.EmptyVehicles(c), index_->EmptyVehicles(c));
    EXPECT_EQ(deferred.NonEmptyVehicles(c), index_->NonEmptyVehicles(c));
  }
  EXPECT_EQ(deferred.size(), 2u);
  EXPECT_EQ(deferred.update_count(), 2u);
}

// --- Density-based shard load-balancing -------------------------------------
//
// Rebalance() moves shard *ownership* boundaries toward equal
// registration load, but never touches the per-cell lists or position
// handles — so a rebalanced sharded index must stay entry-for-entry
// identical to an unsharded one, and the pipelined engine may rebalance
// on whatever cadence it likes without perturbing reports.

TEST(VehicleIndexRebalanceTest, DensityShiftsBoundariesListsUnchanged) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 10;
  gopts.cols = 10;
  gopts.seed = 31;
  auto g = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(g.ok());
  const roadnet::RoadNetwork graph = std::move(g).value();
  roadnet::GridIndexOptions grid_opts;
  grid_opts.cells_x = 6;
  grid_opts.cells_y = 6;
  auto grid = roadnet::GridIndex::Build(graph, grid_opts);
  ASSERT_TRUE(grid.ok());

  VehicleIndex sharded(*grid, 4);
  VehicleIndex flat(*grid, 1);
  ASSERT_EQ(sharded.rebalance_count(), 1u);  // the ctor's uniform split

  // A hotspot: pile vehicles onto vertices in the lowest-numbered cells
  // so nearly all registration weight sits at the front of the cell
  // range, then fill in a sparse tail.
  VehicleId next = 0;
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(graph.NumVertices()); ++v) {
    const roadnet::CellId c = grid->CellOfVertex(v);
    const int copies = c < 3 ? 12 : (v % 17 == 0 ? 1 : 0);
    for (int k = 0; k < copies; ++k) {
      Vehicle veh(next++, v, 4);
      sharded.Update(veh);
      flat.Update(veh);
    }
  }

  // Uniform split owes cell 5 to shard 0 (36 cells / 4 shards); after a
  // density rebalance the hotspot's weight pushes the boundary left.
  ASSERT_EQ(sharded.ShardOfCell(5), 0u);
  sharded.Rebalance();
  EXPECT_EQ(sharded.rebalance_count(), 2u);
  EXPECT_GT(sharded.ShardOfCell(5), 0u);
  // Ownership stays contiguous and covers every shard.
  uint32_t prev = 0;
  std::vector<char> hit(4, 0);
  for (roadnet::CellId c = 0; c < grid->NumCells(); ++c) {
    const uint32_t s = sharded.ShardOfCell(c);
    ASSERT_LT(s, 4u);
    EXPECT_GE(s, prev);
    prev = s;
    hit[s] = 1;
  }
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 4);

  // The regression core: rebalancing re-bucketed every registration yet
  // the observable lists are bit-identical to the unsharded index, and
  // further updates keep them so.
  const auto expect_lists_equal = [&] {
    for (roadnet::CellId c = 0; c < grid->NumCells(); ++c) {
      SCOPED_TRACE("cell " + std::to_string(c));
      EXPECT_EQ(sharded.EmptyVehicles(c), flat.EmptyVehicles(c));
      EXPECT_EQ(sharded.NonEmptyVehicles(c), flat.NonEmptyVehicles(c));
    }
  };
  expect_lists_equal();
  util::Rng rng(97);
  const auto n_vertices = static_cast<int64_t>(graph.NumVertices()) - 1;
  for (VehicleId id = 0; id < next; id += 3) {
    Vehicle veh(id,
                static_cast<roadnet::VertexId>(
                    rng.UniformInt(0, n_vertices)),
                4);
    sharded.Update(veh);
    flat.Update(veh);
  }
  expect_lists_equal();

  // The batch-cadence trigger: every kRebalanceInterval-th counted batch
  // rebalances (the pipelined engine calls this from its quiescent join
  // points).
  const uint64_t before = sharded.rebalance_count();
  for (int i = 0; i < 64; ++i) sharded.MaybeRebalance();
  EXPECT_EQ(sharded.rebalance_count(), before + 1);
  expect_lists_equal();
}

TEST_F(VehicleIndexTest, ManyVehiclesPartitionByCell) {
  // One vehicle at every vertex: each appears in exactly its own cell.
  for (int label = 1; label <= 17; ++label) {
    Vehicle v(static_cast<VehicleId>(label), ex_.v(label), 3);
    index_->Update(v);
  }
  size_t total = 0;
  for (roadnet::CellId c = 0; c < grid_->NumCells(); ++c) {
    total += index_->EmptyVehicles(c).size();
    EXPECT_TRUE(index_->NonEmptyVehicles(c).empty());
  }
  EXPECT_EQ(total, 17u);
}

}  // namespace
}  // namespace ptrider::vehicle
