// The pipelined tick engine's headline guarantee (DESIGN.md
// section 15): the SimulationReport is bit-identical across
// pipeline_depth x dispatch_threads x index_shards x seed. Depth 1 runs
// the historical sequential loop untouched; depth 2 overlaps each
// window's read-only match with the boundary tick's movement advance;
// depth 3 additionally floats reindex batches across ticks. Every
// overlapped stage reads a frozen snapshot and every mutation stays on
// the driver thread in the depth-1 order, so depth only buys wall
// clock. The TSan CI job runs this file to certify the overlap is
// race-free, and a unit test below exercises the vehicle index's
// shard-ownership tokens with genuinely concurrent disjoint-shard
// commits.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dispatch/reindex.h"
#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "vehicle/vehicle_index.h"

namespace ptrider::sim {
namespace {

/// Field-by-field semantic equality of two simulation reports.
/// Wall-clock aggregates (including the pipeline fill/stall split) and
/// cache-state-dependent effort counters are excluded; everything a
/// rider, operator or evaluation plot observes must be byte-identical.
void ExpectReportsIdentical(const SimulationReport& a,
                            const SimulationReport& b) {
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.requests_assigned, b.requests_assigned);
  EXPECT_EQ(a.requests_unserved, b.requests_unserved);
  EXPECT_EQ(a.requests_declined, b.requests_declined);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.requests_shared, b.requests_shared);
  EXPECT_EQ(a.revenue_total, b.revenue_total);
  EXPECT_EQ(a.fleet_total_distance_m, b.fleet_total_distance_m);
  EXPECT_EQ(a.fleet_occupied_distance_m, b.fleet_occupied_distance_m);
  EXPECT_EQ(a.fleet_shared_distance_m, b.fleet_shared_distance_m);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);

  const auto expect_stats_eq = [](const util::RunningStats& x,
                                  const util::RunningStats& y,
                                  const char* name) {
    SCOPED_TRACE(name);
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.sum(), y.sum());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
  };
  expect_stats_eq(a.submit_delay_s, b.submit_delay_s, "submit_delay_s");
  expect_stats_eq(a.options_per_request, b.options_per_request,
                  "options_per_request");
  expect_stats_eq(a.vehicles_examined, b.vehicles_examined,
                  "vehicles_examined");
  expect_stats_eq(a.pickup_wait_s, b.pickup_wait_s, "pickup_wait_s");
  expect_stats_eq(a.detour_ratio, b.detour_ratio, "detour_ratio");
  expect_stats_eq(a.quoted_price, b.quoted_price, "quoted_price");
  expect_stats_eq(a.price_over_floor, b.price_over_floor,
                  "price_over_floor");
  expect_stats_eq(a.trip_overrun_m, b.trip_overrun_m, "trip_overrun_m");
}

struct City {
  roadnet::RoadNetwork graph;
  std::vector<Trip> trips;
};

City MakeCity(uint64_t trip_seed) {
  City city;
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = 23;
  auto g = roadnet::MakeCityGrid(gopts);
  EXPECT_TRUE(g.ok());
  city.graph = std::move(g).value();

  HotspotWorkloadOptions wopts;
  wopts.num_trips = 90;
  wopts.duration_s = 1300.0;
  wopts.seed = trip_seed;
  auto trips = GenerateHotspotTrips(city.graph, wopts);
  EXPECT_TRUE(trips.ok());
  city.trips = std::move(trips).value();
  return city;
}

SimulationReport RunCity(const City& city, int pipeline_depth,
                         int dispatch_threads, int index_shards,
                         uint64_t seed) {
  core::Config cfg;
  cfg.matcher = core::MatcherAlgorithm::kDualSide;
  cfg.vehicle_capacity = 3;
  cfg.default_max_wait_s = 330.0;
  cfg.default_service_sigma = 0.45;
  cfg.max_planned_pickup_s = 600.0;
  // Surge pricing keeps the demand window load-bearing across depths —
  // a pipelined run replaying the pricing records out of order would
  // show up as a quoted-price mismatch.
  cfg.pricing_policy = core::PricingPolicyKind::kSurge;
  cfg.surge_baseline_rate_per_min = 1.0;
  cfg.index_shards = index_shards;
  cfg.dispatch_threads = dispatch_threads;
  auto sys = core::PTRider::Create(city.graph, cfg);
  EXPECT_TRUE(sys.ok());
  EXPECT_TRUE((*sys)->InitFleetUniform(26, seed).ok());

  SimulatorOptions sopts;
  sopts.seed = seed;
  sopts.batch_window_s = 4.0;
  sopts.move_jobs = 2;
  sopts.pipeline_depth = pipeline_depth;
  sopts.choice.model = RiderChoiceModel::kWeightedUtility;
  sopts.choice.accept_price_over_floor = 3.0;
  Simulator sim(**sys, sopts);
  auto report = sim.Run(city.trips);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// --- The identity matrix: depth x dispatch_threads x shards x seeds --------

class PipelineDeterminismTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(PipelineDeterminismTest, ReportIdenticalAcrossDepths) {
  const auto [dispatch_threads, index_shards, seed] = GetParam();
  const City city = MakeCity(seed + 211);
  const SimulationReport reference =
      RunCity(city, /*pipeline_depth=*/1, dispatch_threads, index_shards,
              seed);
  ASSERT_GT(reference.requests_assigned, 20);
  ASSERT_GT(reference.requests_completed, 5);
  // Depth 1 never engages the pipeline; its report must not even carry
  // pipeline wall clock.
  EXPECT_EQ(reference.pipeline_fill_seconds, 0.0);
  EXPECT_EQ(reference.pipeline_stall_seconds, 0.0);
  for (const int depth : {2, 3}) {
    SCOPED_TRACE("pipeline_depth " + std::to_string(depth));
    ExpectReportsIdentical(
        reference,
        RunCity(city, depth, dispatch_threads, index_shards, seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DispatchModesShardsAndSeeds, PipelineDeterminismTest,
    ::testing::Combine(
        // Sequential BatchDispatcher (unstaged: the pipeline driver must
        // take the sequential route at any depth) and the 2-thread
        // ParallelDispatcher (staged: full overlap).
        ::testing::Values(0, 2),
        // Unsharded and 4-way-sharded index: depth 3 floats reindex
        // batches in both, shards only add concurrent disjoint commits.
        ::testing::Values(1, 4), ::testing::Values<uint64_t>(3, 17)));

// --- Disjoint-shard concurrent commit (the ownership-token rule) -----------

// Two reindex batches whose shard masks are disjoint may apply
// concurrently — the pipelined engine's commit rule. This drives two
// genuinely concurrent ApplyShard lanes through the vehicle index
// (under TSan in CI) and then proves the lists equal a sequential
// application on a twin index. A first round registers the vehicles; a
// second round moves every one of them within its lane's shards, so the
// lanes also run the merge, the drop of a record from a shard and the
// re-use of freed records concurrently.
TEST(PipelineShardCommitTest, DisjointShardBatchesCommitConcurrently) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 10;
  gopts.cols = 10;
  gopts.seed = 5;
  auto g = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(g.ok());
  const roadnet::RoadNetwork& graph = *g;

  core::Config cfg;
  cfg.index_shards = 4;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(40, /*seed=*/9).ok());
  const vehicle::Fleet& fleet = (*sys)->fleet();

  vehicle::VehicleIndex concurrent((*sys)->grid(), 4);
  vehicle::VehicleIndex sequential((*sys)->grid(), 4);

  // Split the fleet's first-time registrations into two batches with
  // provably disjoint shard masks (single-shard vehicles only); both
  // indices start empty so every ApplyShard takes the mutating
  // insertion path, not a same-state no-op.
  std::vector<vehicle::PendingUpdate> all;
  for (const vehicle::Vehicle& v : fleet.vehicles()) {
    all.push_back(concurrent.Prepare(v));
  }
  std::vector<vehicle::PendingUpdate> low;
  std::vector<vehicle::PendingUpdate> high;
  for (vehicle::PendingUpdate& u : all) {
    const uint64_t mask =
        dispatch::ReindexShardMask(concurrent, {&u, 1});
    if ((mask & 0b0011u) != 0 && (mask & ~uint64_t{0b0011u}) == 0) {
      low.push_back(std::move(u));
    } else if ((mask & 0b1100u) != 0 &&
               (mask & ~uint64_t{0b1100u}) == 0) {
      high.push_back(std::move(u));
    }
  }
  ASSERT_FALSE(low.empty());
  ASSERT_FALSE(high.empty());
  ASSERT_EQ(dispatch::ReindexShardMask(concurrent, low) &
                dispatch::ReindexShardMask(concurrent, high),
            0u);

  // Sequential reference: both batches in order, whole-index.
  sequential.ApplyBatch(low);
  sequential.ApplyBatch(high);

  // Concurrent: per-batch bookkeeping on this thread, then one thread
  // per batch applying only its own shards — exactly the floated-lane
  // shape. The ownership tokens assert if the lanes ever collide.
  const auto lane = [&](const std::vector<vehicle::PendingUpdate>& batch,
                        uint64_t mask) {
    for (uint32_t s = 0; s < concurrent.num_shards(); ++s) {
      if (((mask >> std::min<uint32_t>(s, 63)) & 1) == 0) continue;
      for (const vehicle::PendingUpdate& u : batch) {
        concurrent.ApplyShard(u, s);
      }
    }
  };
  const uint64_t low_mask = dispatch::ReindexShardMask(concurrent, low);
  const uint64_t high_mask = dispatch::ReindexShardMask(concurrent, high);
  const auto run_lanes = [&](const std::vector<vehicle::PendingUpdate>& a,
                             const std::vector<vehicle::PendingUpdate>& b) {
    concurrent.BeginBatch(a);
    concurrent.BeginBatch(b);
    std::thread t1([&] { lane(a, low_mask); });
    std::thread t2([&] { lane(b, high_mask); });
    t1.join();
    t2.join();
  };
  const auto expect_lists_equal = [&] {
    for (roadnet::CellId c = 0; c < (*sys)->grid().NumCells(); ++c) {
      SCOPED_TRACE("cell " + std::to_string(c));
      EXPECT_EQ(concurrent.EmptyVehicles(c), sequential.EmptyVehicles(c));
      EXPECT_EQ(concurrent.NonEmptyVehicles(c),
                sequential.NonEmptyVehicles(c));
    }
  };
  run_lanes(low, high);
  expect_lists_equal();

  // Second round: every vehicle moves to another cell of its lane's
  // shards. Even positions switch to the lane's other shard — the old
  // shard drops the vehicle's record onto its free list, and a vehicle
  // entering that shard later in the batch re-registers into it — and
  // odd positions move to another cell of their own shard (the merge).
  std::vector<std::vector<roadnet::CellId>> cells_of_shard(4);
  for (roadnet::CellId c = 0; c < (*sys)->grid().NumCells(); ++c) {
    cells_of_shard[concurrent.ShardOfCell(c)].push_back(c);
  }
  const auto move_lane = [&](const std::vector<vehicle::PendingUpdate>& batch,
                             uint32_t first_shard) {
    std::vector<vehicle::PendingUpdate> moved;
    for (size_t k = 0; k < batch.size(); ++k) {
      const roadnet::CellId from = batch[k].cells.front();
      const uint32_t shard = concurrent.ShardOfCell(from);
      const uint32_t target =
          k % 2 == 0 ? first_shard + (shard == first_shard ? 1 : 0) : shard;
      const std::vector<roadnet::CellId>& options = cells_of_shard[target];
      roadnet::CellId to = options[(7 * k + 3) % options.size()];
      if (to == from) to = options[(7 * k + 4) % options.size()];
      moved.push_back(vehicle::PendingUpdate{batch[k].id, true, {to}});
    }
    return moved;
  };
  const std::vector<vehicle::PendingUpdate> low2 = move_lane(low, 0);
  const std::vector<vehicle::PendingUpdate> high2 = move_lane(high, 2);
  ASSERT_EQ(dispatch::ReindexShardMask(concurrent, low2) & ~low_mask, 0u);
  ASSERT_EQ(dispatch::ReindexShardMask(concurrent, high2) & ~high_mask, 0u);
  sequential.ApplyBatch(low2);
  sequential.ApplyBatch(high2);
  run_lanes(low2, high2);
  expect_lists_equal();
  for (const auto* batch : {&low2, &high2}) {
    for (const vehicle::PendingUpdate& u : *batch) {
      EXPECT_EQ(concurrent.RegisteredCells(u.id), u.cells)
          << "vehicle " << u.id;
    }
  }
}

}  // namespace
}  // namespace ptrider::sim
