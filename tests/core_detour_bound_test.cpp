// Targeted soundness check for the dual-side matcher's detour lower
// bound: on randomized loaded vehicles, VehicleDetourLowerBound must never
// exceed the true minimal Delta = dist_trj - dist_tri over the
// enumerated insertion candidates. An unsound bound here would prune
// valid options and break matcher equivalence, so this property gets its
// own suite beyond the end-to-end equivalence test.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/distance_providers.h"
#include "core/matcher.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "util/random.h"
#include "vehicle/fleet.h"

namespace ptrider::core {
namespace {

class DetourBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetourBoundTest, BoundsNeverExceedRealizedValues) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = GetParam();
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  roadnet::GridIndexOptions grid_opts;
  grid_opts.cells_x = 6;
  grid_opts.cells_y = 6;
  auto grid = roadnet::GridIndex::Build(*graph, grid_opts);
  ASSERT_TRUE(grid.ok());
  roadnet::DistanceOracle oracle(*graph);
  ExactDistanceProvider dist(oracle);
  util::Rng rng(GetParam() * 13 + 5);

  vehicle::Fleet fleet;

  auto rv = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };
  const vehicle::ScheduleContext ctx{0.0, 13.3};

  for (int scenario = 0; scenario < 12; ++scenario) {
    // A vehicle with 1-3 pending requests.
    const auto vid = fleet.Add(rv(), 4);
    vehicle::Vehicle& v = fleet.at(vid);
    const int pending = 1 + scenario % 3;
    for (int i = 0; i < pending; ++i) {
      for (int attempt = 0; attempt < 20; ++attempt) {
        vehicle::Request r;
        r.id = scenario * 100 + i;
        r.start = rv();
        r.destination = rv();
        if (r.start == r.destination) continue;
        r.num_riders = 1;
        r.max_wait_s = 900.0;
        r.service_sigma = 0.6;
        auto cands = v.tree().TrialInsert(r, ctx, dist, nullptr);
        if (cands.empty()) continue;
        ASSERT_TRUE(v.mutable_tree()
                        .CommitInsert(r, cands.front().pickup_distance,
                                      0.0, ctx, dist)
                        .ok());
        break;
      }
    }
    if (v.tree().empty()) continue;

    // Probe with fresh requests.
    for (int probe_i = 0; probe_i < 8; ++probe_i) {
      vehicle::Request r;
      r.id = 10000 + scenario * 10 + probe_i;
      r.start = rv();
      r.destination = rv();
      if (r.start == r.destination) continue;
      r.num_riders = 1;
      r.max_wait_s = 900.0;
      r.service_sigma = 0.6;
      const roadnet::Weight direct =
          oracle.Distance(r.start, r.destination);
      if (direct == roadnet::kInfWeight) continue;

      const roadnet::Weight detour_lb =
          VehicleDetourLowerBound(*grid, v, r, direct);
      const roadnet::Weight pickup_lb =
          VehiclePickupLowerBound(*grid, v, r.start);
      const roadnet::Weight before = v.tree().BestTotalDistance();
      const auto cands = v.tree().TrialInsert(r, ctx, dist, nullptr);
      for (const vehicle::InsertionCandidate& c : cands) {
        const roadnet::Weight delta = c.total_distance - before;
        EXPECT_LE(detour_lb, delta + 1e-6)
            << "detour bound exceeds realized Delta (scenario "
            << scenario << ")";
        EXPECT_LE(pickup_lb, c.pickup_distance + 1e-6)
            << "pickup bound exceeds realized dist_pt";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetourBoundTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace ptrider::core
