// System-level matcher equivalence: because the three matching
// algorithms return identical option sets and the cheapest-option rider
// is deterministic, an entire city simulation must evolve identically
// under naive, single-side and dual-side matching — same assignments,
// same completions, same sharing, same fleet distances. This extends the
// per-request equivalence test to the full dynamic system (moving
// vehicles, evolving kinetic trees, index updates).

#include <gtest/gtest.h>

#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace ptrider::sim {
namespace {

SimulationReport RunWith(core::MatcherAlgorithm algo,
                         const roadnet::RoadNetwork& graph,
                         const std::vector<Trip>& trips) {
  core::Config cfg;
  cfg.matcher = algo;
  cfg.vehicle_capacity = 3;
  cfg.default_max_wait_s = 300.0;
  cfg.default_service_sigma = 0.4;
  cfg.max_planned_pickup_s = 600.0;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 6;
  gridopts.cells_y = 6;
  auto sys = core::PTRider::Create(graph, cfg, gridopts);
  EXPECT_TRUE(sys.ok());
  EXPECT_TRUE((*sys)->InitFleetUniform(35, /*seed=*/4).ok());
  SimulatorOptions sopts;
  sopts.seed = 12;  // identical idle-cruising randomness
  sopts.choice.model = RiderChoiceModel::kCheapest;  // deterministic
  Simulator sim(**sys, sopts);
  auto report = sim.Run(trips);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

TEST(SimEquivalenceTest, WholeSimulationIdenticalAcrossMatchers) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = 77;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  HotspotWorkloadOptions wopts;
  wopts.num_trips = 90;
  wopts.duration_s = 1200.0;
  wopts.seed = 31;
  auto trips = GenerateHotspotTrips(*graph, wopts);
  ASSERT_TRUE(trips.ok());

  const SimulationReport naive =
      RunWith(core::MatcherAlgorithm::kNaive, *graph, *trips);
  const SimulationReport single =
      RunWith(core::MatcherAlgorithm::kSingleSide, *graph, *trips);
  const SimulationReport dual =
      RunWith(core::MatcherAlgorithm::kDualSide, *graph, *trips);

  ASSERT_GT(naive.requests_assigned, 40);
  for (const SimulationReport* r : {&single, &dual}) {
    EXPECT_EQ(r->requests_submitted, naive.requests_submitted);
    EXPECT_EQ(r->requests_assigned, naive.requests_assigned);
    EXPECT_EQ(r->requests_unserved, naive.requests_unserved);
    EXPECT_EQ(r->requests_completed, naive.requests_completed);
    EXPECT_EQ(r->requests_shared, naive.requests_shared);
    EXPECT_DOUBLE_EQ(r->fleet_total_distance_m,
                     naive.fleet_total_distance_m);
    EXPECT_DOUBLE_EQ(r->fleet_occupied_distance_m,
                     naive.fleet_occupied_distance_m);
    EXPECT_DOUBLE_EQ(r->fleet_shared_distance_m,
                     naive.fleet_shared_distance_m);
    EXPECT_DOUBLE_EQ(r->quoted_price.sum(), naive.quoted_price.sum());
    EXPECT_DOUBLE_EQ(r->pickup_wait_s.sum(), naive.pickup_wait_s.sum());
    EXPECT_DOUBLE_EQ(r->options_per_request.sum(),
                     naive.options_per_request.sum());
  }
  // The matchers differ only in work, never in outcome.
  EXPECT_LE(single.vehicles_examined.sum(),
            naive.vehicles_examined.sum());
  EXPECT_LE(dual.vehicles_examined.sum(),
            single.vehicles_examined.sum() + 1e-9);
}

TEST(SimEquivalenceTest, WholeSimulationIdenticalAcrossSpAlgorithms) {
  // Every Config::sp_algorithm returns bit-identical distances
  // (DESIGN.md section 7), and distances are the only thing the oracle
  // feeds the matchers — so the entire simulation, rider choices and
  // fleet movement included, must be invariant under the engine choice.
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = 77;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  HotspotWorkloadOptions wopts;
  wopts.num_trips = 90;
  wopts.duration_s = 1200.0;
  wopts.seed = 31;
  auto trips = GenerateHotspotTrips(*graph, wopts);
  ASSERT_TRUE(trips.ok());

  const auto run_with = [&](roadnet::SpAlgorithm algo) {
    core::Config cfg;
    cfg.sp_algorithm = algo;
    cfg.default_service_sigma = 0.4;
    cfg.max_planned_pickup_s = 600.0;
    auto sys = core::PTRider::Create(*graph, cfg);
    EXPECT_TRUE(sys.ok());
    EXPECT_TRUE((*sys)->InitFleetUniform(35, /*seed=*/4).ok());
    SimulatorOptions sopts;
    sopts.seed = 12;
    sopts.choice.model = RiderChoiceModel::kCheapest;
    Simulator sim(**sys, sopts);
    auto report = sim.Run(*trips);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };

  // Dijkstra, A* and CH all accumulate the shortest path's original
  // edges in path order and agree exactly.
  const SimulationReport astar = run_with(roadnet::SpAlgorithm::kAStar);
  ASSERT_GT(astar.requests_assigned, 40);
  for (const roadnet::SpAlgorithm algo :
       {roadnet::SpAlgorithm::kDijkstra,
        roadnet::SpAlgorithm::kContractionHierarchy}) {
    const SimulationReport r = run_with(algo);
    EXPECT_EQ(r.requests_submitted, astar.requests_submitted);
    EXPECT_EQ(r.requests_assigned, astar.requests_assigned);
    EXPECT_EQ(r.requests_unserved, astar.requests_unserved);
    EXPECT_EQ(r.requests_completed, astar.requests_completed);
    EXPECT_EQ(r.requests_shared, astar.requests_shared);
    EXPECT_EQ(r.fleet_total_distance_m, astar.fleet_total_distance_m);
    EXPECT_EQ(r.fleet_occupied_distance_m,
              astar.fleet_occupied_distance_m);
    EXPECT_EQ(r.fleet_shared_distance_m, astar.fleet_shared_distance_m);
    EXPECT_EQ(r.quoted_price.sum(), astar.quoted_price.sum());
    EXPECT_EQ(r.pickup_wait_s.sum(), astar.pickup_wait_s.sum());
    EXPECT_EQ(r.options_per_request.sum(),
              astar.options_per_request.sum());
  }
}

}  // namespace
}  // namespace ptrider::sim
