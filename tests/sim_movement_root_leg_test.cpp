// A vehicle drives the oracle's own shortest path to its next stop, and
// any suffix of a shortest path is one too, so movement reads the root
// leg to the route's end from the rest of the route (DESIGN.md section
// 7.5). Driving to a stop therefore costs one search, the ShortestPath
// that planned the route; a search per vertex reached, asking
// dist(vertex, stop), is what this test rules out.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/ptrider.h"
#include "roadnet/graph_generator.h"
#include "sim/movement.h"

namespace ptrider::sim {
namespace {

TEST(MovementRootLegTest, DrivingToAPickupSearchesOnlyItsRoute) {
  roadnet::CityGridOptions city;
  city.rows = 8;
  city.cols = 8;
  city.seed = 3;
  auto graph = roadnet::MakeCityGrid(city);
  ASSERT_TRUE(graph.ok());
  core::Config cfg;
  cfg.default_max_wait_s = 1e6;
  cfg.max_planned_pickup_s = 1e6;
  auto sys = core::PTRider::Create(*graph, cfg);
  ASSERT_TRUE(sys.ok());
  core::PTRider& system = **sys;
  auto vid = system.AddVehicle(0);
  ASSERT_TRUE(vid.ok());

  // A pick-up across the city, several edges from the vehicle.
  const auto n = static_cast<roadnet::VertexId>(graph->NumVertices());
  vehicle::Request r;
  r.id = 1;
  r.start = n - 1;
  r.destination = n / 2;
  r.num_riders = 1;
  r.max_wait_s = 1e6;
  r.service_sigma = 1.0;
  auto match = system.SubmitRequest(r, 0.0);
  ASSERT_TRUE(match.ok());
  ASSERT_FALSE(match->options.empty());
  ASSERT_TRUE(system.ChooseOption(r, match->options[0], 0.0).ok());

  // The moving oracle, as a movement worker holds one. Ticks of 20 m are
  // shorter than every edge, so a tick reaches at most one vertex.
  roadnet::DistanceOracle move = system.oracle().Clone();
  const double tick_m = 20.0;
  Motion motion;
  double now = 0.0;
  int vertices_reached = 0;
  uint64_t pickup_tick_computed = 0;
  bool picked_up = false;
  for (int tick = 0; tick < 100000 && !picked_up; ++tick) {
    now += tick_m / cfg.speed_mps;
    const uint64_t computed = move.computed();
    const roadnet::VertexId at = system.fleet().at(*vid).location();
    MovementOutcome out = AdvanceVehicle(system.fleet().at(*vid), motion,
                                         system, now, tick_m, move);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    ASSERT_TRUE(out.served);
    for (const core::AdvanceStop& s : out.stops) {
      if (s.event.stop.type == vehicle::StopType::kPickup) picked_up = true;
    }
    if (picked_up) {
      pickup_tick_computed = move.computed() - computed;
      break;
    }
    // The advance moved the live vehicle; before the pick-up no arrival
    // is left for the commit.
    ASSERT_TRUE(out.stops.empty());
    if (system.fleet().at(*vid).location() != at) ++vertices_reached;
  }
  ASSERT_TRUE(picked_up);
  ASSERT_GE(vertices_reached, 3);
  // Every tick before the pick-up's: one search, the route's.
  EXPECT_EQ(move.computed() - pickup_tick_computed, 1u)
      << vertices_reached << " vertices reached on the way";
  // The pick-up's tick plans the onward route to the drop-off.
  EXPECT_EQ(pickup_tick_computed, 1u);
}

}  // namespace
}  // namespace ptrider::sim
