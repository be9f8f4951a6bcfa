// The movement advance/commit split's headline guarantee: the
// SimulationReport is item-for-item identical across move_jobs settings
// — for every batch mode, dispatcher, matcher and seed. The advance
// phase walks every vehicle's tick against the frozen pre-tick state;
// the sequential commit applies results in vehicle-id order and keeps
// all idle-cruising RNG draws on the sequential path, so threads can
// only buy latency, never a different answer (DESIGN.md section 6).
// Determinism is proven here, not asserted.
//
// Also the regression home of the submission path: every request goes
// through the batch dispatcher stamped with the trip's true arrival
// instant, the last tick closes a window, a batch replans motion once,
// and the tick clock derives from an integer index clamped to end_time.

#include <gtest/gtest.h>

#include <vector>

#include "raw_bit_pin.h"
#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace ptrider::sim {
namespace {

/// Field-by-field semantic equality of two simulation reports.
/// Wall-clock aggregates (response_time_s, response_percentiles_s, the
/// phase timings) and anchor-state-dependent effort counters
/// (distance_computations) are excluded; everything a rider, operator or
/// evaluation plot observes must be byte-identical.
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

City MakeCity(uint64_t trip_seed, size_t num_trips = 110,
              double duration_s = 1500.0) {
  City city;
  roadnet::CityGridOptions gopts;
  gopts.rows = 13;
  gopts.cols = 13;
  gopts.seed = 19;
  auto g = roadnet::MakeCityGrid(gopts);
  EXPECT_TRUE(g.ok());
  city.graph = std::move(g).value();

  HotspotWorkloadOptions wopts;
  wopts.num_trips = num_trips;
  wopts.duration_s = duration_s;
  wopts.seed = trip_seed;
  auto trips = GenerateHotspotTrips(city.graph, wopts);
  EXPECT_TRUE(trips.ok());
  city.trips = std::move(trips).value();
  return city;
}

SimulationReport RunCity(const City& city, int move_jobs,
                         double batch_window_s, uint64_t seed,
                         size_t taxis = 30, double tick_s = 1.0,
                         int dispatch_threads = 1) {
  core::Config cfg;
  cfg.matcher = core::MatcherAlgorithm::kDualSide;
  cfg.vehicle_capacity = 3;
  cfg.default_max_wait_s = 330.0;
  cfg.default_service_sigma = 0.45;
  cfg.max_planned_pickup_s = 600.0;
  // Surge pricing keeps the demand window load-bearing across modes.
  cfg.pricing_policy = core::PricingPolicyKind::kSurge;
  cfg.surge_baseline_rate_per_min = 1.0;
  cfg.dispatch_threads = dispatch_threads;
  auto sys = core::PTRider::Create(city.graph, cfg);
  EXPECT_TRUE(sys.ok());
  EXPECT_TRUE((*sys)->InitFleetUniform(taxis, seed).ok());

  SimulatorOptions sopts;
  sopts.seed = seed;
  sopts.tick_s = tick_s;
  sopts.batch_window_s = batch_window_s;
  sopts.move_jobs = move_jobs;
  sopts.choice.model = RiderChoiceModel::kWeightedUtility;
  sopts.choice.accept_price_over_floor = 3.0;
  Simulator sim(**sys, sopts);
  auto report = sim.Run(city.trips);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// --- The determinism matrix: move_jobs x batch modes x dispatch x seeds -----

class MovementDeterminismTest
    : public ::testing::TestWithParam<std::tuple<double, int, uint64_t>> {};

TEST_P(MovementDeterminismTest, ReportIdenticalAcrossMoveJobs) {
  const auto [batch_window_s, dispatch_threads, seed] = GetParam();
  const City city = MakeCity(seed + 100);
  const auto run = [&](int move_jobs) {
    return RunCity(city, move_jobs, batch_window_s, seed, /*taxis=*/30,
                   /*tick_s=*/1.0, dispatch_threads);
  };
  const SimulationReport reference = run(/*move_jobs=*/1);
  ASSERT_GT(reference.requests_assigned, 30);
  ASSERT_GT(reference.requests_completed, 10);
  ASSERT_GT(reference.requests_shared, 0);
  for (const int move_jobs : {2, 4}) {
    SCOPED_TRACE("move_jobs " + std::to_string(move_jobs));
    ExpectReportsIdentical(reference, run(move_jobs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchModesDispatchersAndSeeds, MovementDeterminismTest,
    ::testing::Combine(
        // One window per tick and a 5 s arrival window.
        ::testing::Values(0.0, 5.0),
        // Dispatch threads: 1 (no pool) and 2.
        ::testing::Values(1, 2), ::testing::Values<uint64_t>(3, 17)));

// Idle cruising is the only rng_ consumer inside movement; a fleet with
// zero demand isolates it. Every thread count must consume the stream
// identically, so the cruise trajectories — and the exact fleet
// distance — cannot move.
TEST(MovementParallelTest, IdleCruisingIdenticalAcrossMoveJobs) {
  const City city = MakeCity(1, /*num_trips=*/0, /*duration_s=*/1.0);
  const auto run = [&](int move_jobs) {
    core::Config cfg;
    auto sys = core::PTRider::Create(city.graph, cfg);
    EXPECT_TRUE(sys.ok());
    EXPECT_TRUE((*sys)->InitFleetUniform(25, 9).ok());
    SimulatorOptions sopts;
    sopts.seed = 5;
    sopts.end_time_s = 240.0;
    sopts.move_jobs = move_jobs;
    Simulator sim(**sys, sopts);
    auto report = sim.Run({});
    EXPECT_TRUE(report.ok());
    return report->fleet_total_distance_m;
  };
  const double reference = run(1);
  EXPECT_GT(reference, 0.0);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(4), reference);
}

// --- The submission path ---------------------------------------------------

// The last tick of a run closes a window even when it is clamped to
// end_time_s: a trip arriving inside it is dispatched before that tick's
// movement at every window, so the taxi waiting at its start picks the
// rider up within the run.
TEST(SubmissionPathTest, ClampedLastTickClosesAWindow) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 6;
  gopts.cols = 6;
  gopts.seed = 3;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  Trip trip;
  trip.time_s = 10.2;
  trip.origin = 4;
  trip.destination = 30;
  for (const double window : {0.0, 1.0, 2.0}) {
    SCOPED_TRACE("batch_window_s " + std::to_string(window));
    auto sys = core::PTRider::Create(*graph, core::Config{});
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->AddVehicle(4).ok());
    SimulatorOptions sopts;
    sopts.idle_cruising = false;
    sopts.end_time_s = 10.5;
    sopts.batch_window_s = window;
    Simulator sim(**sys, sopts);
    auto report = sim.Run({trip});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->requests_assigned, 1);
    EXPECT_EQ(report->pickup_wait_s.count(), 1u);
  }
}

// A batch replans each assigned vehicle's motion after all its commits,
// against the final tree, so a mid-edge vehicle whose first stop two
// commits of one tick change and change back keeps its progress along
// the edge. This busy small city has such ticks: replanning after every
// commit would reset that progress and drive 166317.15 m in total, not
// the 166780.77 m pinned here. One window per tick and a one-second
// window give the same report.
TEST(SubmissionPathTest, MotionReplansOncePerBatch) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 8;
  gopts.cols = 8;
  gopts.seed = 14;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  HotspotWorkloadOptions wopts;
  wopts.num_trips = 70;
  wopts.duration_s = 150.0;
  wopts.seed = 99;
  auto trips = GenerateHotspotTrips(*graph, wopts);
  ASSERT_TRUE(trips.ok());
  const pin::Words expected = {
      0x0000000000000046ULL, 0x0000000000000040ULL, 0x0000000000000006ULL,
      0x0000000000000000ULL, 0x0000000000000040ULL, 0x000000000000002fULL,
      0x404c4a9c1a6dd4f1ULL, 0x404c4a9c1a6dd4f1ULL, 0x40a843dd6a33bbceULL,
      0x40512271283f1619ULL, 0x4062000000000000ULL, 0x405f2b2075d1a1c0ULL,
      0x41045be6260dabc1ULL, 0x40f1e4e81feb111bULL, 0x40d867e8db384858ULL};
  for (const double window : {0.0, 1.0}) {
    SCOPED_TRACE("batch_window_s " + std::to_string(window));
    core::Config cfg;
    cfg.vehicle_capacity = 2;
    cfg.default_max_wait_s = 330.0;
    cfg.default_service_sigma = 0.45;
    cfg.max_planned_pickup_s = 600.0;
    auto sys = core::PTRider::Create(*graph, cfg);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(12, 14).ok());
    SimulatorOptions sopts;
    sopts.seed = 14;
    sopts.drain_s = 900.0;
    sopts.batch_window_s = window;
    sopts.choice.model = RiderChoiceModel::kCheapest;
    Simulator sim(**sys, sopts);
    auto report = sim.Run(*trips);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const pin::Words actual = pin::ReportWords(*report);
    EXPECT_EQ(actual, expected)
        << "actual report:\n" << pin::ToInitializer(actual);
  }
}

// The submit delay runs from the trip's arrival instant to the tick
// that dispatches it: nonzero for off-tick arrivals.
TEST(SubmitTimeAccountingTest, SubmitDelayMeasuresTickRounding) {
  const City city = MakeCity(1, /*num_trips=*/0);
  std::vector<Trip> trips;
  for (const double t : {0.25, 1.75, 7.5}) {
    Trip trip;
    trip.time_s = t;
    trip.origin = 3;
    trip.destination = 40;
    trips.push_back(trip);
  }
  core::Config cfg;
  auto sys = core::PTRider::Create(city.graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(10, 2).ok());
  SimulatorOptions sopts;
  sopts.drain_s = 600.0;
  Simulator sim(**sys, sopts);
  auto report = sim.Run(trips);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->submit_delay_s.count(), 3u);
  // Arrivals at 0.25/1.75/7.5 s are processed at ticks 1/2/8.
  EXPECT_NEAR(report->submit_delay_s.sum(), 0.75 + 0.25 + 0.5, 1e-12);
}

// Regression: `now += tick_s` accumulated float error over long horizons
// and overran end_time by up to a tick. The clock now derives from an
// integer tick index and the final tick lands exactly on end_time.
TEST(TickAccountingTest, ClockLandsExactlyOnEndTime) {
  const City city = MakeCity(1, /*num_trips=*/0);
  core::Config cfg;
  auto sys = core::PTRider::Create(city.graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(5, 2).ok());
  SimulatorOptions sopts;
  // 0.1 s is not representable in binary: accumulation drifts, and the
  // 100.05 s horizon is not a whole number of ticks.
  sopts.tick_s = 0.1;
  sopts.end_time_s = 100.05;
  Simulator sim(**sys, sopts);
  auto report = sim.Run({});
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->simulated_seconds, 100.05);
  // The cruise budget covers exactly the simulated horizon — the final
  // partial tick is shortened pro rata, never overshot. (The lower slack
  // is mid-edge progress not yet flushed into the distance accounting:
  // at most one edge per vehicle.)
  const double horizon_m = 5 * 100.05 * (**sys).config().speed_mps;
  EXPECT_LE(report->fleet_total_distance_m, horizon_m + 1e-6);
  EXPECT_GE(report->fleet_total_distance_m, horizon_m - 5 * 400.0);
}

}  // namespace
}  // namespace ptrider::sim
