// The movement advance/commit split's headline guarantee: the
// SimulationReport is item-for-item identical across move_jobs settings
// — for every batch mode, dispatcher, matcher and seed. The advance
// phase walks every vehicle's tick against the frozen pre-tick state;
// the sequential commit applies results in vehicle-id order and keeps
// all idle-cruising RNG draws on the sequential path, so threads can
// only buy latency, never a different answer (DESIGN.md section 6).
// Determinism is proven here, not asserted.
//
// Also the regression home of the submission-path time-accounting fixes:
// both submission paths stamp the trip's true arrival instant, and the
// tick clock derives from an integer index clamped to end_time.

#include <gtest/gtest.h>

#include <vector>

#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace ptrider::sim {
namespace {

/// Field-by-field semantic equality of two simulation reports.
/// Wall-clock aggregates (response_time_s, response_percentiles_s, the
/// phase timings) and cache-state-dependent effort counters
/// (distance_computations) are excluded; everything a rider, operator or
/// evaluation plot observes must be byte-identical. `same_match_path`
/// false compares a per-request run with a batched one: the batch
/// dispatcher re-probes vehicles committed earlier in the batch (DESIGN.md
/// section 5), work one-at-a-time matching does not do, so their
/// vehicles_examined counts differ and are not compared.
void ExpectReportsIdentical(const SimulationReport& a,
                            const SimulationReport& b,
                            bool same_match_path = true) {
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
  if (same_match_path) {
    expect_stats_eq(a.vehicles_examined, b.vehicles_examined,
                    "vehicles_examined");
  }
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
        // Per-request mode and a 5 s arrival window (batched mode).
        ::testing::Values(0.0, 5.0),
        // Dispatch threads: 1 (no pool) and 2 (batched mode only reads
        // it).
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

// --- Submission-path time accounting ----------------------------------------

// Regression: SubmitDueRequests used to stamp submit_time_s with the
// processing tick while CollectDueRequests stamped the true arrival,
// silently skewing cross-mode wait/response comparisons. With the shared
// trip-to-request builder, a batched run whose window equals the tick
// dispatches the very same requests at the very same instants as the
// per-request path — the whole report, submit delays included, must
// match (all but the match work counted in vehicles_examined, see
// ExpectReportsIdentical).
TEST(SubmitTimeAccountingTest, PerRequestMatchesBatchedWindowOfOneTick) {
  const City city = MakeCity(23);
  for (const uint64_t seed : {4u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SimulationReport per_request =
        RunCity(city, /*move_jobs=*/1, /*batch_window_s=*/0.0, seed);
    const SimulationReport batched =
        RunCity(city, /*move_jobs=*/1, /*batch_window_s=*/1.0, seed);
    ExpectReportsIdentical(per_request, batched,
                           /*same_match_path=*/false);
    EXPECT_EQ(per_request.submit_delay_s.sum(),
              batched.submit_delay_s.sum());
  }
}

// The per-request path must measure the delay from the trip's arrival
// instant to its processing tick — nonzero for off-tick arrivals (the
// old bug reported identically-zero delays in per-request mode).
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
