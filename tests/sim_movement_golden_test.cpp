// Golden reports for the movement engine. The determinism matrix in
// sim_movement_parallel_test compares variants with each other, so an
// answer they all share could move and every one of them would still
// pass. This file pins that shared answer: the values below were
// recorded from the tick-by-tick movement loop (every vehicle advanced,
// committed and re-registered on every tick) and must hold, bit for
// bit, for every later movement engine and at every concurrency
// setting.
//
// Doubles are compared as raw bits, so a change that only reorders a
// floating-point sum fails here. The scenarios cover an idle-only fleet
// (the cruise RNG), a busy batched city across the concurrency knobs,
// fractional ticks with a clamped last tick, and the stepping API driven
// with irregular tick gaps (zero-length and edge-crossing ones included).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace ptrider::sim {
namespace {

/// The pinned part of a SimulationReport: outcome counts, revenue, fleet
/// distances, and the count and raw-bit sum of the two per-trip stats.
struct Golden {
  int64_t submitted = 0;
  int64_t assigned = 0;
  int64_t unserved = 0;
  int64_t declined = 0;
  int64_t completed = 0;
  int64_t shared = 0;
  uint64_t revenue_total = 0;
  uint64_t fleet_total_distance_m = 0;
  uint64_t fleet_occupied_distance_m = 0;
  uint64_t fleet_shared_distance_m = 0;
  uint64_t pickup_wait_count = 0;
  uint64_t pickup_wait_sum = 0;
  uint64_t detour_ratio_count = 0;
  uint64_t detour_ratio_sum = 0;

  bool operator==(const Golden&) const = default;
};

Golden Capture(const SimulationReport& r) {
  Golden g;
  g.submitted = r.requests_submitted;
  g.assigned = r.requests_assigned;
  g.unserved = r.requests_unserved;
  g.declined = r.requests_declined;
  g.completed = r.requests_completed;
  g.shared = r.requests_shared;
  g.revenue_total = std::bit_cast<uint64_t>(r.revenue_total);
  g.fleet_total_distance_m =
      std::bit_cast<uint64_t>(r.fleet_total_distance_m);
  g.fleet_occupied_distance_m =
      std::bit_cast<uint64_t>(r.fleet_occupied_distance_m);
  g.fleet_shared_distance_m =
      std::bit_cast<uint64_t>(r.fleet_shared_distance_m);
  g.pickup_wait_count = r.pickup_wait_s.count();
  g.pickup_wait_sum = std::bit_cast<uint64_t>(r.pickup_wait_s.sum());
  g.detour_ratio_count = r.detour_ratio.count();
  g.detour_ratio_sum = std::bit_cast<uint64_t>(r.detour_ratio.sum());
  return g;
}

/// `g` as a Golden initializer, so a deliberate re-recording is a paste.
std::string ToInitializer(const Golden& g) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{%lld, %lld, %lld, %lld, %lld, %lld,\n 0x%016llxULL, 0x%016llxULL, "
      "0x%016llxULL, 0x%016llxULL,\n %llu, 0x%016llxULL, %llu, "
      "0x%016llxULL}",
      static_cast<long long>(g.submitted),
      static_cast<long long>(g.assigned),
      static_cast<long long>(g.unserved),
      static_cast<long long>(g.declined),
      static_cast<long long>(g.completed),
      static_cast<long long>(g.shared),
      static_cast<unsigned long long>(g.revenue_total),
      static_cast<unsigned long long>(g.fleet_total_distance_m),
      static_cast<unsigned long long>(g.fleet_occupied_distance_m),
      static_cast<unsigned long long>(g.fleet_shared_distance_m),
      static_cast<unsigned long long>(g.pickup_wait_count),
      static_cast<unsigned long long>(g.pickup_wait_sum),
      static_cast<unsigned long long>(g.detour_ratio_count),
      static_cast<unsigned long long>(g.detour_ratio_sum));
  return buf;
}

void ExpectGolden(const SimulationReport& r, const Golden& expected) {
  const Golden actual = Capture(r);
  EXPECT_EQ(actual, expected) << "actual report:\n" << ToInitializer(actual);
}

roadnet::RoadNetwork MakeGraph() {
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = 23;
  auto g = roadnet::MakeCityGrid(gopts);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::vector<Trip> MakeTrips(const roadnet::RoadNetwork& graph,
                            size_t num_trips, double duration_s,
                            uint64_t seed) {
  HotspotWorkloadOptions wopts;
  wopts.num_trips = num_trips;
  wopts.duration_s = duration_s;
  wopts.seed = seed;
  auto trips = GenerateHotspotTrips(graph, wopts);
  EXPECT_TRUE(trips.ok());
  return std::move(trips).value();
}

core::Config BusyConfig() {
  core::Config cfg;
  cfg.matcher = core::MatcherAlgorithm::kDualSide;
  cfg.vehicle_capacity = 3;
  cfg.default_max_wait_s = 330.0;
  cfg.default_service_sigma = 0.45;
  cfg.max_planned_pickup_s = 600.0;
  cfg.pricing_policy = core::PricingPolicyKind::kSurge;
  cfg.surge_baseline_rate_per_min = 1.0;
  // The 2-thread ParallelDispatcher.
  cfg.dispatch_threads = 2;
  return cfg;
}

SimulatorOptions BusyOptions(uint64_t seed) {
  SimulatorOptions sopts;
  sopts.seed = seed;
  sopts.choice.model = RiderChoiceModel::kWeightedUtility;
  sopts.choice.accept_price_over_floor = 3.0;
  return sopts;
}

// --- (a) A fleet that only cruises idle --------------------------------------

// No demand: every movement is the cruise walk, the only consumer of the
// simulator's RNG inside movement. The fleet distance pins the whole
// draw sequence.
TEST(MovementGoldenTest, IdleCruisingFleet) {
  const roadnet::RoadNetwork graph = MakeGraph();
  constexpr Golden kGolden = {0, 0, 0, 0, 0, 0,
                              0x0000000000000000ULL, 0x4125c0f29bf1a3deULL,
                              0x0000000000000000ULL, 0x0000000000000000ULL,
                              0, 0x0000000000000000ULL, 0,
                              0x0000000000000000ULL};
  for (const int move_jobs : {1, 2}) {
    SCOPED_TRACE("move_jobs " + std::to_string(move_jobs));
    core::Config cfg;
    auto sys = core::PTRider::Create(graph, cfg);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(60, /*seed=*/9).ok());
    SimulatorOptions sopts;
    sopts.seed = 5;
    sopts.end_time_s = 900.0;
    sopts.move_jobs = move_jobs;
    Simulator sim(**sys, sopts);
    auto report = sim.Run({});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectGolden(*report, kGolden);
  }
}

// --- (b) A busy batched city across every concurrency knob -------------------

TEST(MovementGoldenTest, BusyBatchedCityAcrossKnobs) {
  const roadnet::RoadNetwork graph = MakeGraph();
  const std::vector<Trip> trips = MakeTrips(graph, 120, 1200.0, 211);
  constexpr Golden kGolden = {120, 109, 6, 5, 109, 67,
                              0x40672a61df0d83efULL, 0x413209c887049404ULL,
                              0x410677654bc51084ULL, 0x40ea8797e2b9e9cfULL,
                              109, 0x4087765455a72a3bULL, 109,
                              0x405dd7ffb2f84a7dULL};
  for (const int move_jobs : {1, 2}) {
    SCOPED_TRACE("move_jobs " + std::to_string(move_jobs));
    auto sys = core::PTRider::Create(graph, BusyConfig());
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(30, /*seed=*/3).ok());
    SimulatorOptions sopts = BusyOptions(3);
    sopts.batch_window_s = 4.0;
    sopts.move_jobs = move_jobs;
    Simulator sim(**sys, sopts);
    auto report = sim.Run(trips);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectGolden(*report, kGolden);
  }
}

// --- (c) Fractional ticks, last tick clamped ---------------------------------

// tick_s = 0.7 gives budgets that differ in their last bits from tick to
// tick, and end_time_s = 1000 is no multiple of it, so the final tick is
// clamped to a shorter budget. One dispatch window per tick.
TEST(MovementGoldenTest, FractionalTicksWithClampedEnd) {
  const roadnet::RoadNetwork graph = MakeGraph();
  const std::vector<Trip> trips = MakeTrips(graph, 90, 800.0, 17);
  constexpr Golden kGolden = {90, 80, 4, 6, 69, 45,
                              0x405c546952591c5cULL, 0x4114f4f90c250a6dULL,
                              0x40ffb90bc93ece7fULL, 0x40e478076f121850ULL,
                              78, 0x40895f406962b992ULL, 69,
                              0x4052f83e473fddc8ULL};
  for (const int move_jobs : {1, 2}) {
    SCOPED_TRACE("move_jobs " + std::to_string(move_jobs));
    auto sys = core::PTRider::Create(graph, BusyConfig());
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(26, /*seed=*/17).ok());
    SimulatorOptions sopts = BusyOptions(17);
    sopts.tick_s = 0.7;
    sopts.end_time_s = 1000.0;
    sopts.move_jobs = move_jobs;
    Simulator sim(**sys, sopts);
    auto report = sim.Run(trips);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->simulated_seconds, 1000.0);
    ExpectGolden(*report, kGolden);
  }
}

// --- (d) The stepping API with irregular tick gaps ---------------------------

/// Drives BeginStepping / StepWindow / AdvanceTick / FinishStepping with
/// tick gaps cycling through `kGaps`: zero-length ticks (no budget),
/// sub-second ones, and gaps long enough that every vehicle crosses at
/// least one vertex. Every third step is a window boundary.
SimulationReport RunStepped(const roadnet::RoadNetwork& graph,
                            const std::vector<Trip>& trips, int move_jobs) {
  static constexpr double kGaps[] = {1.0, 0.35, 2.6, 0.0, 7.9,
                                     1.3, 31.0, 0.05, 4.4};
  auto sys = core::PTRider::Create(graph, BusyConfig());
  EXPECT_TRUE(sys.ok());
  EXPECT_TRUE((*sys)->InitFleetUniform(40, /*seed=*/29).ok());
  SimulatorOptions sopts = BusyOptions(29);
  sopts.batch_window_s = 4.0;
  sopts.move_jobs = move_jobs;
  Simulator sim(**sys, sopts);
  EXPECT_TRUE(sim.BeginStepping().ok());

  SimulationReport report;
  const double end_time = trips.back().time_s + 600.0;
  std::vector<vehicle::Request> pending;
  size_t next_trip = 0;
  double now = 0.0;
  for (size_t step = 0; now < end_time; ++step) {
    const double prev = now;
    now = std::min(end_time, now + kGaps[step % std::size(kGaps)]);
    while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
      const vehicle::Request r = sim.MakeRequest(trips[next_trip++]);
      EXPECT_TRUE((*sys)->ValidateRequest(r).ok());
      pending.push_back(r);
    }
    if (step % 3 == 0 || now >= end_time) {
      std::vector<vehicle::Request> batch;
      batch.swap(pending);
      auto items = sim.StepWindow(std::move(batch), prev, now, report);
      EXPECT_TRUE(items.ok()) << items.status().ToString();
    } else {
      const util::Status moved = sim.AdvanceTick(prev, now, report);
      EXPECT_TRUE(moved.ok()) << moved.ToString();
    }
  }
  EXPECT_TRUE(sim.FinishStepping(report).ok());
  EXPECT_TRUE(pending.empty());
  for (const vehicle::Vehicle& v : (*sys)->fleet().vehicles()) {
    report.fleet_total_distance_m += v.total_distance_m();
    report.fleet_occupied_distance_m += v.occupied_distance_m();
    report.fleet_shared_distance_m += v.shared_distance_m();
  }
  return report;
}

TEST(MovementGoldenTest, SteppingApiWithIrregularGaps) {
  const roadnet::RoadNetwork graph = MakeGraph();
  const std::vector<Trip> trips = MakeTrips(graph, 150, 700.0, 41);
  constexpr Golden kGolden = {150, 109, 5, 36, 109, 86,
                              0x4065d194039132a0ULL, 0x4124e6e855a9d2b4ULL,
                              0x41058ee3abc17096ULL, 0x40f227bda07495a9ULL,
                              109, 0x4093181b6b984ef2ULL, 109,
                              0x405ee0a323c43b93ULL};
  for (const int move_jobs : {1, 2}) {
    SCOPED_TRACE("move_jobs " + std::to_string(move_jobs));
    ExpectGolden(RunStepped(graph, trips, move_jobs), kGolden);
  }
}

}  // namespace
}  // namespace ptrider::sim
