// Overload-storm robustness: deterministic fault injection, the
// graceful-degradation ladder and per-zone admission, end to end
// through DispatchService (DESIGN.md section 14).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "raw_bit_pin.h"
#include "roadnet/graph_generator.h"
#include "service/dispatch_service.h"
#include "service/fault_injector.h"
#include "sim/workload.h"
#include "util/random.h"

namespace ptrider::service {
namespace {

struct ServiceFixture {
  roadnet::RoadNetwork graph;
  std::unique_ptr<core::PTRider> system;
};

ServiceFixture MakeFixture(size_t vehicles, int dispatch_threads,
                           uint64_t seed = 11) {
  ServiceFixture f;
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = seed;
  auto g = roadnet::MakeCityGrid(gopts);
  EXPECT_TRUE(g.ok());
  f.graph = std::move(g).value();

  core::Config cfg;
  cfg.matcher = core::MatcherAlgorithm::kDualSide;
  cfg.dispatch_threads = dispatch_threads;
  cfg.default_max_wait_s = 360.0;
  cfg.max_planned_pickup_s = 600.0;
  auto sys = core::PTRider::Create(f.graph, cfg);
  EXPECT_TRUE(sys.ok());
  f.system = std::move(sys).value();
  EXPECT_TRUE(f.system->InitFleetUniform(vehicles, seed).ok());
  return f;
}

/// The full storm configuration the acceptance criteria pin: a 3x
/// arrival burst plus every other fault kind, retries, ladder and zone
/// admission all on.
FaultInjectorOptions StormFaults(uint64_t seed) {
  FaultInjectorOptions fx;
  fx.seed = seed;
  fx.burst_count = 1;
  fx.burst_duration_s = 40.0;
  fx.burst_rate_per_s = 4.0;  // on top of base 2.0/s: 3x offered
  fx.cost_spike_count = 1;
  fx.cost_spike_duration_s = 15.0;
  fx.cost_spike_factor = 2.0;
  fx.stall_count = 1;
  fx.stall_duration_s = 4.0;
  fx.squeeze_count = 1;
  fx.squeeze_duration_s = 15.0;
  fx.squeeze_capacity_frac = 0.3;
  fx.malformed_count = 5;
  fx.expired_count = 5;
  fx.expired_age_s = 120.0;
  return fx;
}

ServiceOptions StormOptions(bool ladder_on) {
  ServiceOptions opts;
  opts.batch_window_s = 2.0;
  opts.drain_s = 120.0;
  opts.queue_capacity = 512;
  opts.shed_deadline_s = 12.0;
  opts.assign_cost_s = 0.4;  // capacity 2.5/s vs base 2.0/s: near the knee
  opts.quote_cost_s = 0.02;
  opts.ingest_retry.max_attempts = 2;
  opts.ladder.enabled = ladder_on;
  opts.ladder.target_delay_s = 3.0;
  opts.ladder.interval_s = 8.0;
  opts.zone_admission.zones = 4;
  opts.zone_admission.fair_factor = 2.0;
  opts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
  return opts;
}

util::Result<ServiceReport> RunStorm(int dispatch_threads, uint64_t seed,
                                     bool ladder_on) {
  ServiceFixture f = MakeFixture(40, dispatch_threads);
  PoissonArrivalOptions load;
  load.rate_per_s = 2.0;
  load.duration_s = 180.0;
  load.seed = seed;
  PoissonArrivals process(f.graph, load);
  FaultInjector injector(f.graph, StormFaults(seed + 13),
                         load.duration_s);
  ServiceOptions opts = StormOptions(ladder_on);
  opts.fault_injector = &injector;
  DispatchService server(*f.system, opts);
  return server.Run(process);
}

/// Byte-wise comparable snapshot of the full storm report, the new
/// degradation/fault funnel included (wall-clock fields excluded).
struct StormSnapshot {
  uint64_t offered, ingested, rejected, shed, shed_deadline, shed_zone;
  uint64_t malformed, dispatched, assigned, retried, gave_up;
  uint64_t faults_injected, faults_absorbed;
  uint64_t degraded_batches, escalations;
  int max_rung;
  double stall_s;
  std::array<double, kNumRungs> rung_s;
  std::vector<uint64_t> shed_by_zone;
  double q_p50, q_p99, a_p50, a_p99;
  int64_t sim_assigned, sim_completed, sim_shared;
  double revenue, fleet_m;

  bool operator==(const StormSnapshot&) const = default;
};

StormSnapshot Snap(const ServiceReport& r) {
  StormSnapshot s{};
  s.offered = r.service.offered;
  s.ingested = r.service.ingested;
  s.rejected = r.service.rejected;
  s.shed = r.service.shed;
  s.shed_deadline = r.service.shed_deadline;
  s.shed_zone = r.service.shed_zone;
  s.malformed = r.service.malformed;
  s.dispatched = r.service.dispatched;
  s.assigned = r.service.assigned;
  s.retried = r.service.retried;
  s.gave_up = r.service.retry_gave_up;
  s.faults_injected = r.service.faults_injected;
  s.faults_absorbed = r.service.faults_absorbed;
  s.degraded_batches = r.service.degraded_batches;
  s.escalations = r.service.ladder_escalations;
  s.max_rung = r.service.max_rung;
  s.stall_s = r.service.fault_stall_s;
  s.rung_s = r.service.time_in_rung_s;
  s.shed_by_zone = r.service.shed_by_zone;
  s.q_p50 = r.service.quote_latency_s.Value(50);
  s.q_p99 = r.service.quote_latency_s.Value(99);
  s.a_p50 = r.service.assign_latency_s.Value(50);
  s.a_p99 = r.service.assign_latency_s.Value(99);
  s.sim_assigned = r.sim.requests_assigned;
  s.sim_completed = r.sim.requests_completed;
  s.sim_shared = r.sim.requests_shared;
  s.revenue = r.sim.revenue_total;
  s.fleet_m = r.sim.fleet_total_distance_m;
  return s;
}

/// `s` as raw-bit words, in field order (the zone and rung arrays
/// element by element).
pin::Words SnapWords(const StormSnapshot& s) {
  pin::Words w = {s.offered,
                  s.ingested,
                  s.rejected,
                  s.shed,
                  s.shed_deadline,
                  s.shed_zone,
                  s.malformed,
                  s.dispatched,
                  s.assigned,
                  s.retried,
                  s.gave_up,
                  s.faults_injected,
                  s.faults_absorbed,
                  s.degraded_batches,
                  s.escalations,
                  static_cast<uint64_t>(s.max_rung),
                  pin::Bits(s.stall_s)};
  for (const double r : s.rung_s) w.push_back(pin::Bits(r));
  w.insert(w.end(), s.shed_by_zone.begin(), s.shed_by_zone.end());
  for (const double x : {s.q_p50, s.q_p99, s.a_p50, s.a_p99}) {
    w.push_back(pin::Bits(x));
  }
  for (const int64_t n : {s.sim_assigned, s.sim_completed, s.sim_shared}) {
    w.push_back(pin::Bits(n));
  }
  w.push_back(pin::Bits(s.revenue));
  w.push_back(pin::Bits(s.fleet_m));
  return w;
}

// The acceptance bit-identity: a full storm — faults, retries, ladder,
// zone quotas, all engaged — replays to the identical report across
// dispatch thread counts and across seeds, in virtual-clock mode. The
// pinned words are the answer of the former dispatch_threads = 0 path,
// which ran rung-0 batches one request at a time and degraded ones
// through a second, ladder-only dispatcher.
TEST(ServiceStormTest, StormReportBitIdenticalAcrossThreadsAndSeeds) {
  const std::vector<std::pair<uint64_t, pin::Words>> pins = {
      {7,
       {0x0000000000000187ULL, 0x000000000000022fULL, 0x0000000000000000ULL,
        0x0000000000000030ULL, 0x0000000000000005ULL, 0x000000000000002bULL,
        0x0000000000000005ULL, 0x00000000000001faULL, 0x0000000000000154ULL,
        0x0000000000000000ULL, 0x0000000000000000ULL, 0x00000000000000a8ULL,
        0x0000000000000009ULL, 0x0000000000000028ULL, 0x0000000000000006ULL,
        0x0000000000000003ULL, 0x4010000000000000ULL, 0x406b800000000000ULL,
        0x4044000000000000ULL, 0x4040000000000000ULL, 0x4020000000000000ULL,
        0x000000000000000aULL, 0x000000000000000cULL, 0x0000000000000012ULL,
        0x0000000000000008ULL, 0x4011b7a203201832ULL, 0x40242a208e04fb75ULL,
        0x401300b073117dbcULL, 0x4025078177202b75ULL, 0x0000000000000154ULL,
        0x0000000000000058ULL, 0x0000000000000044ULL, 0x4056ac1e1d0db89dULL,
        0x4102eaa836c4e612ULL}},
      {19,
       {0x0000000000000164ULL, 0x000000000000020cULL, 0x0000000000000000ULL,
        0x0000000000000044ULL, 0x000000000000002cULL, 0x0000000000000018ULL,
        0x0000000000000005ULL, 0x00000000000001c3ULL, 0x0000000000000136ULL,
        0x0000000000000000ULL, 0x0000000000000000ULL, 0x00000000000000a8ULL,
        0x0000000000000009ULL, 0x0000000000000024ULL, 0x0000000000000005ULL,
        0x0000000000000003ULL, 0x4010000000000000ULL, 0x406c800000000000ULL,
        0x4040000000000000ULL, 0x4038000000000000ULL, 0x4030000000000000ULL,
        0x0000000000000012ULL, 0x000000000000000eULL, 0x0000000000000013ULL,
        0x0000000000000011ULL, 0x400edfc73d6ab3ffULL, 0x4027eff28ff16d4aULL,
        0x4010cf040efb70d2ULL, 0x40287e1ee27eed7cULL, 0x0000000000000136ULL,
        0x000000000000005bULL, 0x000000000000003dULL, 0x4052ca7727055ef3ULL,
        0x41030b0d9974b879ULL}},
  };
  for (const auto& [seed, expected] : pins) {
    for (const int threads : {1, 2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      auto run = RunStorm(threads, seed, /*ladder_on=*/true);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const StormSnapshot snap = Snap(*run);
      EXPECT_GT(snap.offered, 0u);
      EXPECT_GT(snap.faults_injected, 0u);
      EXPECT_GT(snap.degraded_batches, 0u)
          << "storm too mild: the ladder never engaged, the test is "
             "vacuous";
      EXPECT_EQ(SnapWords(snap), expected)
          << "actual report:\n" << pin::ToInitializer(SnapWords(snap));
    }
  }
}

// The ladder's reason to exist: under the injected 3x burst it sustains
// strictly higher goodput than hard shedding alone, without paying for
// it in tail latency (both are bounded by the same hard deadline; the
// ladder's cheaper service can only pull the tail in).
TEST(ServiceStormTest, LadderBeatsHardSheddingUnderBurst) {
  auto ladder = RunStorm(1, 7, /*ladder_on=*/true);
  auto hard = RunStorm(1, 7, /*ladder_on=*/false);
  ASSERT_TRUE(ladder.ok()) << ladder.status().ToString();
  ASSERT_TRUE(hard.ok()) << hard.status().ToString();
  EXPECT_GT(ladder->service.assigned, hard->service.assigned);
  EXPECT_GT(ladder->service.GoodputRps(), hard->service.GoodputRps());
  EXPECT_LE(ladder->service.assign_latency_s.Value(99),
            hard->service.assign_latency_s.Value(99) + 1e-6);
  // And it was really the ladder: the hard run never degrades.
  EXPECT_GT(ladder->service.degraded_batches, 0u);
  EXPECT_EQ(hard->service.degraded_batches, 0u);
  EXPECT_EQ(hard->service.max_rung, 0);
}

// Every request offered by the driver or injected by a fault lands in
// exactly one funnel bucket, even mid-storm.
TEST(ServiceStormTest, StormFunnelInvariants) {
  auto run = RunStorm(2, 19, /*ladder_on=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ServiceStats& s = run->service;
  EXPECT_EQ(s.offered + s.faults_injected, s.ingested + s.rejected);
  EXPECT_EQ(s.ingested, s.malformed + s.shed + s.dispatched);
  EXPECT_EQ(s.shed, s.shed_deadline + s.shed_zone);
  EXPECT_LE(s.assigned, s.dispatched);
  EXPECT_EQ(s.dispatched, static_cast<uint64_t>(run->sim.requests_submitted));
  // The malformed injections were absorbed, not fatal (this run
  // completing at all is most of the point).
  EXPECT_GT(s.malformed, 0u);
  EXPECT_GT(s.faults_absorbed, 0u);
  // Zone partition accounting is live.
  uint64_t zone_total = 0;
  for (const uint64_t z : s.shed_by_zone) zone_total += z;
  EXPECT_EQ(zone_total, s.shed);
}

// Per-zone admission: a hot zone hammering the city must not starve the
// cold zones. With fair_factor on, the cold zone sheds (strictly) less
// than under the pure-deadline regime where the hot zone's backlog
// delays everyone.
TEST(ServiceStormTest, ZoneQuotaProtectsColdZones) {
  const auto run_hotspot = [&](double fair_factor)
      -> util::Result<ServiceReport> {
    ServiceFixture f = MakeFixture(40, 1);
    const roadnet::GridIndex& grid = f.system->grid();
    const size_t num_cells = grid.NumCells();
    const size_t zones = 4;
    const auto zone_of = [&](roadnet::VertexId v) {
      return static_cast<size_t>(grid.CellOfVertex(v)) * zones / num_cells;
    };
    // Classify vertices by zone, then build a trace: the hot zone fires
    // 8 requests/s, each cold zone a background 0.25/s.
    std::vector<std::vector<roadnet::VertexId>> by_zone(zones);
    for (size_t v = 0; v < f.graph.NumVertices(); ++v) {
      by_zone[zone_of(static_cast<roadnet::VertexId>(v))].push_back(
          static_cast<roadnet::VertexId>(v));
    }
    for (const auto& z : by_zone) {
      EXPECT_GT(z.size(), 1u) << "zone partition degenerate";
    }
    std::vector<sim::Trip> trips;
    util::Rng rng(91);
    const double duration = 60.0;
    const auto add_zone_load = [&](size_t zone, double rate) {
      double t = 0.0;
      while (true) {
        t += rng.Exponential(rate);
        if (t > duration) break;
        sim::Trip trip;
        trip.time_s = t;
        const auto& verts = by_zone[zone];
        trip.origin = verts[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(verts.size()) - 1))];
        trip.destination = trip.origin;
        while (trip.destination == trip.origin) {
          trip.destination = verts[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(verts.size()) - 1))];
        }
        trip.num_riders = 1;
        trips.push_back(trip);
      }
    };
    add_zone_load(0, 6.0);  // the hot zone
    for (size_t z = 1; z < zones; ++z) add_zone_load(z, 0.25);
    TraceArrivals process(std::move(trips));

    ServiceOptions opts;
    opts.batch_window_s = 2.0;
    opts.drain_s = 120.0;
    opts.queue_capacity = 4096;
    opts.shed_deadline_s = 8.0;
    opts.assign_cost_s = 0.8;  // capacity 1.25/s vs ~6.75/s offered
    opts.zone_admission.zones = zones;
    opts.zone_admission.fair_factor = fair_factor;
    opts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
    DispatchService server(*f.system, opts);
    return server.Run(process);
  };

  auto fair = run_hotspot(1.0);
  auto unfair = run_hotspot(0.0);  // partition kept for accounting only
  ASSERT_TRUE(fair.ok()) << fair.status().ToString();
  ASSERT_TRUE(unfair.ok()) << unfair.status().ToString();
  ASSERT_EQ(fair->service.shed_by_zone.size(), 4u);
  ASSERT_EQ(unfair->service.shed_by_zone.size(), 4u);
  uint64_t cold_fair = 0, cold_unfair = 0;
  for (size_t z = 1; z < 4; ++z) {
    cold_fair += fair->service.shed_by_zone[z];
    cold_unfair += unfair->service.shed_by_zone[z];
  }
  // The quota must bite the hot zone...
  EXPECT_GT(fair->service.shed_zone, 0u);
  EXPECT_EQ(unfair->service.shed_zone, 0u);
  // ...and spare the cold ones.
  EXPECT_LT(cold_fair, cold_unfair);
}

}  // namespace
}  // namespace ptrider::service
