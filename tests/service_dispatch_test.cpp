#include "service/dispatch_service.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "raw_bit_pin.h"
#include "roadnet/graph_generator.h"
#include "service/admission.h"
#include "sim/workload.h"

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

PoissonArrivalOptions ModestLoad() {
  PoissonArrivalOptions a;
  a.rate_per_s = 1.5;
  a.duration_s = 120.0;
  a.seed = 77;
  return a;
}

/// Byte-wise comparable snapshot of everything a virtual-clock run
/// promises to be deterministic (wall-clock fields excluded).
struct Snapshot {
  uint64_t offered, ingested, rejected, shed, dispatched, assigned;
  uint64_t max_depth;
  double q_p50, q_p99, q_p999, a_p50, a_p99, a_p999;
  int64_t sim_assigned, sim_completed, sim_shared;
  double revenue, fleet_m;

  bool operator==(const Snapshot&) const = default;
};

Snapshot Snap(const ServiceReport& r) {
  Snapshot s{};
  s.offered = r.service.offered;
  s.ingested = r.service.ingested;
  s.rejected = r.service.rejected;
  s.shed = r.service.shed;
  s.dispatched = r.service.dispatched;
  s.assigned = r.service.assigned;
  s.max_depth = r.service.max_queue_depth;
  s.q_p50 = r.service.quote_latency_s.Value(50);
  s.q_p99 = r.service.quote_latency_s.Value(99);
  s.q_p999 = r.service.quote_latency_s.Value(99.9);
  s.a_p50 = r.service.assign_latency_s.Value(50);
  s.a_p99 = r.service.assign_latency_s.Value(99);
  s.a_p999 = r.service.assign_latency_s.Value(99.9);
  s.sim_assigned = r.sim.requests_assigned;
  s.sim_completed = r.sim.requests_completed;
  s.sim_shared = r.sim.requests_shared;
  s.revenue = r.sim.revenue_total;
  s.fleet_m = r.sim.fleet_total_distance_m;
  return s;
}

/// `s` as raw-bit words, in field order.
pin::Words SnapWords(const Snapshot& s) {
  return {s.offered,
          s.ingested,
          s.rejected,
          s.shed,
          s.dispatched,
          s.assigned,
          s.max_depth,
          pin::Bits(s.q_p50),
          pin::Bits(s.q_p99),
          pin::Bits(s.q_p999),
          pin::Bits(s.a_p50),
          pin::Bits(s.a_p99),
          pin::Bits(s.a_p999),
          pin::Bits(s.sim_assigned),
          pin::Bits(s.sim_completed),
          pin::Bits(s.sim_shared),
          pin::Bits(s.revenue),
          pin::Bits(s.fleet_m)};
}

ServiceReport RunOnce(int dispatch_threads, size_t queue_capacity,
                      double shed_deadline_s = 10.0,
                      double assign_cost_s = 0.05) {
  ServiceFixture f = MakeFixture(30, dispatch_threads);
  ServiceOptions opts;
  opts.batch_window_s = 2.0;
  opts.drain_s = 120.0;
  opts.queue_capacity = queue_capacity;
  opts.shed_deadline_s = shed_deadline_s;
  opts.assign_cost_s = assign_cost_s;
  opts.quote_cost_s = 0.01;
  opts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
  DispatchService server(*f.system, opts);
  PoissonArrivals process(f.graph, ModestLoad());
  auto report = server.Run(process);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

// The virtual-clock determinism contract (DESIGN.md section 11): same
// seed, same options => bit-identical service report, across repeats,
// dispatch thread counts and queue capacities that never fill. The
// pinned words are the answer of one-at-a-time dispatch (the sequential
// dispatcher's dispatch_threads = 0, before it moved into the tests).
TEST(DispatchServiceTest, VirtualClockDeterministicAcrossThreadsAndRepeats) {
  const pin::Words expected = {
      0x00000000000000bcULL, 0x00000000000000bcULL, 0x0000000000000000ULL,
      0x0000000000000000ULL, 0x00000000000000bcULL, 0x00000000000000b8ULL,
      0x0000000000000008ULL, 0x3ff20c353e1711e9ULL, 0x3fffd75360ad2ca7ULL,
      0x40000f7296b5d1d0ULL, 0x3ff2a3f4357d3bbaULL, 0x40003ee8eda6fe2eULL,
      0x40006166d3b90505ULL, 0x00000000000000b8ULL, 0x0000000000000025ULL,
      0x0000000000000013ULL, 0x403f8424fa83d179ULL, 0x40f6736d6a40b4f3ULL};
  const Snapshot reference = Snap(RunOnce(1, 4096));
  EXPECT_GT(reference.offered, 0u);
  EXPECT_GT(reference.assigned, 0u);
  EXPECT_EQ(SnapWords(reference), expected)
      << "actual report:\n" << pin::ToInitializer(SnapWords(reference));
  for (const int threads : {1, 2}) {
    for (const size_t cap : {size_t{4096}, size_t{1 << 16}}) {
      const Snapshot s = Snap(RunOnce(threads, cap));
      EXPECT_TRUE(reference == s) << "threads=" << threads << " cap=" << cap;
    }
  }
}

// Every offered request lands in exactly one bucket of the admission
// funnel, and only dispatched ones can be assigned.
TEST(DispatchServiceTest, AdmissionFunnelAccounting) {
  const ServiceReport r = RunOnce(1, 64, /*shed_deadline_s=*/5.0,
                                  /*assign_cost_s=*/1.0);
  const ServiceStats& s = r.service;
  EXPECT_EQ(s.offered, s.ingested + s.rejected);
  EXPECT_EQ(s.ingested, s.shed + s.dispatched);
  EXPECT_LE(s.assigned, s.dispatched);
  EXPECT_EQ(s.dispatched, static_cast<uint64_t>(r.sim.requests_submitted));
  // assign_cost 1.0 => capacity 1/s against offered 1.5/s: the backlog
  // outgrows the 5s deadline within seconds, so the shedder must have
  // engaged — or the whole overload path went untested.
  EXPECT_GT(s.shed + s.rejected, 0u);
}

// With a deadline shedder, every dispatched request's modeled start
// delay is <= deadline, so quote latency is bounded by deadline +
// quote_cost and assign latency by deadline + assign_cost.
TEST(DispatchServiceTest, DeadlineShedderBoundsLatency) {
  const double deadline = 5.0;
  const double assign_cost = 1.0;  // capacity 1/s against offered 1.5/s
  const double quote_cost = 0.01;
  const ServiceReport r =
      RunOnce(1, 4096, deadline, assign_cost);
  const ServiceStats& s = r.service;
  EXPECT_GT(s.shed, 0u);
  const double slack = 1e-9;
  EXPECT_LE(s.quote_latency_s.Value(100), deadline + quote_cost + slack);
  EXPECT_LE(s.assign_latency_s.Value(100), deadline + assign_cost + slack);
}

// AdmitAll at an over-capacity rate: nothing shed, the backlog grows,
// and tail latency blows far past what the shedder would allow — the
// contrast that makes the knee visible in bench_e19.
TEST(DispatchServiceTest, AdmitAllLetsLatencyGrowUnderOverload) {
  const ServiceReport r = RunOnce(1, 1 << 16, /*shed_deadline_s=*/0.0,
                                  /*assign_cost_s=*/1.0);
  const ServiceStats& s = r.service;
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.rejected, 0u);
  // Offered 1.5/s against capacity 1/s for 120s: the final backlog is
  // tens of seconds, far beyond the 5s deadline profile.
  EXPECT_GT(s.quote_latency_s.Value(99), 10.0);
}

TEST(DispatchServiceTest, TinyQueueRejectsOverflow) {
  const ServiceReport r = RunOnce(1, 2);
  EXPECT_GT(r.service.rejected, 0u);
  EXPECT_EQ(r.service.offered, r.service.ingested + r.service.rejected);
}

TEST(DispatchServiceTest, RunIsOneShot) {
  ServiceFixture f = MakeFixture(10, 1);
  ServiceOptions opts;
  DispatchService server(*f.system, opts);
  PoissonArrivalOptions load;
  load.rate_per_s = 0.5;
  load.duration_s = 10.0;
  PoissonArrivals first(f.graph, load);
  ASSERT_TRUE(server.Run(first).ok());
  PoissonArrivals second(f.graph, load);
  EXPECT_FALSE(server.Run(second).ok());
}

// The service's clock options must be finite: an infinite window or
// drain, a NaN one, or a NaN tick is refused before the run starts. So
// are a NaN or infinite modeled cost or deadline, which would reach the
// latency percentiles, and in wall-clock mode a scale that is not
// finite and positive, which the clock cannot run at.
TEST(DispatchServiceTest, RejectsNonFiniteClockOptions) {
  ServiceFixture f = MakeFixture(10, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ServiceOptions> bad;
  for (const double seconds : {nan, inf, 0.0, -1.0}) {
    bad.emplace_back().batch_window_s = seconds;
  }
  for (const double seconds : {nan, inf, -1.0}) {
    bad.emplace_back().drain_s = seconds;
  }
  for (const double tick : {nan, inf}) {
    bad.emplace_back().tick_s = tick;
  }
  for (const double cost : {nan, inf, -1.0}) {
    bad.emplace_back().assign_cost_s = cost;
    bad.emplace_back().quote_cost_s = cost;
  }
  for (const double deadline : {nan, inf, -inf}) {
    bad.emplace_back().shed_deadline_s = deadline;
  }
  for (const double scale : {nan, inf, 0.0, -1.0}) {
    ServiceOptions& wall = bad.emplace_back();
    wall.virtual_clock = false;
    wall.wall_time_scale = scale;
    wall.drain_s = 0.0;  // a run that is not refused stays short
  }
  PoissonArrivalOptions load;
  load.rate_per_s = 0.5;
  load.duration_s = 10.0;
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    DispatchService server(*f.system, bad[i]);
    PoissonArrivals process(f.graph, load);
    EXPECT_EQ(server.Run(process).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

// The service steps Simulator::Run's tick clock, so it refuses a horizon
// beyond 2^53 ticks the same way (sim::TickClock::Make): a finite 1e30 s
// drain is refused, not converted out of int64_t range.
TEST(DispatchServiceTest, RejectsHorizonBeyondTickRange) {
  ServiceFixture f = MakeFixture(10, 1);
  ServiceOptions opts;
  opts.virtual_clock = true;
  opts.drain_s = 1e30;
  DispatchService server(*f.system, opts);
  PoissonArrivalOptions load;
  load.rate_per_s = 0.5;
  load.duration_s = 10.0;
  PoissonArrivals process(f.graph, load);
  EXPECT_EQ(server.Run(process).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(DispatchServiceTest, QuoteReturnsOptionsWithoutCommitting) {
  ServiceFixture f = MakeFixture(20, 1);
  ServiceOptions opts;
  DispatchService server(*f.system, opts);
  sim::Trip probe;
  probe.origin = 0;
  probe.destination = static_cast<roadnet::VertexId>(
      f.graph.NumVertices() - 1);
  auto quote = server.Quote(probe, 0.0);
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  EXPECT_GT(quote->direct_distance_m, 0.0);
  // Quoting commits nothing: every vehicle still has an empty schedule.
  for (const vehicle::Vehicle& v : f.system->fleet().vehicles()) {
    EXPECT_TRUE(v.IsEmpty());
  }
}

// Wall-clock mode end to end (heavily compressed): the producer thread,
// the shared clock and the per-worker quote observers all engage — the
// TSan job runs this. No determinism assertions by design: wall mode is
// measurement.
TEST(DispatchServiceTest, WallClockSmoke) {
  ServiceFixture f = MakeFixture(20, 2);
  ServiceOptions opts;
  opts.virtual_clock = false;
  opts.wall_time_scale = 600.0;  // 60 simulated seconds in ~0.1s of wall
  opts.batch_window_s = 2.0;
  opts.drain_s = 30.0;
  DispatchService server(*f.system, opts);
  PoissonArrivalOptions load;
  load.rate_per_s = 1.0;
  load.duration_s = 60.0;
  load.seed = 5;
  PoissonArrivals process(f.graph, load);
  auto report = server.Run(process);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceStats& s = report->service;
  EXPECT_GT(s.offered, 0u);
  EXPECT_EQ(s.offered, s.ingested + s.rejected);
  EXPECT_EQ(s.ingested, s.shed + s.dispatched);
  if (s.assigned > 0) {
    EXPECT_GT(s.assign_latency_s.count(), 0u);
  }
}

TEST(AdaptiveAdmissionTest, DeadlineIsAlwaysOnHardBound) {
  AdaptiveAdmission a(5.0, LadderOptions{}, ZoneAdmissionOptions{});
  a.BeginDrain(2.0, 1, 6.0, 0, 0.0);
  EXPECT_EQ(a.Admit(6.0, 0), ShedReason::kDeadline);
  EXPECT_EQ(a.Admit(4.0, 0), ShedReason::kAdmit);
  // deadline <= 0 disables the hard bound entirely.
  AdaptiveAdmission open(0.0, LadderOptions{}, ZoneAdmissionOptions{});
  open.BeginDrain(2.0, 1, 100.0, 0, 0.0);
  EXPECT_EQ(open.Admit(100.0, 0), ShedReason::kAdmit);
}

TEST(AdaptiveAdmissionTest, LadderEscalatesOnStandingDelayOnly) {
  LadderOptions ladder;
  ladder.enabled = true;
  ladder.target_delay_s = 2.0;
  ladder.interval_s = 10.0;
  AdaptiveAdmission a(60.0, ladder, ZoneAdmissionOptions{});
  EXPECT_EQ(a.rung(), 0);
  // Standing delay above target across whole intervals: one rung per
  // interval boundary, capped at max_rung.
  for (int i = 1; i <= 6; ++i) {
    a.BeginDrain(10.0 * i, 4, 5.0, 0, 0.0);
  }
  EXPECT_EQ(a.rung(), ladder.max_rung);
  EXPECT_EQ(a.max_rung_reached(), ladder.max_rung);
  EXPECT_GE(a.escalations(), 3u);
  // Delay back under target: de-escalates one rung per interval.
  for (int i = 7; i <= 12; ++i) {
    a.BeginDrain(10.0 * i, 4, 0.5, 0, 0.0);
  }
  EXPECT_EQ(a.rung(), 0);
}

TEST(AdaptiveAdmissionTest, BurstDoesNotEscalate) {
  LadderOptions ladder;
  ladder.enabled = true;
  ladder.target_delay_s = 2.0;
  ladder.interval_s = 10.0;
  AdaptiveAdmission a(60.0, ladder, ZoneAdmissionOptions{});
  // A spike in one drain, but some drain in every interval still sees a
  // small minimum: no standing queue, no escalation.
  for (int i = 1; i <= 6; ++i) {
    a.BeginDrain(10.0 * i - 5.0, 4, 50.0, 0, 0.0);
    a.BeginDrain(10.0 * i, 4, 0.5, 0, 0.0);
  }
  EXPECT_EQ(a.rung(), 0);
  EXPECT_EQ(a.escalations(), 0u);
}

TEST(AdaptiveAdmissionTest, ZoneQuotaCapsHotZone) {
  ZoneAdmissionOptions zone;
  zone.zones = 2;
  zone.fair_factor = 1.0;
  zone.trigger_delay_s = 1.0;
  AdaptiveAdmission a(0.0, LadderOptions{}, zone);
  // Behind (min delay above trigger), capacity 4 requests over 2 zones:
  // quota = ceil(1.0 * 4 / 2) = 2 per zone.
  a.BeginDrain(10.0, 8, 2.0, 2, 4.0);
  EXPECT_EQ(a.Admit(2.0, 0), ShedReason::kAdmit);
  EXPECT_EQ(a.Admit(2.0, 0), ShedReason::kAdmit);
  EXPECT_EQ(a.Admit(2.0, 0), ShedReason::kZone);  // hot zone capped
  EXPECT_EQ(a.Admit(2.0, 1), ShedReason::kAdmit);  // cold zone unharmed
  // Not behind: quotas disarmed, the hot zone runs free.
  a.BeginDrain(20.0, 8, 0.5, 2, 4.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.Admit(0.5, 0), ShedReason::kAdmit);
  }
}

TEST(AdaptiveAdmissionTest, DegradeForRungOrdersTheLadder) {
  LadderOptions ladder;
  ladder.probe_branch_cap = 4;
  const core::DegradeMode r0 = DegradeForRung(0, ladder);
  EXPECT_TRUE(r0.IsFull());
  const core::DegradeMode r1 = DegradeForRung(1, ladder);
  EXPECT_TRUE(r1.skip_full_rematch);
  EXPECT_TRUE(r1.effort.IsFullEffort());
  const core::DegradeMode r2 = DegradeForRung(2, ladder);
  EXPECT_TRUE(r2.skip_full_rematch);
  EXPECT_EQ(r2.effort.max_probe_branches, 4u);
  EXPECT_FALSE(r2.effort.empty_vehicle_only);
  const core::DegradeMode r3 = DegradeForRung(3, ladder);
  EXPECT_TRUE(r3.effort.empty_vehicle_only);
  EXPECT_EQ(r3.effort.max_probe_branches, 4u);
}

}  // namespace
}  // namespace ptrider::service
