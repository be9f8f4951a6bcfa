// The parallel dispatcher's headline guarantee: sharded match /
// sequential commit produces BatchItem sequences identical to the
// sequential BatchDispatcher — per request, per option, per committed
// schedule — at every thread count, for every matcher and pricing
// policy, across seeds. Determinism is proven here, not asserted.

#include "dispatch/parallel_dispatcher.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/batch.h"
#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace ptrider::dispatch {
namespace {

using core::BatchItem;
using core::Option;

void ExpectOptionsEqual(const Option& a, const Option& b) {
  EXPECT_EQ(a.vehicle, b.vehicle);
  EXPECT_EQ(a.pickup_distance, b.pickup_distance);
  EXPECT_EQ(a.pickup_time_s, b.pickup_time_s);
  EXPECT_EQ(a.price, b.price);
  EXPECT_EQ(a.new_total_distance, b.new_total_distance);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i], b.schedule[i]);
  }
}

/// Semantic equality of two dispatch outcomes. Wall-clock diagnostics
/// (match_seconds) and effort counters (cache-state dependent) are
/// excluded; everything the rider or the commit path observes must be
/// byte-identical.
void ExpectItemsEqual(const std::vector<BatchItem>& seq,
                      const std::vector<BatchItem>& par) {
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    EXPECT_EQ(seq[i].request.id, par[i].request.id);
    EXPECT_EQ(seq[i].match.direct_distance_m,
              par[i].match.direct_distance_m);
    ASSERT_EQ(seq[i].match.options.size(), par[i].match.options.size());
    for (size_t k = 0; k < seq[i].match.options.size(); ++k) {
      SCOPED_TRACE("option " + std::to_string(k));
      ExpectOptionsEqual(seq[i].match.options[k], par[i].match.options[k]);
    }
    ASSERT_EQ(seq[i].assigned, par[i].assigned);
    if (seq[i].assigned) ExpectOptionsEqual(seq[i].chosen, par[i].chosen);
  }
}

/// Post-dispatch system state must agree too: same assignments, same
/// committed schedules.
void ExpectSystemsEqual(const core::PTRider& a, const core::PTRider& b) {
  ASSERT_EQ(a.fleet().size(), b.fleet().size());
  for (size_t i = 0; i < a.fleet().size(); ++i) {
    const vehicle::Vehicle& va =
        a.fleet().at(static_cast<vehicle::VehicleId>(i));
    const vehicle::Vehicle& vb =
        b.fleet().at(static_cast<vehicle::VehicleId>(i));
    EXPECT_EQ(va.tree().NumPendingRequests(),
              vb.tree().NumPendingRequests());
    if (va.tree().empty() != vb.tree().empty()) {
      ADD_FAILURE() << "vehicle " << i << " schedule presence differs";
      continue;
    }
    if (!va.tree().empty()) {
      const std::vector<vehicle::Stop>& sa = va.tree().BestBranch().stops;
      const std::vector<vehicle::Stop>& sb = vb.tree().BestBranch().stops;
      ASSERT_EQ(sa.size(), sb.size());
      for (size_t k = 0; k < sa.size(); ++k) EXPECT_EQ(sa[k], sb[k]);
    }
  }
}

roadnet::RoadNetwork TestCity() {
  roadnet::CityGridOptions opts;
  opts.rows = 14;
  opts.cols = 14;
  opts.spacing_m = 250.0;
  opts.seed = 11;
  auto g = roadnet::MakeCityGrid(opts);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

core::Config ContendedConfig(core::PricingPolicyKind policy) {
  core::Config cfg;
  cfg.pricing_policy = policy;
  // A surge window short enough (and a baseline low enough) that the
  // multiplier moves *within* a batch — the pricing-snapshot machinery
  // is load-bearing, not decorative.
  cfg.surge_baseline_rate_per_min = 0.5;
  cfg.surge_gain_per_rate = 0.2;
  return cfg;
}

std::vector<vehicle::Request> MakeBatch(const roadnet::RoadNetwork& graph,
                                        const core::Config& cfg,
                                        size_t count, uint64_t seed,
                                        vehicle::RequestId first_id) {
  sim::HotspotWorkloadOptions wopts;
  wopts.num_trips = count;
  wopts.duration_s = 60.0;  // a burst: everything near-simultaneous
  wopts.num_hotspots = 2;
  wopts.seed = seed;
  auto trips = sim::GenerateHotspotTrips(graph, wopts);
  EXPECT_TRUE(trips.ok());
  std::vector<vehicle::Request> batch;
  for (const sim::Trip& t : *trips) {
    vehicle::Request r;
    r.id = first_id++;
    r.start = t.origin;
    r.destination = t.destination;
    r.num_riders = t.num_riders;
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    r.submit_time_s = t.time_s;
    batch.push_back(r);
  }
  return batch;
}

/// Dispatches the same burst sequence through a sequential and a
/// parallel system and demands identical items and identical end state.
void RunEquivalence(core::PricingPolicyKind policy,
                    core::MatcherAlgorithm matcher, size_t threads,
                    size_t taxis, uint64_t seed,
                    const core::BatchChooser& chooser) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg = ContendedConfig(policy);
  cfg.matcher = matcher;

  auto seq_sys = core::PTRider::Create(graph, cfg);
  auto par_sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(seq_sys.ok());
  ASSERT_TRUE(par_sys.ok());
  ASSERT_TRUE((*seq_sys)->InitFleetUniform(taxis, seed).ok());
  ASSERT_TRUE((*par_sys)->InitFleetUniform(taxis, seed).ok());

  core::BatchDispatcher sequential(**seq_sys);
  ParallelDispatcher parallel(**par_sys, threads);

  // Several consecutive batches: later ones hit fleets loaded by
  // earlier ones, and the demand window carries across batches.
  vehicle::RequestId next_id = 1;
  for (int round = 0; round < 3; ++round) {
    const double now = 100.0 * (round + 1);
    std::vector<vehicle::Request> batch =
        MakeBatch(graph, cfg, /*count=*/30, seed + round, next_id);
    next_id += static_cast<vehicle::RequestId>(batch.size());

    auto seq = sequential.Dispatch(batch, now, chooser);
    auto par = parallel.Dispatch(batch, now, chooser);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(par.ok());
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectItemsEqual(*seq, *par);
    ExpectSystemsEqual(**seq_sys, **par_sys);
  }
  EXPECT_EQ(parallel.sequential_fallbacks(), 0u);
}

// --- The determinism matrix: threads x policies x seeds ---------------------

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(DeterminismTest, PaperPolicy) {
  const auto [threads, seed] = GetParam();
  RunEquivalence(core::PricingPolicyKind::kPaper,
                 core::MatcherAlgorithm::kDualSide, threads, /*taxis=*/25,
                 seed, core::Dispatcher::ChooseEarliest);
}

TEST_P(DeterminismTest, SurgePolicy) {
  const auto [threads, seed] = GetParam();
  RunEquivalence(core::PricingPolicyKind::kSurge,
                 core::MatcherAlgorithm::kDualSide, threads, /*taxis=*/25,
                 seed, core::Dispatcher::ChooseCheapest);
}

TEST_P(DeterminismTest, SharedDiscountPolicy) {
  const auto [threads, seed] = GetParam();
  RunEquivalence(core::PricingPolicyKind::kSharedDiscount,
                 core::MatcherAlgorithm::kDualSide, threads, /*taxis=*/25,
                 seed, core::Dispatcher::ChooseEarliest);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, DeterminismTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 8),
                       ::testing::Values<uint64_t>(3, 17)));

// Heavy contention (few taxis, many riders) exercises the commit-phase
// re-match paths; the naive and single-side matchers exercise the
// non-dual invalidation bounds.
TEST(DispatchParallelTest, ContendedFleetAllMatchers) {
  for (const auto matcher : {core::MatcherAlgorithm::kNaive,
                             core::MatcherAlgorithm::kSingleSide,
                             core::MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(core::MatcherAlgorithmName(matcher));
    RunEquivalence(core::PricingPolicyKind::kPaper, matcher, /*threads=*/4,
                   /*taxis=*/4, /*seed=*/5,
                   core::Dispatcher::ChooseEarliest);
  }
}

// Groups no taxi can seat end their match at the seat screen, but in the
// commit phase they still reconcile against vehicles earlier batch
// members committed (the re-probe path, which TrialInserts and finds
// nothing). Items must equal the sequential dispatcher's either way.
TEST(DispatchParallelTest, OversizedGroupsReconcileLikeSequential) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg = ContendedConfig(core::PricingPolicyKind::kPaper);
  for (const size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto seq_sys = core::PTRider::Create(graph, cfg);
    auto par_sys = core::PTRider::Create(graph, cfg);
    ASSERT_TRUE(seq_sys.ok());
    ASSERT_TRUE(par_sys.ok());
    ASSERT_TRUE((*seq_sys)->InitFleetUniform(12, 4).ok());
    ASSERT_TRUE((*par_sys)->InitFleetUniform(12, 4).ok());
    core::BatchDispatcher sequential(**seq_sys);
    ParallelDispatcher parallel(**par_sys, threads);

    std::vector<vehicle::Request> batch =
        MakeBatch(graph, cfg, /*count=*/30, /*seed=*/6, /*first_id=*/1);
    core::Dispatcher::SortBySubmitOrder(batch);
    for (size_t i = 2; i < batch.size(); i += 3) {
      batch[i].num_riders = cfg.vehicle_capacity + 1;
    }
    auto seq = sequential.Dispatch(batch, 50.0,
                                   core::Dispatcher::ChooseEarliest);
    auto par = parallel.Dispatch(batch, 50.0,
                                 core::Dispatcher::ChooseEarliest);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(par.ok());
    ExpectItemsEqual(*seq, *par);
    ExpectSystemsEqual(**seq_sys, **par_sys);

    // The scenario is the intended one: oversized members got nothing,
    // some of them after earlier members committed, and the parallel
    // side reconciled at least one of them by re-probing.
    size_t committed = 0;
    size_t oversized_after_commit = 0;
    for (const BatchItem& item : *seq) {
      if (item.request.num_riders > cfg.vehicle_capacity) {
        EXPECT_TRUE(item.match.options.empty());
        EXPECT_FALSE(item.assigned);
        if (committed > 0) ++oversized_after_commit;
      }
      if (item.assigned) ++committed;
    }
    EXPECT_GT(oversized_after_commit, 0u);
    EXPECT_GT(parallel.reprobe_count(), 0u);
  }
}

// MatchResult::anchor_settles is exact at one dispatch thread: the one
// worker's anchors see the same request sequence in both runs.
TEST(DispatchParallelTest, AnchorSettlesRepeatAtOneThread) {
  const roadnet::RoadNetwork graph = TestCity();
  const core::Config cfg = ContendedConfig(core::PricingPolicyKind::kPaper);
  std::vector<std::vector<uint64_t>> settles(2);
  for (std::vector<uint64_t>& run : settles) {
    auto sys = core::PTRider::Create(graph, cfg);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(25, 3).ok());
    ParallelDispatcher dispatcher(**sys, 1);
    vehicle::RequestId next_id = 1;
    for (int round = 0; round < 3; ++round) {
      std::vector<vehicle::Request> batch =
          MakeBatch(graph, cfg, /*count=*/20, 40 + round, next_id);
      next_id += static_cast<vehicle::RequestId>(batch.size());
      auto out = dispatcher.Dispatch(batch, 100.0 * (round + 1),
                                     core::Dispatcher::ChooseEarliest);
      ASSERT_TRUE(out.ok());
      for (const BatchItem& item : *out) {
        run.push_back(item.match.anchor_settles);
      }
    }
  }
  EXPECT_EQ(settles[0], settles[1]);
  uint64_t total = 0;
  for (const uint64_t n : settles[0]) total += n;
  EXPECT_GT(total, 0u);
}

TEST(DispatchParallelTest, DecliningChooserCommitsNothing) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(10, 1).ok());
  ParallelDispatcher dispatcher(**sys, 4);
  std::vector<vehicle::Request> batch =
      MakeBatch(graph, cfg, 20, /*seed=*/9, /*first_id=*/1);
  auto out = dispatcher.Dispatch(
      batch, 10.0,
      [](const vehicle::Request&, const core::MatchResult&) {
        return std::optional<size_t>{};
      });
  ASSERT_TRUE(out.ok());
  for (const BatchItem& item : *out) EXPECT_FALSE(item.assigned);
  for (const vehicle::Vehicle& v : (*sys)->fleet().vehicles()) {
    EXPECT_TRUE(v.IsEmpty());
  }
  EXPECT_EQ(dispatcher.rematch_count(), 0u);
}

TEST(DispatchParallelTest, InvalidRequestsReportedUnassigned) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(10, 1).ok());
  ParallelDispatcher dispatcher(**sys, 2);

  std::vector<vehicle::Request> batch =
      MakeBatch(graph, cfg, 4, /*seed=*/2, /*first_id=*/1);
  batch[1].destination = batch[1].start;  // s == d
  batch[2].num_riders = 0;
  auto out = dispatcher.Dispatch(batch, 5.0,
                                 core::Dispatcher::ChooseEarliest);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  int invalid = 0;
  for (const BatchItem& item : *out) {
    if (item.match.options.empty() && !item.assigned) ++invalid;
  }
  EXPECT_GE(invalid, 2);
}

TEST(DispatchParallelTest, DuplicateIdsFallBackToSequentialSemantics) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto seq_sys = core::PTRider::Create(graph, cfg);
  auto par_sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(seq_sys.ok());
  ASSERT_TRUE(par_sys.ok());
  ASSERT_TRUE((*seq_sys)->InitFleetUniform(10, 1).ok());
  ASSERT_TRUE((*par_sys)->InitFleetUniform(10, 1).ok());
  core::BatchDispatcher sequential(**seq_sys);
  ParallelDispatcher parallel(**par_sys, 4);

  std::vector<vehicle::Request> batch =
      MakeBatch(graph, cfg, 6, /*seed=*/4, /*first_id=*/1);
  batch[3].id = batch[0].id;  // same rider id twice in one burst
  auto seq = sequential.Dispatch(batch, 5.0,
                                 core::Dispatcher::ChooseEarliest);
  auto par = parallel.Dispatch(batch, 5.0,
                               core::Dispatcher::ChooseEarliest);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  ExpectItemsEqual(*seq, *par);
  EXPECT_EQ(parallel.sequential_fallbacks(), 1u);
}

TEST(DispatchParallelTest, BadChooserIndexSurfaces) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(10, 1).ok());
  ParallelDispatcher dispatcher(**sys, 2);
  std::vector<vehicle::Request> batch =
      MakeBatch(graph, cfg, 3, /*seed=*/8, /*first_id=*/1);
  const auto status =
      dispatcher
          .Dispatch(batch, 5.0,
                    [](const vehicle::Request&,
                       const core::MatchResult& match) {
                      return std::optional<size_t>{match.options.size() +
                                                   1};
                    })
          .status();
  EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange);
}

TEST(DispatchParallelTest, RequiresChooser) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ParallelDispatcher dispatcher(**sys, 2);
  EXPECT_FALSE(dispatcher.Dispatch({}, 0.0, nullptr).ok());
}

TEST(DispatchParallelTest, CreateDispatcherSelectsStrategy) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  cfg.dispatch_threads = 0;
  auto seq_sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(seq_sys.ok());
  EXPECT_STREQ(CreateDispatcher(**seq_sys)->name(), "sequential");

  cfg.dispatch_threads = 4;
  auto par_sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(par_sys.ok());
  std::unique_ptr<core::Dispatcher> d = CreateDispatcher(**par_sys);
  EXPECT_STREQ(d->name(), "parallel");
  EXPECT_EQ(static_cast<ParallelDispatcher*>(d.get())->num_threads(), 4u);
}

// --- End-to-end: the city-day simulation is dispatcher-invariant ------------

sim::SimulationReport RunBatchedSim(int dispatch_threads, uint64_t seed) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  cfg.pricing_policy = core::PricingPolicyKind::kSurge;
  cfg.surge_baseline_rate_per_min = 1.0;
  cfg.dispatch_threads = dispatch_threads;
  auto sys = core::PTRider::Create(graph, cfg);
  EXPECT_TRUE(sys.ok());
  EXPECT_TRUE((*sys)->InitFleetUniform(30, seed).ok());

  sim::HotspotWorkloadOptions wopts;
  wopts.num_trips = 150;
  wopts.duration_s = 1200.0;
  wopts.seed = seed;
  auto trips = sim::GenerateHotspotTrips(graph, wopts);
  EXPECT_TRUE(trips.ok());

  sim::SimulatorOptions sopts;
  sopts.batch_window_s = 5.0;
  sopts.seed = seed;
  sopts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
  sopts.choice.accept_price_over_floor = 3.0;
  sim::Simulator simulator(**sys, sopts);
  auto report = simulator.Run(*trips);
  EXPECT_TRUE(report.ok());
  return *report;
}

TEST(DispatchParallelTest, SimulationReportMatchesSequential) {
  for (const uint64_t seed : {7u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sim::SimulationReport seq = RunBatchedSim(0, seed);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const sim::SimulationReport par = RunBatchedSim(threads, seed);
      EXPECT_EQ(seq.requests_submitted, par.requests_submitted);
      EXPECT_EQ(seq.requests_assigned, par.requests_assigned);
      EXPECT_EQ(seq.requests_unserved, par.requests_unserved);
      EXPECT_EQ(seq.requests_declined, par.requests_declined);
      EXPECT_EQ(seq.requests_completed, par.requests_completed);
      EXPECT_EQ(seq.requests_shared, par.requests_shared);
      EXPECT_EQ(seq.revenue_total, par.revenue_total);
      EXPECT_EQ(seq.quoted_price.sum(), par.quoted_price.sum());
      EXPECT_EQ(seq.pickup_wait_s.sum(), par.pickup_wait_s.sum());
      EXPECT_EQ(seq.fleet_total_distance_m, par.fleet_total_distance_m);
      EXPECT_EQ(seq.fleet_shared_distance_m, par.fleet_shared_distance_m);
    }
  }
}

}  // namespace
}  // namespace ptrider::dispatch
