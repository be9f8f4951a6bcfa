// The parallel dispatcher's headline guarantee: sharded match /
// sequential commit produces BatchItem sequences identical to the
// sequential reference (batch_dispatcher.h) — per request, per option,
// per committed schedule — at every thread count, for every matcher and
// pricing policy, across seeds. Determinism is proven here, not asserted.

#include "dispatch/parallel_dispatcher.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "batch_dispatcher.h"
#include "core/batch.h"
#include "pricing/surge_policy.h"
#include "raw_bit_pin.h"
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
/// (match_seconds) and effort counters (anchor-state dependent) are
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
/// committed schedules, and the same vehicle-index lists, entry for entry
/// and in order (the order is the match's candidate order).
void ExpectSystemsEqual(const core::PTRider& a, const core::PTRider& b) {
  ASSERT_EQ(a.grid().NumCells(), b.grid().NumCells());
  for (roadnet::CellId c = 0; c < a.grid().NumCells(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    EXPECT_EQ(a.vehicle_index().EmptyVehicles(c),
              b.vehicle_index().EmptyVehicles(c));
    EXPECT_EQ(a.vehicle_index().NonEmptyVehicles(c),
              b.vehicle_index().NonEmptyVehicles(c));
  }
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

// Each batch position keeps its own anchor pair (DESIGN.md section 7.5),
// so a match's anchor settles and distance computations depend on the
// batch sequence only, never on the thread count that ran it.
TEST(DispatchParallelTest, AnchorCountsEqualAcrossThreadCounts) {
  const roadnet::RoadNetwork graph = TestCity();
  const core::Config cfg = ContendedConfig(core::PricingPolicyKind::kPaper);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> counts;
  for (const size_t threads : {1u, 2u, 4u}) {
    std::vector<std::pair<uint64_t, uint64_t>>& run = counts.emplace_back();
    auto sys = core::PTRider::Create(graph, cfg);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(25, 3).ok());
    ParallelDispatcher dispatcher(**sys, threads);
    vehicle::RequestId next_id = 1;
    for (int round = 0; round < 3; ++round) {
      std::vector<vehicle::Request> batch =
          MakeBatch(graph, cfg, /*count=*/20, 40 + round, next_id);
      next_id += static_cast<vehicle::RequestId>(batch.size());
      auto out = dispatcher.Dispatch(batch, 100.0 * (round + 1),
                                     core::Dispatcher::ChooseEarliest);
      ASSERT_TRUE(out.ok());
      for (const BatchItem& item : *out) {
        run.emplace_back(item.match.anchor_settles,
                         item.match.distance_computations);
      }
    }
  }
  EXPECT_EQ(counts[0], counts[1]) << "1 vs 2 threads";
  EXPECT_EQ(counts[0], counts[2]) << "1 vs 4 threads";
  uint64_t settles = 0;
  for (const auto& [n, computed] : counts[0]) settles += n;
  EXPECT_GT(settles, 0u);
}

// A commit resumes the anchor searches its match ran. The match skips
// the exact walk of schedules its skyline covers, while the commit walks
// every schedule it may keep, so a commit can still compute distances.
// With the pair lent it computes fewer, and settles fewer anchor
// vertices, than the same commit on a fresh pair, and answers the
// match's lookups (dist(s, d) at least) from the lent searches.
TEST(DispatchParallelTest, CommitsResumeTheirMatchAnchors) {
  const roadnet::RoadNetwork graph = TestCity();
  const core::Config cfg = ContendedConfig(core::PricingPolicyKind::kPaper);
  for (const size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto sys = core::PTRider::Create(graph, cfg);
    auto twin = core::PTRider::Create(graph, cfg);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE(twin.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(25, 3).ok());
    ASSERT_TRUE((*twin)->InitFleetUniform(25, 3).ok());
    ParallelDispatcher dispatcher(**sys, threads);
    const roadnet::DistanceOracle& oracle = (*sys)->oracle();
    const roadnet::DistanceOracle& twin_oracle = (*twin)->oracle();
    size_t assigned = 0;
    for (const vehicle::Request& r :
         MakeBatch(graph, cfg, /*count=*/10, /*seed=*/41, /*first_id=*/1)) {
      // The chooser runs between the match and the commit, with the
      // request's pair already lent to the system oracle.
      uint64_t computed = 0;
      uint64_t settles = 0;
      uint64_t hits = 0;
      auto out = dispatcher.Dispatch(
          {r}, 100.0,
          [&](const vehicle::Request& req, const core::MatchResult& m) {
            computed = oracle.computed();
            settles = oracle.anchor_settles();
            hits = oracle.cache_hits();
            return core::Dispatcher::ChooseEarliest(req, m);
          });
      ASSERT_TRUE(out.ok());
      ASSERT_EQ(out->size(), 1u);
      if (!(*out)[0].assigned) continue;
      ++assigned;
      // The same commit on the twin, whose state matches, on a fresh pair.
      const uint64_t twin_computed = twin_oracle.computed();
      const uint64_t twin_settles = twin_oracle.anchor_settles();
      {
        roadnet::DistanceOracle::AnchorPair fresh;
        const roadnet::DistanceOracle::AnchorLoan loan((*twin)->oracle(),
                                                       &fresh);
        ASSERT_TRUE(
            (*twin)->ChooseOption(r, (*out)[0].chosen, 100.0).ok());
      }
      EXPECT_LT(oracle.computed() - computed,
                twin_oracle.computed() - twin_computed)
          << "request " << r.id;
      EXPECT_LT(oracle.anchor_settles() - settles,
                twin_oracle.anchor_settles() - twin_settles)
          << "request " << r.id;
      EXPECT_GT(oracle.cache_hits(), hits) << "request " << r.id;
    }
    EXPECT_GE(assigned, 5u);
    ExpectSystemsEqual(**sys, **twin);
  }
}

// Positions past the anchor budget match and commit on the holding
// oracles' own searches; the items still equal the sequential
// reference's. The 3,600-vertex city fits 113 pairs in the budget.
TEST(DispatchParallelTest, BatchPastAnchorBudgetMatchesSequential) {
  roadnet::CityGridOptions city;
  city.rows = 60;
  city.cols = 60;
  city.spacing_m = 100.0;
  city.seed = 13;
  auto graph = roadnet::MakeCityGrid(city);
  ASSERT_TRUE(graph.ok());
  const size_t budget_pairs =
      ParallelDispatcher::kAnchorBudgetBytes /
      roadnet::DistanceOracle::AnchorPair::PairBytes(*graph);
  const core::Config cfg = ContendedConfig(core::PricingPolicyKind::kSurge);
  roadnet::GridIndexOptions grid;
  grid.cells_x = 8;
  grid.cells_y = 8;
  auto seq_sys = core::PTRider::Create(*graph, cfg, grid);
  auto par_sys = core::PTRider::Create(*graph, cfg, grid);
  ASSERT_TRUE(seq_sys.ok());
  ASSERT_TRUE(par_sys.ok());
  ASSERT_TRUE((*seq_sys)->InitFleetUniform(30, 8).ok());
  ASSERT_TRUE((*par_sys)->InitFleetUniform(30, 8).ok());
  core::BatchDispatcher sequential(**seq_sys);
  ParallelDispatcher parallel(**par_sys, /*num_threads=*/2);
  std::vector<vehicle::Request> batch =
      MakeBatch(*graph, cfg, /*count=*/budget_pairs + 12, /*seed=*/70,
                /*first_id=*/1);
  ASSERT_GT(batch.size(), budget_pairs);
  auto seq =
      sequential.Dispatch(batch, 100.0, core::Dispatcher::ChooseCheapest);
  auto par = parallel.Dispatch(batch, 100.0, core::Dispatcher::ChooseCheapest);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  ExpectItemsEqual(*seq, *par);
  ExpectSystemsEqual(**seq_sys, **par_sys);
  EXPECT_GT(parallel.reprobe_count() + parallel.rematch_count(), 0u);
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

// Degenerate ids are refused in phase 0, before any demand record: a
// later copy of an id is refused even when its first copy was declined
// (one-at-a-time dispatch would have matched it), and so is an id that
// is already assigned. Under surge pricing the demand window shows that
// each refused request recorded nothing.
TEST(DispatchParallelTest, DegenerateIdsAreRefusedWithoutDemand) {
  const roadnet::RoadNetwork graph = TestCity();
  const core::Config cfg = ContendedConfig(core::PricingPolicyKind::kSurge);
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(10, 1).ok());
  const auto& surge =
      dynamic_cast<const pricing::SurgePolicy&>((*sys)->pricing_policy());
  ParallelDispatcher dispatcher(**sys, 2);

  // Batch 1: six requests, the fourth repeating the first one's id. The
  // chooser declines that id and takes the earliest option otherwise.
  std::vector<vehicle::Request> batch =
      MakeBatch(graph, cfg, 6, /*seed=*/4, /*first_id=*/1);
  core::Dispatcher::SortBySubmitOrder(batch);
  batch[3].id = batch[0].id;
  const vehicle::RequestId repeated = batch[0].id;
  const auto decline_repeated = [&](const vehicle::Request& r,
                                    const core::MatchResult& match) {
    if (r.id == repeated) return std::optional<size_t>{};
    return core::Dispatcher::ChooseEarliest(r, match);
  };
  auto out = dispatcher.Dispatch(batch, 5.0, decline_repeated);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 6u);
  const BatchItem& first = (*out)[0];
  const BatchItem& copy = (*out)[3];
  EXPECT_EQ(first.request.id, repeated);
  EXPECT_FALSE(first.match.options.empty());
  EXPECT_FALSE(first.assigned);
  EXPECT_EQ(copy.request.id, repeated);
  EXPECT_TRUE(copy.match.options.empty());
  EXPECT_FALSE(copy.assigned);
  // Six requests, five demand records: the refused copy recorded none.
  EXPECT_DOUBLE_EQ(surge.rate_per_min(), 5.0 * 60.0 / cfg.surge_window_s);

  // Batch 2: an id assigned in batch 1, next to a fresh one.
  vehicle::RequestId assigned_id = 0;
  for (const BatchItem& item : *out) {
    if (item.assigned) assigned_id = item.request.id;
  }
  ASSERT_NE(assigned_id, 0);
  const vehicle::VehicleId serving = (*sys)->AssignedVehicle(assigned_id);
  std::vector<vehicle::Request> again =
      MakeBatch(graph, cfg, 2, /*seed=*/5, /*first_id=*/100);
  again[0].id = assigned_id;
  auto out2 = dispatcher.Dispatch(again, 6.0,
                                  core::Dispatcher::ChooseEarliest);
  ASSERT_TRUE(out2.ok());
  ASSERT_EQ(out2->size(), 2u);
  for (const BatchItem& item : *out2) {
    SCOPED_TRACE("id " + std::to_string(item.request.id));
    if (item.request.id == assigned_id) {
      EXPECT_TRUE(item.match.options.empty());
      EXPECT_FALSE(item.assigned);
    } else {
      EXPECT_FALSE(item.match.options.empty());
    }
  }
  EXPECT_EQ((*sys)->AssignedVehicle(assigned_id), serving);
  EXPECT_DOUBLE_EQ(surge.rate_per_min(), 6.0 * 60.0 / cfg.surge_window_s);
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

// A chooser error ends the batch after earlier members committed. Those
// commits updated the index as they happened, so the index the call
// leaves behind registers every vehicle exactly as its state says.
TEST(DispatchParallelTest, BadChooserIndexLeavesIndexCurrent) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(10, 1).ok());
  ParallelDispatcher dispatcher(**sys, 2);
  std::vector<vehicle::Request> batch =
      MakeBatch(graph, cfg, 6, /*seed=*/8, /*first_id=*/1);
  int accepted = 0;
  const auto status =
      dispatcher
          .Dispatch(batch, 5.0,
                    [&](const vehicle::Request&,
                        const core::MatchResult& match) {
                      if (accepted < 2 && !match.options.empty()) {
                        ++accepted;
                        return std::optional<size_t>{0};
                      }
                      return std::optional<size_t>{match.options.size()};
                    })
          .status();
  EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange);
  ASSERT_EQ(accepted, 2);
  size_t busy = 0;
  const vehicle::VehicleIndex& index = (*sys)->vehicle_index();
  for (const vehicle::Vehicle& v : (*sys)->fleet().vehicles()) {
    SCOPED_TRACE("vehicle " + std::to_string(v.id()));
    if (!v.IsEmpty()) ++busy;
    EXPECT_EQ(index.RegisteredCells(v.id()), index.Prepare(v).cells);
  }
  EXPECT_GE(busy, 1u);
}

TEST(DispatchParallelTest, RequiresChooser) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ParallelDispatcher dispatcher(**sys, 2);
  EXPECT_FALSE(dispatcher.Dispatch({}, 0.0, nullptr).ok());
}

// The simulator builds its one dispatcher with Config::dispatch_threads
// matching threads when stepping begins.
TEST(DispatchParallelTest, SimulatorDispatcherUsesConfiguredThreads) {
  const roadnet::RoadNetwork graph = TestCity();
  core::Config cfg;
  cfg.dispatch_threads = 4;
  auto sys = core::PTRider::Create(graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(5, 1).ok());
  sim::Simulator simulator(**sys, sim::SimulatorOptions{});
  EXPECT_EQ(simulator.dispatcher(), nullptr);
  ASSERT_TRUE(simulator.BeginStepping().ok());
  ASSERT_NE(simulator.dispatcher(), nullptr);
  EXPECT_EQ(simulator.dispatcher()->num_threads(), 4u);
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

// The answers of one-at-a-time dispatch (the sequential dispatcher's
// dispatch_threads = 0, before it moved into the tests), pinned per
// seed; every thread count must reproduce them bit for bit.
TEST(DispatchParallelTest, SimulationReportMatchesSequential) {
  const std::vector<std::pair<uint64_t, pin::Words>> pins = {
      {7,
       {0x0000000000000096ULL, 0x000000000000005fULL, 0x0000000000000009ULL,
        0x000000000000002eULL, 0x000000000000005fULL, 0x0000000000000036ULL,
        0x406acafa9a98fb70ULL, 0x406acafa9a98fb70ULL, 0x407457c63284096eULL,
        0x4058c400c53a8d7fULL, 0x406fe00000000000ULL, 0x406bb164bce45fcdULL,
        0x413217324180e8b5ULL, 0x410b8ebdfb5db48cULL, 0x40ea95e3deb735ecULL}},
      {23,
       {0x0000000000000096ULL, 0x000000000000006bULL, 0x0000000000000004ULL,
        0x0000000000000027ULL, 0x000000000000006bULL, 0x0000000000000038ULL,
        0x40701d6970ae5f89ULL, 0x40701d6970ae5f89ULL, 0x40909dcb9e93f3c0ULL,
        0x405bdd6368fc6c5dULL, 0x4071a00000000000ULL, 0x407008d7a78a1e52ULL,
        0x41322683d0c178d9ULL, 0x410f18ef179acc0eULL, 0x40ed029b9d268990ULL}},
  };
  for (const auto& [seed, expected] : pins) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const pin::Words actual =
          pin::ReportWords(RunBatchedSim(threads, seed));
      EXPECT_EQ(actual, expected)
          << "actual report:\n" << pin::ToInitializer(actual);
    }
  }
}

}  // namespace
}  // namespace ptrider::dispatch
