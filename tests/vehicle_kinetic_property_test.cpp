// Property suite: the kinetic tree's invariants under randomized
// insert / advance / pop sequences on a generated city.
//
//  P1  Every branch always satisfies Definition 2's four conditions
//      (checked via ValidateSequence against the live pending state).
//  P2  All branches are permutations of one stop multiset.
//  P3  Branches stay sorted by total distance; the best branch is first.
//  P4  Inserting a request never lowers the best total distance
//      (the Delta >= 0 invariant the price floor relies on).
//  P5  Advancing along the best branch only ever shrinks the branch set
//      (orderings die monotonically; none resurrect).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/distance_providers.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "util/random.h"
#include "vehicle/kinetic_tree.h"

namespace ptrider::vehicle {
namespace {

struct PropertyParam {
  uint64_t seed;
  int capacity;
  double sigma;
  double max_wait_s;
};

class KineticTreePropertyTest
    : public ::testing::TestWithParam<PropertyParam> {};

std::multiset<std::pair<RequestId, int>> StopMultiset(const Branch& b) {
  std::multiset<std::pair<RequestId, int>> out;
  for (const Stop& s : b.stops) {
    out.insert({s.request, static_cast<int>(s.type)});
  }
  return out;
}

TEST_P(KineticTreePropertyTest, InvariantsUnderRandomOperations) {
  const PropertyParam param = GetParam();
  roadnet::CityGridOptions gopts;
  gopts.rows = 12;
  gopts.cols = 12;
  gopts.seed = param.seed;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  roadnet::DistanceOracle oracle(*graph);
  core::ExactDistanceProvider dist(oracle);
  util::Rng rng(param.seed * 31 + 1);

  auto rv = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };

  ScheduleContext ctx{0.0, 13.3};
  KineticTree tree(rv(), param.capacity);
  RequestId next_id = 1;

  auto check_invariants = [&](const char* where) {
    const std::vector<Branch>& branches = tree.branches();
    if (tree.NumPendingRequests() > 0) {
      ASSERT_FALSE(branches.empty()) << where;
    }
    // P1 + P3.
    double prev_total = -1.0;
    for (const Branch& b : branches) {
      EXPECT_TRUE(tree.ValidateSequence(b.stops, ctx, dist, nullptr, 0.0,
                                        nullptr, nullptr))
          << where << ": invalid branch survived";
      EXPECT_GE(b.total, prev_total) << where << ": branches unsorted";
      prev_total = b.total;
      // Leg consistency: totals equal the sum of legs.
      double sum = 0.0;
      for (const roadnet::Weight leg : b.legs) sum += leg;
      EXPECT_NEAR(sum, b.total, 1e-6) << where;
    }
    // P2.
    if (!branches.empty()) {
      const auto expected = StopMultiset(branches.front());
      for (const Branch& b : branches) {
        EXPECT_EQ(StopMultiset(b), expected) << where;
      }
    }
  };

  int committed = 0;
  for (int step = 0; step < 60; ++step) {
    const double action = rng.UniformDouble();
    if (action < 0.45) {
      // Trial + commit a new request.
      Request r;
      r.id = next_id++;
      r.start = rv();
      r.destination = rv();
      if (r.start == r.destination) continue;
      r.num_riders = static_cast<int>(rng.UniformInt(1, 2));
      r.max_wait_s = param.max_wait_s;
      r.service_sigma = param.sigma;
      const double before = tree.BestTotalDistance();
      auto candidates = tree.TrialInsert(r, ctx, dist, nullptr);
      if (candidates.empty()) continue;
      // P4 on every candidate.
      for (const InsertionCandidate& c : candidates) {
        EXPECT_GE(c.total_distance + 1e-6, before)
            << "insertion shrank the schedule";
      }
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(candidates.size()) - 1));
      ASSERT_TRUE(tree.CommitInsert(r, candidates[pick].pickup_distance,
                                    1.0, ctx, dist)
                      .ok());
      ++committed;
      check_invariants("after commit");
    } else if (!tree.empty()) {
      // Drive one leg of the best branch, then pop the reached stop.
      const Branch best = tree.BestBranch();
      const roadnet::VertexId target = best.stops.front().location;
      auto path = oracle.ShortestPath(tree.root_location(), target);
      ASSERT_TRUE(path.ok());
      const size_t before_branches = tree.NumBranches();
      std::vector<std::vector<Stop>> before_set;
      for (const Branch& b : tree.branches()) before_set.push_back(b.stops);
      for (size_t i = 1; i < path->size(); ++i) {
        const double leg =
            graph->EdgeWeight((*path)[i - 1], (*path)[i]);
        ctx.now_s += leg / ctx.speed_mps;
        ASSERT_TRUE(
            tree.AdvanceTo((*path)[i], leg, ctx, dist, best.stops).ok());
      }
      // P5: no new orderings appear during advancement.
      EXPECT_LE(tree.NumBranches(), before_branches);
      for (const Branch& b : tree.branches()) {
        EXPECT_NE(std::find(before_set.begin(), before_set.end(), b.stops),
                  before_set.end())
            << "an ordering resurrected during advance";
      }
      check_invariants("after advance");
      auto popped = tree.PopFirstStop();
      ASSERT_TRUE(popped.ok()) << popped.status().ToString();
      check_invariants("after pop");
    }
  }
  // Drain: serve everything to completion.
  while (!tree.empty()) {
    const Branch best = tree.BestBranch();
    auto path =
        oracle.ShortestPath(tree.root_location(), best.stops.front().location);
    ASSERT_TRUE(path.ok());
    for (size_t i = 1; i < path->size(); ++i) {
      const double leg = graph->EdgeWeight((*path)[i - 1], (*path)[i]);
      ctx.now_s += leg / ctx.speed_mps;
      ASSERT_TRUE(
          tree.AdvanceTo((*path)[i], leg, ctx, dist, best.stops).ok());
    }
    ASSERT_TRUE(tree.PopFirstStop().ok());
    check_invariants("during drain");
  }
  EXPECT_EQ(tree.NumPendingRequests(), 0u);
  EXPECT_GT(committed, 0) << "scenario exercised no commitments";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, KineticTreePropertyTest,
    ::testing::Values(PropertyParam{1, 3, 0.3, 300.0},
                      PropertyParam{2, 4, 0.5, 600.0},
                      PropertyParam{3, 2, 0.2, 120.0},
                      PropertyParam{4, 6, 1.0, 900.0},
                      PropertyParam{5, 3, 0.0, 300.0},
                      PropertyParam{6, 8, 0.8, 1200.0}));

}  // namespace
}  // namespace ptrider::vehicle
