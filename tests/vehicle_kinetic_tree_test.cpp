#include "vehicle/kinetic_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/distance_providers.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "roadnet/grid_index.h"
#include "roadnet/paper_example.h"
#include "util/random.h"

namespace ptrider::vehicle {
namespace {

using roadnet::MakePaperExampleNetwork;
using roadnet::PaperExampleNetwork;

/// Fixture on the paper network with unit speed (distance == time).
class KineticTreeTest : public ::testing::Test {
 protected:
  KineticTreeTest()
      : ex_(MakePaperExampleNetwork()),
        oracle_(ex_.graph),
        dist_(oracle_) {
    ctx_.now_s = 0.0;
    ctx_.speed_mps = 1.0;
  }

  Request MakeRequest(RequestId id, int s, int d, int n = 2,
                      double w = 5.0, double sigma = 0.2) {
    Request r;
    r.id = id;
    r.start = ex_.v(s);
    r.destination = ex_.v(d);
    r.num_riders = n;
    r.max_wait_s = w;
    r.service_sigma = sigma;
    return r;
  }

  PaperExampleNetwork ex_;
  roadnet::DistanceOracle oracle_;
  core::ExactDistanceProvider dist_;
  ScheduleContext ctx_;
};

TEST_F(KineticTreeTest, EmptyTreeBasics) {
  KineticTree tree(ex_.v(13), 3);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.NumBranches(), 0u);
  EXPECT_EQ(tree.NumTreeNodes(), 0u);
  EXPECT_DOUBLE_EQ(tree.BestTotalDistance(), 0.0);
  EXPECT_EQ(tree.RidersOnboard(), 0);
}

TEST_F(KineticTreeTest, TrialInsertIntoEmptyVehicle) {
  KineticTree tree(ex_.v(13), 3);
  const Request r2 = MakeRequest(2, 12, 17);
  const auto candidates = tree.TrialInsert(r2, ctx_, dist_, nullptr);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].pickup_distance, 8.0);   // dist(v13,v12)
  EXPECT_DOUBLE_EQ(candidates[0].total_distance, 15.0);   // 8 + 7
  ASSERT_EQ(candidates[0].stops.size(), 2u);
  EXPECT_EQ(candidates[0].stops[0].type, StopType::kPickup);
  EXPECT_EQ(candidates[0].stops[1].type, StopType::kDropoff);
}

TEST_F(KineticTreeTest, CapacityBlocksLargeGroup) {
  KineticTree tree(ex_.v(13), 3);
  const Request big = MakeRequest(9, 12, 17, /*n=*/4);
  EXPECT_TRUE(tree.TrialInsert(big, ctx_, dist_, nullptr).empty());
}

TEST_F(KineticTreeTest, UnreachableDestinationYieldsNothing) {
  KineticTree tree(ex_.v(13), 3);
  Request r = MakeRequest(9, 12, 17);
  r.destination = 1000;  // not in the network
  EXPECT_TRUE(tree.TrialInsert(r, ctx_, dist_, nullptr).empty());
}

TEST_F(KineticTreeTest, CommitSetsDeadlineAndBranches) {
  KineticTree tree(ex_.v(13), 3);
  const Request r2 = MakeRequest(2, 12, 17);
  ASSERT_TRUE(tree.CommitInsert(r2, 8.0, 8.8, ctx_, dist_).ok());
  EXPECT_FALSE(tree.empty());
  EXPECT_EQ(tree.NumPendingRequests(), 1u);
  EXPECT_EQ(tree.NumBranches(), 1u);
  const PendingRequest& p = tree.pending().at(2);
  EXPECT_DOUBLE_EQ(p.planned_pickup_s, 8.0);        // 8 m at 1 m/s
  EXPECT_DOUBLE_EQ(p.pickup_deadline_s, 13.0);      // + w = 5
  EXPECT_DOUBLE_EQ(p.max_trip_distance_m, 1.2 * 7.0);
  EXPECT_FALSE(p.onboard);
  EXPECT_DOUBLE_EQ(p.price, 8.8);
}

TEST_F(KineticTreeTest, DoubleCommitRejected) {
  KineticTree tree(ex_.v(13), 3);
  const Request r2 = MakeRequest(2, 12, 17);
  ASSERT_TRUE(tree.CommitInsert(r2, 8.0, 8.8, ctx_, dist_).ok());
  EXPECT_EQ(tree.CommitInsert(r2, 8.0, 8.8, ctx_, dist_).code(),
            util::StatusCode::kAlreadyExists);
}

/// Reproduces the Section-2 scenario on vehicle c1: schedule <v1,v2,v16>
/// serving R1, then R2 = <v12, v17, 2, 5, 0.2> is trial-inserted.
class PaperScheduleTest : public KineticTreeTest {
 protected:
  PaperScheduleTest() : tree_(ex_.v(1), 4) {
    const Request r1 = MakeRequest(1, 2, 16);
    // R1 was quoted the direct pick-up v1 -> v2 (distance 6).
    EXPECT_TRUE(tree_.CommitInsert(r1, 6.0, 0.0, ctx_, dist_).ok());
    EXPECT_DOUBLE_EQ(tree_.BestTotalDistance(), 18.0);  // 6 + 12
  }

  KineticTree tree_;
};

TEST_F(PaperScheduleTest, TrialInsertR2FindsTwoValidSchedules) {
  const Request r2 = MakeRequest(2, 12, 17);
  auto candidates = tree_.TrialInsert(r2, ctx_, dist_, nullptr);
  // Valid: <+2@v12 between v2 and v16, -2@v17 last> (pickup 14, total 21)
  // and <serve R1 fully, then R2> (pickup 22, total 29). Orderings that
  // delay R1's pickup beyond 6+5 or stretch R1's trip beyond 14.4 die.
  ASSERT_EQ(candidates.size(), 2u);
  std::sort(candidates.begin(), candidates.end(),
            [](const InsertionCandidate& a, const InsertionCandidate& b) {
              return a.pickup_distance < b.pickup_distance;
            });
  EXPECT_DOUBLE_EQ(candidates[0].pickup_distance, 14.0);
  EXPECT_DOUBLE_EQ(candidates[0].total_distance, 21.0);
  EXPECT_DOUBLE_EQ(candidates[1].pickup_distance, 22.0);
  EXPECT_DOUBLE_EQ(candidates[1].total_distance, 29.0);
}

TEST_F(PaperScheduleTest, InsertionStatsCount) {
  const Request r2 = MakeRequest(2, 12, 17);
  InsertionStats stats;
  tree_.TrialInsert(r2, ctx_, dist_, &stats);
  EXPECT_EQ(stats.accepted, 2u);
  // 1 branch with 2 stops: insertion slots (i,j) with 0<=i<=j<=2 -> 6.
  EXPECT_EQ(stats.sequences_generated, 6u);
  EXPECT_EQ(stats.bound_pruned + stats.exact_validated,
            stats.sequences_generated);
}

TEST_F(PaperScheduleTest, CommitKeepsOnlyDeadlineRespectingBranches) {
  const Request r2 = MakeRequest(2, 12, 17);
  // Rider chose the cheap option: planned pickup distance 14.
  ASSERT_TRUE(tree_.CommitInsert(r2, 14.0, 4.0, ctx_, dist_).ok());
  // The (22, 29) ordering arrives at 22 > 14 + 5 = 19: dropped.
  EXPECT_EQ(tree_.NumBranches(), 1u);
  EXPECT_DOUBLE_EQ(tree_.BestTotalDistance(), 21.0);
  const std::vector<Stop>& stops = tree_.BestBranch().stops;
  ASSERT_EQ(stops.size(), 4u);
  EXPECT_EQ(stops[0].location, ex_.v(2));   // +R1
  EXPECT_EQ(stops[1].location, ex_.v(12));  // +R2
  EXPECT_EQ(stops[2].location, ex_.v(16));  // -R1
  EXPECT_EQ(stops[3].location, ex_.v(17));  // -R2
}

TEST_F(PaperScheduleTest, FullLifecycleDriveAndServe) {
  const Request r2 = MakeRequest(2, 12, 17);
  ASSERT_TRUE(tree_.CommitInsert(r2, 14.0, 4.0, ctx_, dist_).ok());

  // Drive v1 -> v2 (6 m, 6 s).
  ScheduleContext ctx = ctx_;
  ctx.now_s = 6.0;
  ASSERT_TRUE(tree_
                  .AdvanceTo(ex_.v(2), 6.0, ctx, dist_,
                             tree_.BestBranch().stops)
                  .ok());
  auto stop = tree_.PopFirstStop(ctx);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop->request, 1);
  EXPECT_EQ(stop->type, StopType::kPickup);
  EXPECT_EQ(tree_.RidersOnboard(), 2);

  // Drive v2 -> v12 (8 m).
  ctx.now_s = 14.0;
  ASSERT_TRUE(tree_
                  .AdvanceTo(ex_.v(12), 8.0, ctx, dist_,
                             tree_.BestBranch().stops)
                  .ok());
  stop = tree_.PopFirstStop(ctx);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop->request, 2);
  EXPECT_EQ(stop->type, StopType::kPickup);
  EXPECT_EQ(tree_.RidersOnboard(), 4);
  EXPECT_DOUBLE_EQ(tree_.pending().at(1).consumed_trip_distance_m, 8.0);

  // Drive v12 -> v16 (4 m): drop R1.
  ctx.now_s = 18.0;
  ASSERT_TRUE(tree_
                  .AdvanceTo(ex_.v(16), 4.0, ctx, dist_,
                             tree_.BestBranch().stops)
                  .ok());
  stop = tree_.PopFirstStop(ctx);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop->request, 1);
  EXPECT_EQ(stop->type, StopType::kDropoff);
  EXPECT_EQ(tree_.RidersOnboard(), 2);
  EXPECT_EQ(tree_.NumPendingRequests(), 1u);

  // Drive v16 -> v17 (3 m): drop R2; tree empties.
  ctx.now_s = 21.0;
  ASSERT_TRUE(tree_
                  .AdvanceTo(ex_.v(17), 3.0, ctx, dist_,
                             tree_.BestBranch().stops)
                  .ok());
  stop = tree_.PopFirstStop(ctx);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(stop->request, 2);
  EXPECT_EQ(stop->type, StopType::kDropoff);
  EXPECT_TRUE(tree_.empty());
  EXPECT_EQ(tree_.NumPendingRequests(), 0u);
}

TEST_F(PaperScheduleTest, PopRequiresRootAtStop) {
  EXPECT_EQ(tree_.PopFirstStop(ctx_).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(PaperScheduleTest, ValidateSequenceRejectsStructuralErrors) {
  const Stop p1{1, StopType::kPickup, ex_.v(2)};
  const Stop d1{1, StopType::kDropoff, ex_.v(16)};
  // Missing dropoff.
  EXPECT_FALSE(tree_.ValidateSequence({p1}, ctx_, dist_, nullptr, 0.0,
                                      nullptr, nullptr));
  // Dropoff before pickup.
  EXPECT_FALSE(tree_.ValidateSequence({d1, p1}, ctx_, dist_, nullptr, 0.0,
                                      nullptr, nullptr));
  // Duplicate pickup.
  EXPECT_FALSE(tree_.ValidateSequence({p1, p1, d1}, ctx_, dist_, nullptr,
                                      0.0, nullptr, nullptr));
  // Unknown request id.
  const Stop px{77, StopType::kPickup, ex_.v(2)};
  const Stop dx{77, StopType::kDropoff, ex_.v(16)};
  EXPECT_FALSE(tree_.ValidateSequence({px, dx}, ctx_, dist_, nullptr, 0.0,
                                      nullptr, nullptr));
  // The correct sequence passes and reports its total.
  roadnet::Weight total = 0.0;
  EXPECT_TRUE(tree_.ValidateSequence({p1, d1}, ctx_, dist_, nullptr, 0.0,
                                     &total, nullptr));
  EXPECT_DOUBLE_EQ(total, 18.0);
}

TEST_F(PaperScheduleTest, WaitingTimeConstraintPrunesLateBranches) {
  // A second request whose pickup lies before R1's: serving it first
  // would delay R1's pickup to 13.5 + 8 > 11; the only orderings kept
  // pick R1 up first.
  const Request r3 = MakeRequest(3, 12, 17, /*n=*/1);
  const auto candidates = tree_.TrialInsert(r3, ctx_, dist_, nullptr);
  for (const auto& c : candidates) {
    ASSERT_FALSE(c.stops.empty());
    EXPECT_EQ(c.stops[0].request, 1)
        << "R1 pickup must stay first in every valid schedule";
  }
}

TEST_F(KineticTreeTest, ServiceConstraintLimitsDetour) {
  // Vehicle at v11 serving R = <v12, v16> with sigma = 0: no detour at
  // all is allowed; a second request that would stretch R's trip dies.
  KineticTree tree(ex_.v(11), 4);
  Request r = MakeRequest(5, 12, 16, 1, /*w=*/100.0, /*sigma=*/0.0);
  ASSERT_TRUE(tree.CommitInsert(r, 2.5, 0.0, ctx_, dist_).ok());
  // R9 from v7 to v8: any interleaving inside R5's trip adds distance.
  Request r9 = MakeRequest(9, 7, 8, 1, /*w=*/1000.0, /*sigma=*/3.0);
  const auto candidates = tree.TrialInsert(r9, ctx_, dist_, nullptr);
  for (const auto& c : candidates) {
    // R9 must not be sandwiched between +5 and -5.
    bool inside = false;
    bool r5_open = false;
    for (const Stop& s : c.stops) {
      if (s.request == 5) r5_open = s.type == StopType::kPickup;
      if (s.request == 9 && r5_open) inside = true;
    }
    EXPECT_FALSE(inside);
  }
}

TEST_F(KineticTreeTest, NumTreeNodesCountsTriePrefixes) {
  KineticTree tree(ex_.v(1), 4);
  const Request a = MakeRequest(1, 2, 16, 1, /*w=*/1e6, /*sigma=*/10.0);
  ASSERT_TRUE(tree.CommitInsert(a, 6.0, 0.0, ctx_, dist_).ok());
  const Request b = MakeRequest(2, 12, 17, 1, /*w=*/1e6, /*sigma=*/10.0);
  ASSERT_TRUE(
      tree.CommitInsert(b, 1e6 /* lax planned pickup */, 0.0, ctx_, dist_)
          .ok());
  // Loose constraints keep several orderings; trie sharing means fewer
  // nodes than branches * stops.
  EXPECT_GT(tree.NumBranches(), 1u);
  EXPECT_LT(tree.NumTreeNodes(),
            tree.NumBranches() * tree.BestBranch().stops.size());
  EXPECT_GE(tree.NumTreeNodes(), tree.BestBranch().stops.size());
}

TEST_F(KineticTreeTest, AdvanceAccruesOnboardConsumption) {
  KineticTree tree(ex_.v(13), 3);
  const Request r = MakeRequest(2, 12, 17);
  ASSERT_TRUE(tree.CommitInsert(r, 8.0, 8.8, ctx_, dist_).ok());
  ScheduleContext ctx = ctx_;
  ctx.now_s = 8.0;
  ASSERT_TRUE(
      tree.AdvanceTo(ex_.v(12), 8.0, ctx, dist_, tree.BestBranch().stops)
          .ok());
  // Not yet onboard: no consumption.
  EXPECT_DOUBLE_EQ(tree.pending().at(2).consumed_trip_distance_m, 0.0);
  ASSERT_TRUE(tree.PopFirstStop(ctx).ok());
  ctx.now_s = 12.0;
  ASSERT_TRUE(
      tree.AdvanceTo(ex_.v(16), 4.0, ctx, dist_, tree.BestBranch().stops)
          .ok());
  EXPECT_DOUBLE_EQ(tree.pending().at(2).consumed_trip_distance_m, 4.0);
}

/// Counts the exact lookups a trial insertion makes.
class CountingProvider : public DistanceProvider {
 public:
  explicit CountingProvider(DistanceProvider& inner) : inner_(inner) {}
  roadnet::Weight Exact(roadnet::VertexId u, roadnet::VertexId v) override {
    ++exact_calls;
    return inner_.Exact(u, v);
  }
  roadnet::Weight Lower(roadnet::VertexId u, roadnet::VertexId v) override {
    return inner_.Lower(u, v);
  }
  size_t exact_calls = 0;

 private:
  DistanceProvider& inner_;
};

/// Rejects every schedule whose bounds exceed (max_pickup, max_total).
class ThresholdScreen : public InsertionScreen {
 public:
  ThresholdScreen(roadnet::Weight max_pickup, roadnet::Weight max_total)
      : max_pickup_(max_pickup), max_total_(max_total) {}
  bool Rejects(roadnet::Weight pickup_lb,
               roadnet::Weight total_lb) const override {
    return pickup_lb > max_pickup_ || total_lb > max_total_;
  }

 private:
  roadnet::Weight max_pickup_;
  roadnet::Weight max_total_;
};

void ExpectSameBits(const std::vector<InsertionCandidate>& got,
                    const std::vector<InsertionCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].pickup_distance),
              std::bit_cast<uint64_t>(want[i].pickup_distance));
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].total_distance),
              std::bit_cast<uint64_t>(want[i].total_distance));
    EXPECT_EQ(got[i].stops, want[i].stops);
    ASSERT_EQ(got[i].legs.size(), want[i].legs.size());
    for (size_t k = 0; k < got[i].legs.size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].legs[k]),
                std::bit_cast<uint64_t>(want[i].legs[k]));
    }
  }
}

/// Six busy trees (three pending requests each, loose constraints) on a
/// city with grid bounds, and random requests to insert into them.
class InsertionScreenTest : public ::testing::Test {
 protected:
  InsertionScreenTest()
      : graph_(MakeGraph()),
        grid_(MakeGrid(graph_)),
        oracle_(graph_),
        bounded_(oracle_, grid_) {}

  static roadnet::RoadNetwork MakeGraph() {
    roadnet::CityGridOptions city;
    city.rows = 12;
    city.cols = 12;
    city.seed = 4;
    auto graph = roadnet::MakeCityGrid(city);
    EXPECT_TRUE(graph.ok());
    return std::move(graph).value();
  }

  static roadnet::GridIndex MakeGrid(const roadnet::RoadNetwork& graph) {
    roadnet::GridIndexOptions gopts;
    gopts.cells_x = 5;
    gopts.cells_y = 5;
    auto grid = roadnet::GridIndex::Build(graph, gopts);
    EXPECT_TRUE(grid.ok());
    return std::move(grid).value();
  }

  Request RandomRequest() {
    Request r;
    r.id = next_id_++;
    r.start = static_cast<roadnet::VertexId>(
        rng_.UniformInt(0, static_cast<int64_t>(graph_.NumVertices()) - 1));
    do {
      r.destination = static_cast<roadnet::VertexId>(rng_.UniformInt(
          0, static_cast<int64_t>(graph_.NumVertices()) - 1));
    } while (r.destination == r.start);
    r.num_riders = 1;
    r.max_wait_s = 1e6;
    r.service_sigma = 0.6;
    return r;
  }

  /// Busy tree number `vehicle`, with three committed requests.
  KineticTree BusyTree(int vehicle) {
    KineticTree tree(static_cast<roadnet::VertexId>(vehicle * 17), 4);
    for (int pending = 0; pending < 3; ++pending) {
      const Request r = RandomRequest();
      EXPECT_TRUE(tree.CommitInsert(r, 1e6, 0.0, ctx_, bounded_).ok());
    }
    EXPECT_GT(tree.NumBranches(), 1u);
    return tree;
  }

  static constexpr int kTrees = 6;
  static constexpr int kProbes = 5;

  roadnet::RoadNetwork graph_;
  roadnet::GridIndex grid_;
  roadnet::DistanceOracle oracle_;
  core::IndexedDistanceProvider bounded_;
  ScheduleContext ctx_;
  util::Rng rng_{17};
  RequestId next_id_ = 1;
};

/// A screen that rejects everything walks nothing exactly, one that
/// rejects nothing changes nothing, and one that rejects only bounds
/// above a candidate's own doubles keeps that candidate (the walk's
/// bounds never exceed the exact walk's sums).
TEST_F(InsertionScreenTest, ScreensOnlyWhatItRejects) {
  const ThresholdScreen everything(-1.0, -1.0);
  const ThresholdScreen nothing(roadnet::kInfWeight, roadnet::kInfWeight);
  size_t candidates_seen = 0;
  for (int vehicle = 0; vehicle < kTrees; ++vehicle) {
    const KineticTree tree = BusyTree(vehicle);
    for (int probe = 0; probe < kProbes; ++probe) {
      const Request r = RandomRequest();
      InsertionStats unscreened_stats;
      const std::vector<InsertionCandidate> unscreened =
          tree.TrialInsert(r, ctx_, bounded_, &unscreened_stats);
      candidates_seen += unscreened.size();

      CountingProvider counting(bounded_);
      InsertionStats stats;
      EXPECT_TRUE(
          tree.TrialInsert(r, ctx_, counting, &stats, 0, &everything).empty());
      EXPECT_EQ(counting.exact_calls, 1u);  // dist(s, d) only
      EXPECT_EQ(stats.exact_validated, 0u);
      EXPECT_EQ(stats.bound_pruned, stats.sequences_generated);

      InsertionStats kept_stats;
      ExpectSameBits(
          tree.TrialInsert(r, ctx_, bounded_, &kept_stats, 0, &nothing),
          unscreened);
      EXPECT_EQ(kept_stats.bound_pruned, unscreened_stats.bound_pruned);
      EXPECT_EQ(kept_stats.accepted, unscreened_stats.accepted);

      for (const InsertionCandidate& c : unscreened) {
        const ThresholdScreen at_c(c.pickup_distance, c.total_distance);
        const std::vector<InsertionCandidate> screened =
            tree.TrialInsert(r, ctx_, bounded_, nullptr, 0, &at_c);
        bool found = false;
        for (const InsertionCandidate& k : screened) {
          found = found || k.stops == c.stops;
        }
        EXPECT_TRUE(found) << "a candidate's bounds exceeded its doubles";
      }
    }
  }
  EXPECT_GT(candidates_seen, 100u);
}

/// CommitInsert screens each schedule against the committed pick-up
/// deadline before its exact walk: the branches it keeps are, bit for
/// bit, the unscreened candidates that meet the deadline, and it asks
/// for fewer exact distances than walking every schedule would.
TEST_F(InsertionScreenTest, CommitScreensAgainstTheDeadline) {
  size_t commits = 0;
  size_t screened_calls = 0;
  size_t unscreened_calls = 0;
  for (int vehicle = 0; vehicle < kTrees; ++vehicle) {
    const KineticTree tree = BusyTree(vehicle);
    for (int probe = 0; probe < kProbes; ++probe) {
      Request r = RandomRequest();
      r.max_wait_s = 0.0;  // the deadline is the planned pick-up
      CountingProvider unscreened_counting(bounded_);
      const std::vector<InsertionCandidate> candidates =
          tree.TrialInsert(r, ctx_, unscreened_counting, nullptr);
      if (candidates.empty()) continue;
      // The median pick-up: some schedules meet its deadline, some miss.
      std::vector<roadnet::Weight> pickups;
      for (const InsertionCandidate& c : candidates) {
        pickups.push_back(c.pickup_distance);
      }
      std::sort(pickups.begin(), pickups.end());
      const roadnet::Weight planned = pickups[pickups.size() / 2];
      const double deadline_s =
          ctx_.now_s + planned / ctx_.speed_mps + r.max_wait_s;

      KineticTree committed = tree;
      CountingProvider counting(bounded_);
      ASSERT_TRUE(committed.CommitInsert(r, planned, 0.0, ctx_, counting).ok());
      ++commits;
      size_t meeting = 0;
      for (const InsertionCandidate& c : candidates) {
        if (ctx_.now_s + c.pickup_distance / ctx_.speed_mps >
            deadline_s + 1e-6) {
          continue;
        }
        ++meeting;
        const auto b = std::find_if(
            committed.branches().begin(), committed.branches().end(),
            [&](const Branch& branch) { return branch.stops == c.stops; });
        ASSERT_NE(b, committed.branches().end());
        EXPECT_EQ(std::bit_cast<uint64_t>(b->total),
                  std::bit_cast<uint64_t>(c.total_distance));
        ASSERT_EQ(b->legs.size(), c.legs.size());
        for (size_t k = 0; k < c.legs.size(); ++k) {
          EXPECT_EQ(std::bit_cast<uint64_t>(b->legs[k]),
                    std::bit_cast<uint64_t>(c.legs[k]));
        }
      }
      EXPECT_EQ(committed.NumBranches(), meeting);
      // The unscreened walk plus the commit's own dist(s, d) lookup.
      const size_t unscreened = unscreened_counting.exact_calls + 1;
      EXPECT_LE(counting.exact_calls, unscreened);
      screened_calls += counting.exact_calls;
      unscreened_calls += unscreened;
    }
  }
  EXPECT_GT(commits, 20u);
  EXPECT_LT(screened_calls, unscreened_calls);
}

}  // namespace
}  // namespace ptrider::vehicle
