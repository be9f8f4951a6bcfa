// DistanceOracle::Clone — the "one oracle per thread" contract. Clones
// answer identically, keep independent statistics, and serve concurrent
// threads (the TSan CI job runs this file too).

#include "roadnet/distance_oracle.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "roadnet/graph_generator.h"

namespace ptrider::roadnet {
namespace {

RoadNetwork TestCity() {
  CityGridOptions opts;
  opts.rows = 10;
  opts.cols = 10;
  opts.seed = 3;
  auto g = MakeCityGrid(opts);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(DistanceOracleCloneTest, CloneAnswersIdentically) {
  const RoadNetwork g = TestCity();
  for (const SpAlgorithm algo : {SpAlgorithm::kDijkstra,
                                 SpAlgorithm::kAStar,
                                 SpAlgorithm::kContractionHierarchy}) {
    DistanceOracleOptions opts;
    opts.algorithm = algo;
    DistanceOracle original(g, opts);
    DistanceOracle clone = original.Clone();
    for (VertexId u = 0; u < 40; u += 3) {
      for (VertexId v = 1; v < 60; v += 7) {
        EXPECT_EQ(original.Distance(u, v), clone.Distance(u, v))
            << SpAlgorithmName(algo) << " v" << u << "->v" << v;
      }
    }
  }
}

TEST(DistanceOracleCloneTest, CloneHasIndependentCacheAndStats) {
  const RoadNetwork g = TestCity();
  DistanceOracle original(g);
  (void)original.Distance(0, 5);
  (void)original.Distance(0, 5);
  EXPECT_EQ(original.queries(), 2u);
  EXPECT_EQ(original.computed(), 2u);

  // A clone's counters start at zero...
  DistanceOracle clone = original.Clone();
  EXPECT_EQ(clone.queries(), 0u);
  EXPECT_EQ(clone.cache_hits(), 0u);
  EXPECT_EQ(clone.computed(), 0u);
  EXPECT_EQ(clone.heap_pops(), 0u);

  // ...count only its own queries...
  (void)clone.Distance(0, 5);
  EXPECT_EQ(clone.queries(), 1u);
  EXPECT_EQ(clone.computed(), 1u);

  // ...and leave the original's alone.
  (void)clone.Distance(2, 9);
  EXPECT_EQ(original.queries(), 2u);
  EXPECT_EQ(original.computed(), 2u);
}

TEST(DistanceOracleCloneTest, CHIndexIsSharedNotRebuilt) {
  // The precomputed-table half of the Clone() contract: the contraction
  // hierarchy is built exactly once; every clone (and clone-of-clone)
  // queries the same immutable index through its own scratch.
  const RoadNetwork g = TestCity();
  DistanceOracleOptions opts;
  opts.algorithm = SpAlgorithm::kContractionHierarchy;
  DistanceOracle original(g, opts);
  ASSERT_NE(original.ch_index(), nullptr);

  DistanceOracle clone = original.Clone();
  DistanceOracle grandclone = clone.Clone();
  EXPECT_EQ(clone.ch_index(), original.ch_index());
  EXPECT_EQ(grandclone.ch_index(), original.ch_index());

  // Non-CH oracles have no index to share.
  DistanceOracle astar(g);
  EXPECT_EQ(astar.ch_index(), nullptr);
  EXPECT_EQ(astar.Clone().ch_index(), nullptr);
}

TEST(DistanceOracleCloneTest, CloneWithReusesIndexForSameAlgorithm) {
  const RoadNetwork g = TestCity();
  DistanceOracleOptions opts;
  opts.algorithm = SpAlgorithm::kContractionHierarchy;
  DistanceOracle original(g, opts);

  // The same algorithm keeps the shared index.
  DistanceOracle same = original.CloneWith(opts);
  EXPECT_EQ(same.ch_index(), original.ch_index());

  // Switching algorithms drops the index and answers identically.
  DistanceOracleOptions astar = opts;
  astar.algorithm = SpAlgorithm::kAStar;
  DistanceOracle switched = original.CloneWith(astar);
  EXPECT_EQ(switched.ch_index(), nullptr);
  for (VertexId v = 1; v < 30; v += 4) {
    EXPECT_EQ(switched.Distance(0, v), original.Distance(0, v));
  }
}

TEST(DistanceOracleCloneTest, ConcurrentCHClonesAnswerIdentically) {
  // TSan-covered (this file is in the CI ThreadSanitizer job): many
  // threads querying the one shared CHIndex concurrently must race on
  // nothing and agree bit-for-bit with a sequential oracle.
  const RoadNetwork g = TestCity();
  DistanceOracleOptions opts;
  opts.algorithm = SpAlgorithm::kContractionHierarchy;
  DistanceOracle original(g, opts);
  std::vector<Weight> expected;
  for (VertexId v = 0; v < 60; ++v) {
    expected.push_back(original.Distance(1, v));
  }

  constexpr int kThreads = 4;
  std::vector<DistanceOracle> oracles;
  oracles.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) oracles.push_back(original.Clone());

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (VertexId v = 0; v < 60; ++v) {
          if (oracles[static_cast<size_t>(t)].Distance(1, v) !=
              expected[static_cast<size_t>(v)]) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(DistanceOracleCloneTest, ClonesServeConcurrentThreads) {
  const RoadNetwork g = TestCity();
  DistanceOracle original(g);
  // Reference answers, computed single-threaded.
  std::vector<Weight> expected;
  for (VertexId v = 0; v < 50; ++v) {
    expected.push_back(original.Distance(0, v));
  }

  constexpr int kThreads = 4;
  std::vector<DistanceOracle> oracles;
  oracles.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) oracles.push_back(original.Clone());

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (VertexId v = 0; v < 50; ++v) {
          if (oracles[static_cast<size_t>(t)].Distance(0, v) !=
              expected[static_cast<size_t>(v)]) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

}  // namespace
}  // namespace ptrider::roadnet
