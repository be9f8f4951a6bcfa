#include <gtest/gtest.h>

#include "roadnet/astar.h"
#include "roadnet/dijkstra.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"
#include "util/random.h"

namespace ptrider::roadnet {
namespace {

RoadNetwork SmallCity() {
  CityGridOptions opts;
  opts.rows = 12;
  opts.cols = 12;
  opts.seed = 99;
  auto g = MakeCityGrid(opts);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(DijkstraTest, KnownDistances) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  EXPECT_DOUBLE_EQ(engine.Distance(ex.v(1), ex.v(1)), 0.0);
  EXPECT_DOUBLE_EQ(engine.Distance(ex.v(1), ex.v(5)), 2.0);
  EXPECT_DOUBLE_EQ(engine.Distance(ex.v(5), ex.v(1)), 2.0);
}

TEST(DijkstraTest, InvalidVerticesAreUnreachable) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  EXPECT_EQ(engine.Distance(ex.v(1), 99), kInfWeight);
  EXPECT_EQ(engine.Distance(-3, ex.v(1)), kInfWeight);
}

TEST(DijkstraTest, UnreachableAcrossComponents) {
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({1, 0});
  const VertexId d = b.AddVertex({5, 5});
  const VertexId e = b.AddVertex({6, 5});
  ASSERT_TRUE(b.AddUndirectedEdge(a, c, 1.0).ok());
  ASSERT_TRUE(b.AddUndirectedEdge(d, e, 1.0).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(*g);
  EXPECT_EQ(engine.Distance(a, d), kInfWeight);
  EXPECT_DOUBLE_EQ(engine.Distance(a, c), 1.0);
}

TEST(DijkstraTest, PathEndpointsAndLength) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  const VertexId targets[] = {ex.v(17)};
  DijkstraEngine::RunOptions opts;
  opts.targets = targets;
  engine.RunFrom(ex.v(1), opts);
  const std::vector<VertexId> path = engine.PathTo(ex.v(17));
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), ex.v(1));
  EXPECT_EQ(path.back(), ex.v(17));
  // Path length equals reported distance.
  Weight len = 0.0;
  for (size_t i = 1; i < path.size(); ++i) {
    len += ex.graph.EdgeWeight(path[i - 1], path[i]);
  }
  EXPECT_DOUBLE_EQ(len, engine.DistanceTo(ex.v(17)));
}

TEST(DijkstraTest, RadiusBoundsSearch) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  DijkstraEngine::RunOptions opts;
  opts.radius = 4.0;
  engine.RunFrom(ex.v(1), opts);
  EXPECT_TRUE(engine.Reached(ex.v(5)));   // at distance 2
  EXPECT_FALSE(engine.Reached(ex.v(17)));  // far beyond radius
}

TEST(DijkstraTest, FilterRestrictsSearch) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  // Restrict to vertices v1..v6 (ids 0..5): v7+ unreachable.
  DijkstraEngine::RunOptions opts;
  opts.filter = [](VertexId v) { return v < 6; };
  engine.RunFrom(ex.v(1), opts);
  EXPECT_TRUE(engine.Reached(ex.v(6)));
  EXPECT_FALSE(engine.Reached(ex.v(7)));
}

TEST(DijkstraTest, MultiSourceSettlesNearestSource) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  const std::pair<VertexId, Weight> sources[] = {{ex.v(1), 0.0},
                                                 {ex.v(17), 0.0}};
  engine.Run(sources);
  EXPECT_EQ(engine.SourceOf(ex.v(5)), ex.v(1));
  EXPECT_EQ(engine.SourceOf(ex.v(16)), ex.v(17));
  EXPECT_DOUBLE_EQ(engine.DistanceTo(ex.v(16)), 3.0);
}

TEST(DijkstraTest, MultiSourceInitialDistances) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DijkstraEngine engine(ex.graph);
  // Bias v1 with a head start of 10: v17 side wins more vertices.
  const std::pair<VertexId, Weight> sources[] = {{ex.v(1), 10.0},
                                                 {ex.v(17), 0.0}};
  engine.Run(sources);
  EXPECT_EQ(engine.SourceOf(ex.v(5)), ex.v(1));
  EXPECT_DOUBLE_EQ(engine.DistanceTo(ex.v(5)), 12.0);
}

TEST(ShortestPathAgreementTest, AllEnginesAgreeOnRandomPairs) {
  const RoadNetwork g = SmallCity();
  DijkstraEngine dij(g);
  AStarEngine astar(g);
  util::Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const auto v = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const Weight d0 = dij.Distance(u, v);
    EXPECT_NEAR(astar.Distance(u, v), d0, 1e-9 * (1.0 + d0))
        << "astar mismatch " << u << "->" << v;
  }
}

TEST(ShortestPathAgreementTest, SymmetricDistances) {
  const RoadNetwork g = SmallCity();
  DijkstraEngine dij(g);
  util::Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const auto v = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    EXPECT_DOUBLE_EQ(dij.Distance(u, v), dij.Distance(v, u));
  }
}

TEST(AStarTest, LastPathMatchesDistance) {
  const RoadNetwork g = SmallCity();
  AStarEngine astar(g);
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const auto v = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const Weight d = astar.Distance(u, v);
    if (d == kInfWeight) continue;
    const std::vector<VertexId> path = astar.LastPath();
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), u);
    EXPECT_EQ(path.back(), v);
    Weight len = 0.0;
    for (size_t k = 1; k < path.size(); ++k) {
      len += g.EdgeWeight(path[k - 1], path[k]);
    }
    EXPECT_NEAR(len, d, 1e-9 * (1.0 + d));
  }
}

TEST(DistanceOracleTest, CachesSymmetricPairs) {
  const RoadNetwork g = SmallCity();
  DistanceOracle oracle(g);
  const Weight d1 = oracle.Distance(3, 40);
  const Weight d2 = oracle.Distance(40, 3);  // symmetric: cache hit
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.cache_hits(), 1u);
  EXPECT_EQ(oracle.computed(), 1u);
}

TEST(DistanceOracleTest, TrivialAndInvalidQueries) {
  const RoadNetwork g = SmallCity();
  DistanceOracle oracle(g);
  EXPECT_DOUBLE_EQ(oracle.Distance(5, 5), 0.0);
  EXPECT_EQ(oracle.Distance(-1, 5), kInfWeight);
  EXPECT_EQ(oracle.computed(), 0u);
}

TEST(DistanceOracleTest, CacheEviction) {
  const RoadNetwork g = SmallCity();
  DistanceOracleOptions opts;
  opts.cache_capacity = 4;
  DistanceOracle oracle(g, opts);
  for (VertexId v = 1; v <= 10; ++v) oracle.Distance(0, v);
  // All still correct after eviction churn.
  DijkstraEngine dij(g);
  for (VertexId v = 1; v <= 10; ++v) {
    EXPECT_DOUBLE_EQ(oracle.Distance(0, v), dij.Distance(0, v));
  }
}

TEST(DistanceOracleTest, CacheEvictsLeastRecentlyUsed) {
  // Pin the flat cache's LRU semantics: a hit refreshes recency, an
  // insert at capacity evicts the stalest pair. Observed through
  // computed(): a re-query of a cached pair leaves it unchanged.
  const RoadNetwork g = SmallCity();
  DistanceOracleOptions opts;
  opts.cache_capacity = 3;
  DistanceOracle oracle(g, opts);
  oracle.Distance(0, 1);  // A
  oracle.Distance(0, 2);  // B
  oracle.Distance(0, 3);  // C    recency: C B A
  EXPECT_EQ(oracle.computed(), 3u);

  oracle.Distance(0, 1);  // hit A  recency: A C B
  EXPECT_EQ(oracle.cache_hits(), 1u);
  EXPECT_EQ(oracle.computed(), 3u);

  oracle.Distance(0, 4);  // D evicts B (LRU), not A: recency D A C
  EXPECT_EQ(oracle.computed(), 4u);

  oracle.Distance(0, 1);  // A survived its refresh
  oracle.Distance(0, 3);  // C survived
  EXPECT_EQ(oracle.cache_hits(), 3u);
  EXPECT_EQ(oracle.computed(), 4u);

  oracle.Distance(0, 2);  // B was evicted: recomputes (evicting D)
  EXPECT_EQ(oracle.cache_hits(), 3u);
  EXPECT_EQ(oracle.computed(), 5u);

  oracle.Distance(0, 4);  // and D is gone in turn
  EXPECT_EQ(oracle.computed(), 6u);
}

TEST(DistanceOracleTest, CacheChurnStaysConsistent) {
  // Heavy insert/hit/evict mix over a tiny capacity: the open-addressing
  // table's backward-shift deletions must never lose or corrupt entries.
  const RoadNetwork g = SmallCity();
  DistanceOracleOptions opts;
  opts.cache_capacity = 16;
  DistanceOracle oracle(g, opts);
  DijkstraEngine ref(g);
  util::Rng rng(2024);
  for (int i = 0; i < 3000; ++i) {
    const auto u = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const auto v = static_cast<VertexId>(rng.UniformInt(0, 12));
    EXPECT_DOUBLE_EQ(oracle.Distance(u, v), ref.Distance(u, v));
  }
  EXPECT_EQ(oracle.queries(), 3000u);
  EXPECT_GT(oracle.cache_hits(), 0u);
}

TEST(DistanceOracleTest, AllAlgorithmsAgree) {
  const RoadNetwork g = SmallCity();
  DistanceOracleOptions base;
  base.cache_capacity = 0;
  util::Rng rng(42);
  for (const SpAlgorithm algo :
       {SpAlgorithm::kDijkstra, SpAlgorithm::kAStar,
        SpAlgorithm::kContractionHierarchy}) {
    DistanceOracleOptions opts = base;
    opts.algorithm = algo;
    DistanceOracle oracle(g, opts);
    DijkstraEngine ref(g);
    for (int i = 0; i < 30; ++i) {
      const auto u = static_cast<VertexId>(
          rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
      const auto v = static_cast<VertexId>(
          rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
      EXPECT_DOUBLE_EQ(oracle.Distance(u, v), ref.Distance(u, v))
          << SpAlgorithmName(algo);
    }
  }
}

TEST(DistanceOracleTest, ShortestPathCountsAsQuery) {
  // Path queries used to run a hidden A* whose heap pops surfaced in
  // heap_pops() while queries()/computed() never moved — the per-search
  // effort ratios were skewed. They now share Distance's accounting.
  const RoadNetwork g = SmallCity();
  DistanceOracleOptions opts;
  opts.algorithm = SpAlgorithm::kDijkstra;  // path engine is hidden
  DistanceOracle oracle(g, opts);

  auto path = oracle.ShortestPath(0, 40);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(oracle.queries(), 1u);
  EXPECT_EQ(oracle.computed(), 1u);
  EXPECT_GT(oracle.heap_pops(), 0u);  // the lazily built A* is counted

  // Trivial path: a query, but no search — exactly like Distance(v, v).
  ASSERT_TRUE(oracle.ShortestPath(5, 5).ok());
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.computed(), 1u);

  // Invalid endpoints: counted as a query, like Distance's screening.
  EXPECT_FALSE(oracle.ShortestPath(-1, 2).ok());
  EXPECT_EQ(oracle.queries(), 3u);
  EXPECT_EQ(oracle.computed(), 1u);

  // Paths are not cached: the same pair searches again.
  ASSERT_TRUE(oracle.ShortestPath(0, 40).ok());
  EXPECT_EQ(oracle.queries(), 4u);
  EXPECT_EQ(oracle.computed(), 2u);
  EXPECT_EQ(oracle.cache_hits(), 0u);

  // And ResetStats clears the path engine's pops too.
  oracle.ResetStats();
  EXPECT_EQ(oracle.heap_pops(), 0u);
}

TEST(DistanceOracleTest, ShortestPathExtraction) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  DistanceOracle oracle(ex.graph);
  auto path = oracle.ShortestPath(ex.v(2), ex.v(16));
  ASSERT_TRUE(path.ok());
  // v2 -> v7 -> v12 -> v16 is the unique shortest path (length 12).
  const std::vector<VertexId> expected = {ex.v(2), ex.v(7), ex.v(12),
                                          ex.v(16)};
  EXPECT_EQ(path.value(), expected);

  auto self = oracle.ShortestPath(ex.v(3), ex.v(3));
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->size(), 1u);

  EXPECT_FALSE(oracle.ShortestPath(-1, 2).ok());
}

}  // namespace
}  // namespace ptrider::roadnet
