#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
  // A symmetric network is searched from the smaller id either way, so
  // both directions return one double; nothing is memoized outside an
  // anchor, so each lookup searches.
  const RoadNetwork g = SmallCity();
  DistanceOracle oracle(g);
  const Weight d1 = oracle.Distance(3, 40);
  const Weight d2 = oracle.Distance(40, 3);
  EXPECT_EQ(std::bit_cast<uint64_t>(d1), std::bit_cast<uint64_t>(d2));
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.cache_hits(), 0u);
  EXPECT_EQ(oracle.computed(), 2u);
}

TEST(DistanceOracleTest, DirectedGraphAnswersEachDirection) {
  // One-way 4-cycle a -> c -> d -> e -> a: dist(a, c) is one edge,
  // dist(c, a) the long way round. The oracle reads the graph's symmetry
  // and must not answer (c, a) with (a, c).
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({1, 0});
  const VertexId d = b.AddVertex({2, 0});
  const VertexId e = b.AddVertex({1, 1});
  ASSERT_TRUE(b.AddEdge(a, c, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(c, d, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(d, e, 1.5).ok());
  ASSERT_TRUE(b.AddEdge(e, a, 1.5).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine ref(*g);
  for (const SpAlgorithm algo :
       {SpAlgorithm::kDijkstra, SpAlgorithm::kAStar,
        SpAlgorithm::kContractionHierarchy}) {
    DistanceOracleOptions opts;
    opts.algorithm = algo;
    DistanceOracle oracle(*g, opts);
    for (VertexId u = 0; u < 4; ++u) {
      for (VertexId v = 0; v < 4; ++v) {
        EXPECT_EQ(std::bit_cast<uint64_t>(oracle.Distance(u, v)),
                  std::bit_cast<uint64_t>(ref.Distance(u, v)))
            << SpAlgorithmName(algo) << " v" << u << " -> v" << v;
      }
    }
    EXPECT_EQ(oracle.Distance(c, a), 4.0) << SpAlgorithmName(algo);
  }
}

TEST(DistanceOracleTest, TrivialAndInvalidQueries) {
  const RoadNetwork g = SmallCity();
  DistanceOracle oracle(g);
  EXPECT_DOUBLE_EQ(oracle.Distance(5, 5), 0.0);
  EXPECT_EQ(oracle.Distance(-1, 5), kInfWeight);
  EXPECT_EQ(oracle.computed(), 0u);
}

TEST(DistanceOracleTest, AllAlgorithmsAgree) {
  const RoadNetwork g = SmallCity();
  util::Rng rng(42);
  for (const SpAlgorithm algo :
       {SpAlgorithm::kDijkstra, SpAlgorithm::kAStar,
        SpAlgorithm::kContractionHierarchy}) {
    DistanceOracleOptions opts;
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

// Movement reads each root leg to the end of a vehicle's route from the
// rest of that route (DESIGN.md 7.5): a suffix of a ShortestPath is a
// shortest path too, summed in the oracle's order. Raw-bit equality with
// a search holds under 7.4's premise, shortest paths unique beyond float
// rounding, which every jittered generated graph meets. On an unjittered
// lattice (weight_jitter = position_jitter = 0) rounding ties abound, a
// search may sum a different tied path, and the engines themselves agree
// only within a few ulps, so no such graph is tested here.
TEST(DistanceOracleTest, RouteDistanceOfEverySuffixIsTheSearchedBits) {
  std::vector<std::pair<std::string, RoadNetwork>> graphs;
  for (const uint64_t seed : {5, 17, 29}) {
    CityGridOptions city;
    city.rows = 16;
    city.cols = 16;
    city.seed = seed;
    auto g = MakeCityGrid(city);
    ASSERT_TRUE(g.ok());
    graphs.emplace_back("city seed " + std::to_string(seed),
                        std::move(g).value());
  }
  RingCityOptions ring;
  ring.rings = 10;
  ring.spokes = 20;
  ring.seed = 8;
  auto r = MakeRingCity(ring);
  ASSERT_TRUE(r.ok());
  graphs.emplace_back("ring", std::move(r).value());

  for (const auto& [name, g] : graphs) {
    for (const SpAlgorithm algo :
         {SpAlgorithm::kDijkstra, SpAlgorithm::kAStar,
          SpAlgorithm::kContractionHierarchy}) {
      DistanceOracleOptions opts;
      opts.algorithm = algo;
      DistanceOracle router(g, opts);
      DistanceOracle reference = router.Clone();
      util::Rng rng(7);
      const auto n = static_cast<int64_t>(g.NumVertices());
      size_t suffixes = 0;
      for (int i = 0; i < 300; ++i) {
        const auto u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
        const auto v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
        auto route = router.ShortestPath(u, v);
        ASSERT_TRUE(route.ok());
        const std::span<const VertexId> whole(*route);
        for (size_t k = 0; k < whole.size(); ++k) {
          const std::span<const VertexId> rest = whole.subspan(k);
          ASSERT_EQ(std::bit_cast<uint64_t>(router.RouteDistance(rest)),
                    std::bit_cast<uint64_t>(
                        reference.Distance(rest.front(), rest.back())))
              << name << ", " << SpAlgorithmName(algo) << ": route v" << u
              << " -> v" << v << " from position " << k;
          ++suffixes;
        }
      }
      EXPECT_GT(suffixes, 2500u) << name;
      // Summing a route is arithmetic, not a query.
      EXPECT_EQ(router.queries(), 300u);
    }
  }
}

}  // namespace
}  // namespace ptrider::roadnet
