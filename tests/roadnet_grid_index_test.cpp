#include "roadnet/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "roadnet/dijkstra.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"
#include "util/random.h"

namespace ptrider::roadnet {
namespace {

GridIndex BuildIndex(const RoadNetwork& g, int cells) {
  GridIndexOptions opts;
  opts.cells_x = cells;
  opts.cells_y = cells;
  auto index = GridIndex::Build(g, opts);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

TEST(GridIndexTest, RejectsBadOptions) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  GridIndexOptions opts;
  opts.cells_x = 0;
  EXPECT_FALSE(GridIndex::Build(ex.graph, opts).ok());
}

TEST(GridIndexTest, RejectsAsymmetricNetwork) {
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({1, 0});
  ASSERT_TRUE(b.AddEdge(a, c, 1.0).ok());  // one-way street
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(GridIndex::Build(*g).ok());
}

TEST(GridIndexTest, SingleCellDegenerateGrid) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 1);
  EXPECT_EQ(index.NumCells(), 1);
  // No cell crossings: no border vertices, every v.min infinite.
  for (VertexId v = 0; v < 17; ++v) {
    EXPECT_EQ(index.CellOfVertex(v), 0);
    EXPECT_EQ(index.VertexMinToBorder(v), kInfWeight);
  }
  // Same-cell lower bound falls back to geometry.
  EXPECT_GT(index.LowerBound(ex.v(1), ex.v(17)), 0.0);
}

TEST(GridIndexTest, BorderVerticesHaveCrossingEdges) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 3);
  size_t borders = 0;
  for (CellId c = 0; c < index.NumCells(); ++c) {
    for (const VertexId b : index.BorderVertices(c)) {
      ++borders;
      EXPECT_EQ(index.CellOfVertex(b), c);
      bool crossing = false;
      for (const Edge& e : ex.graph.OutEdges(b)) {
        if (index.CellOfVertex(e.to) != c) crossing = true;
      }
      // A border vertex has a crossing edge in one direction; for
      // undirected networks the reverse holds too.
      EXPECT_TRUE(crossing) << "v" << b + 1;
    }
  }
  EXPECT_GT(borders, 0u);
  EXPECT_EQ(borders, index.build_stats().border_vertex_count);
}

TEST(GridIndexTest, VertexMinIsExactNearestBorderDistance) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 3);
  DijkstraEngine dij(ex.graph);
  for (VertexId v = 0; v < 17; ++v) {
    const auto& borders = index.BorderVertices(index.CellOfVertex(v));
    if (borders.empty()) {
      EXPECT_EQ(index.VertexMinToBorder(v), kInfWeight);
      continue;
    }
    Weight best = kInfWeight;
    for (const VertexId b : borders) {
      best = std::min(best, dij.Distance(v, b));
    }
    EXPECT_DOUBLE_EQ(index.VertexMinToBorder(v), best) << "v" << v + 1;
  }
}

TEST(GridIndexTest, CellPairLowerBoundIsMinBorderDistance) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 3);
  DijkstraEngine dij(ex.graph);
  for (CellId a = 0; a < index.NumCells(); ++a) {
    EXPECT_DOUBLE_EQ(index.CellPairLowerBound(a, a), 0.0);
    for (CellId b = 0; b < index.NumCells(); ++b) {
      if (a == b) continue;
      Weight best = kInfWeight;
      for (const VertexId x : index.BorderVertices(a)) {
        for (const VertexId y : index.BorderVertices(b)) {
          best = std::min(best, dij.Distance(x, y));
        }
      }
      EXPECT_DOUBLE_EQ(index.CellPairLowerBound(a, b), best);
    }
  }
}

TEST(GridIndexTest, SortedCellListsAscendingAndComplete) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 3);
  for (CellId c = 0; c < index.NumCells(); ++c) {
    // The list holds ids; each entry's bound is its matrix entry.
    const auto list = index.SortedCellList(c);
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_LE(index.CellPairLowerBound(c, list[i - 1]),
                index.CellPairLowerBound(c, list[i]));
    }
    for (const CellId cell : list) {
      EXPECT_NE(cell, c);
      EXPECT_FALSE(index.Vertices(cell).empty());
      EXPECT_LT(index.CellPairLowerBound(c, cell), kInfWeight);
    }
  }
}

// Property: LowerBound never exceeds the double an unanchored oracle
// returns, on every pair of a generated city, at several grid
// resolutions and with both point-to-point engines. Raw comparison: a
// bound one ulp above the distance lets strict-dominance pruning drop a
// tied option.
class GridIndexBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexBoundsTest, LowerBoundIsAdmissible) {
  CityGridOptions copts;
  copts.rows = 15;
  copts.cols = 15;
  copts.seed = 31;
  auto g = MakeCityGrid(copts);
  ASSERT_TRUE(g.ok());
  const GridIndex index = BuildIndex(*g, GetParam());
  const auto n = static_cast<VertexId>(g->NumVertices());
  for (const SpAlgorithm algo : {SpAlgorithm::kDijkstra, SpAlgorithm::kAStar}) {
    SCOPED_TRACE(SpAlgorithmName(algo));
    DistanceOracle oracle(*g, {algo});
    size_t over = 0;
    for (VertexId u = 0; u < n; ++u) {
      EXPECT_EQ(index.LowerBound(u, u), 0.0);
      for (VertexId v = 0; v < n; ++v) {
        if (u != v && index.LowerBound(u, v) > oracle.Distance(u, v)) ++over;
      }
    }
    EXPECT_EQ(over, 0u) << "of " << static_cast<size_t>(n) * (n - 1)
                        << " pairs";
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridIndexBoundsTest,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(GridIndexTest, CellOfPointClampsOutside) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 3);
  EXPECT_EQ(index.CellOfPoint({-100.0, -100.0}), 0);
  EXPECT_EQ(index.CellOfPoint({1e9, 1e9}), index.NumCells() - 1);
}

TEST(GridIndexTest, BuildStatsPopulated) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const GridIndex index = BuildIndex(ex.graph, 3);
  EXPECT_GT(index.build_stats().non_empty_cells, 0u);
  EXPECT_GT(index.build_stats().approx_memory_bytes, 0u);
  EXPECT_GE(index.build_stats().build_seconds, 0.0);
  EXPECT_FALSE(index.DebugString().empty());
}

}  // namespace
}  // namespace ptrider::roadnet
