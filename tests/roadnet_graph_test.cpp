#include "roadnet/graph.h"

#include <gtest/gtest.h>

#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"

namespace ptrider::roadnet {
namespace {

TEST(GraphBuilderTest, BuildsSmallGraph) {
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({3, 4});
  ASSERT_TRUE(b.AddUndirectedEdge(a, c, 5.0).ok());
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  const RoadNetwork& g = built.value();
  EXPECT_EQ(g.NumVertices(), 2u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.OutDegree(a), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(a, c), 5.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(c, a), 5.0);
  EXPECT_EQ(g.EdgeWeight(a, a), kInfWeight);
  EXPECT_TRUE(g.GeometricLowerBoundValid());
  EXPECT_DOUBLE_EQ(g.GeoLowerBound(a, c), 5.0);
}

TEST(GraphBuilderTest, RejectsBadEdges) {
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({1, 0});
  EXPECT_FALSE(b.AddEdge(a, a, 1.0).ok()) << "self loop";
  EXPECT_FALSE(b.AddEdge(a, 5, 1.0).ok()) << "unknown endpoint";
  EXPECT_FALSE(b.AddEdge(-1, c, 1.0).ok()) << "negative endpoint";
  EXPECT_FALSE(b.AddEdge(a, c, 0.0).ok()) << "zero weight";
  EXPECT_FALSE(b.AddEdge(a, c, -2.0).ok()) << "negative weight";
  EXPECT_FALSE(b.AddEdge(a, c, kInfWeight).ok()) << "infinite weight";
}

TEST(GraphBuilderTest, EmptyGraphFailsBuild) {
  GraphBuilder b;
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, ShortcutEdgeInvalidatesGeoLowerBound) {
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({10, 0});
  ASSERT_TRUE(b.AddUndirectedEdge(a, c, 4.0).ok());  // shorter than 10
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(built->GeometricLowerBoundValid());
  EXPECT_DOUBLE_EQ(built->GeoLowerBound(a, c), 0.0);
}

TEST(GraphBuilderTest, ParallelEdgesKeepMinWeight) {
  GraphBuilder b;
  const VertexId a = b.AddVertex({0, 0});
  const VertexId c = b.AddVertex({1, 0});
  ASSERT_TRUE(b.AddEdge(a, c, 3.0).ok());
  ASSERT_TRUE(b.AddEdge(a, c, 2.0).ok());
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_DOUBLE_EQ(built->EdgeWeight(a, c), 2.0);
  EXPECT_EQ(built->OutDegree(a), 2u);
}

TEST(GraphTest, SymmetryComparesTheLightestEdgeEachWay) {
  // Two vertices joined both ways at weight 2, plus one extra a -> c.
  const auto pair_with_extra = [](Weight extra) {
    GraphBuilder b;
    const VertexId a = b.AddVertex({0, 0});
    const VertexId c = b.AddVertex({1, 0});
    EXPECT_TRUE(b.AddUndirectedEdge(a, c, 2.0).ok());
    EXPECT_TRUE(b.AddEdge(a, c, extra).ok());
    auto g = b.Build();
    EXPECT_TRUE(g.ok());
    return std::move(g).value();
  };
  EXPECT_TRUE(IsSymmetric(pair_with_extra(3.0)));   // heavier: never taken
  EXPECT_FALSE(IsSymmetric(pair_with_extra(1.0)));  // lighter one way only
}

TEST(GraphTest, BoundsCoverAllVertices) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  const util::BoundingBox& box = ex.graph.bounds();
  for (VertexId v = 0; v < static_cast<VertexId>(ex.graph.NumVertices());
       ++v) {
    EXPECT_TRUE(box.Contains(ex.graph.Coord(v)));
  }
  EXPECT_DOUBLE_EQ(box.width(), 15.0);
  EXPECT_DOUBLE_EQ(box.height(), 6.0);
}

TEST(GraphGeneratorTest, CityGridIsConnectedAndGeoValid) {
  CityGridOptions opts;
  opts.rows = 20;
  opts.cols = 25;
  opts.seed = 7;
  auto g = MakeCityGrid(opts);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->NumVertices(), 400u);  // most of 500 survive
  EXPECT_TRUE(g->GeometricLowerBoundValid());
  // Connectivity: LargestComponent of the result is the result itself.
  auto lc = LargestComponent(*g);
  ASSERT_TRUE(lc.ok());
  EXPECT_EQ(lc->NumVertices(), g->NumVertices());
  EXPECT_EQ(lc->NumEdges(), g->NumEdges());
}

TEST(GraphGeneratorTest, CityGridDeterministicPerSeed) {
  CityGridOptions opts;
  opts.rows = 10;
  opts.cols = 10;
  opts.seed = 3;
  auto g1 = MakeCityGrid(opts);
  auto g2 = MakeCityGrid(opts);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_EQ(g1->NumVertices(), g2->NumVertices());
  ASSERT_EQ(g1->NumEdges(), g2->NumEdges());
  for (VertexId v = 0; v < static_cast<VertexId>(g1->NumVertices()); ++v) {
    EXPECT_EQ(g1->Coord(v), g2->Coord(v));
  }
}

TEST(GraphGeneratorTest, RejectsDegenerateOptions) {
  CityGridOptions opts;
  opts.rows = 1;
  EXPECT_FALSE(MakeCityGrid(opts).ok());
  opts.rows = 10;
  opts.spacing_m = 0.0;
  EXPECT_FALSE(MakeCityGrid(opts).ok());
  RingCityOptions ring;
  ring.spokes = 2;
  EXPECT_FALSE(MakeRingCity(ring).ok());
}

TEST(GraphGeneratorTest, RingCityShape) {
  RingCityOptions opts;
  opts.rings = 5;
  opts.spokes = 8;
  auto g = MakeRingCity(opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 1u + 5u * 8u);
  EXPECT_TRUE(g->GeometricLowerBoundValid());
  // Center connects to all first-ring vertices.
  EXPECT_EQ(g->OutDegree(0), 8u);
}

TEST(GraphGeneratorTest, LargestComponentPicksBiggest) {
  GraphBuilder b;
  // Component A: triangle; component B: a single edge.
  const VertexId a0 = b.AddVertex({0, 0});
  const VertexId a1 = b.AddVertex({1, 0});
  const VertexId a2 = b.AddVertex({0, 1});
  const VertexId b0 = b.AddVertex({10, 10});
  const VertexId b1 = b.AddVertex({11, 10});
  ASSERT_TRUE(b.AddUndirectedEdge(a0, a1, 1.5).ok());
  ASSERT_TRUE(b.AddUndirectedEdge(a1, a2, 2.0).ok());
  ASSERT_TRUE(b.AddUndirectedEdge(a2, a0, 1.5).ok());
  ASSERT_TRUE(b.AddUndirectedEdge(b0, b1, 1.0).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto lc = LargestComponent(*g);
  ASSERT_TRUE(lc.ok());
  EXPECT_EQ(lc->NumVertices(), 3u);
  EXPECT_EQ(lc->NumEdges(), 6u);
}

}  // namespace
}  // namespace ptrider::roadnet
