#include "sim/workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "roadnet/graph_generator.h"
#include "roadnet/vertex_locator.h"
#include "util/random.h"

namespace ptrider::sim {
namespace {

roadnet::RoadNetwork TestCity() {
  roadnet::CityGridOptions opts;
  opts.rows = 12;
  opts.cols = 12;
  opts.seed = 5;
  auto g = roadnet::MakeCityGrid(opts);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(VertexLocatorTest, FindsExactVertices) {
  const roadnet::RoadNetwork g = TestCity();
  const roadnet::VertexLocator locator(g);
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(g.NumVertices()); v += 7) {
    EXPECT_EQ(locator.Nearest(g.Coord(v)), v);
  }
}

TEST(VertexLocatorTest, NearestIsTrulyNearest) {
  const roadnet::RoadNetwork g = TestCity();
  const roadnet::VertexLocator locator(g, 16);
  util::Rng rng(3);
  const util::BoundingBox& box = g.bounds();
  for (int i = 0; i < 100; ++i) {
    const util::Point p{
        rng.UniformDouble(box.min_x - 500.0, box.max_x + 500.0),
        rng.UniformDouble(box.min_y - 500.0, box.max_y + 500.0)};
    const roadnet::VertexId got = locator.Nearest(p);
    ASSERT_NE(got, roadnet::kInvalidVertex);
    const double got_d = util::EuclideanDistance(p, g.Coord(got));
    for (roadnet::VertexId v = 0;
         v < static_cast<roadnet::VertexId>(g.NumVertices()); ++v) {
      EXPECT_LE(got_d, util::EuclideanDistance(p, g.Coord(v)) + 1e-9);
    }
  }
}

TEST(WorkloadTest, GeneratesSortedValidTrips) {
  const roadnet::RoadNetwork g = TestCity();
  HotspotWorkloadOptions opts;
  opts.num_trips = 500;
  opts.duration_s = 3600.0;
  auto trips = GenerateHotspotTrips(g, opts);
  ASSERT_TRUE(trips.ok());
  ASSERT_EQ(trips->size(), 500u);
  double prev = 0.0;
  for (const Trip& t : *trips) {
    EXPECT_GE(t.time_s, prev);
    EXPECT_LE(t.time_s, opts.duration_s);
    EXPECT_TRUE(g.IsValidVertex(t.origin));
    EXPECT_TRUE(g.IsValidVertex(t.destination));
    EXPECT_NE(t.origin, t.destination);
    EXPECT_GE(t.num_riders, 1);
    EXPECT_LE(t.num_riders, 4);
    prev = t.time_s;
  }
}

TEST(WorkloadTest, DeterministicPerSeed) {
  const roadnet::RoadNetwork g = TestCity();
  HotspotWorkloadOptions opts;
  opts.num_trips = 100;
  auto a = GenerateHotspotTrips(g, opts);
  auto b = GenerateHotspotTrips(g, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].origin, (*b)[i].origin);
    EXPECT_EQ((*a)[i].destination, (*b)[i].destination);
    EXPECT_DOUBLE_EQ((*a)[i].time_s, (*b)[i].time_s);
  }
}

TEST(WorkloadTest, HotspotBiasSkewsSpatialDistribution) {
  const roadnet::RoadNetwork g = TestCity();
  HotspotWorkloadOptions skewed;
  skewed.num_trips = 2000;
  skewed.num_hotspots = 2;
  skewed.origin_hotspot_bias = 1.0;
  skewed.hotspot_stddev_m = 150.0;
  auto trips = GenerateHotspotTrips(g, skewed);
  ASSERT_TRUE(trips.ok());
  // With 2 tight hotspots, origins concentrate on few vertices.
  std::vector<int> counts(g.NumVertices(), 0);
  for (const Trip& t : *trips) ++counts[static_cast<size_t>(t.origin)];
  int vertices_with_origins = 0;
  for (const int c : counts) {
    if (c > 0) ++vertices_with_origins;
  }
  EXPECT_LT(vertices_with_origins,
            static_cast<int>(g.NumVertices()) / 3);
}

TEST(WorkloadTest, HourlyProfileShapesArrivals) {
  const roadnet::RoadNetwork g = TestCity();
  HotspotWorkloadOptions opts;
  opts.num_trips = 5000;
  opts.hourly_profile.fill(0.0);
  opts.hourly_profile[8] = 1.0;   // everything between 8:00 and 9:00
  auto trips = GenerateHotspotTrips(g, opts);
  ASSERT_TRUE(trips.ok());
  for (const Trip& t : *trips) {
    EXPECT_GE(t.time_s, 8.0 * 3600.0);
    EXPECT_LT(t.time_s, 9.0 * 3600.0);
  }
}

TEST(WorkloadTest, SaveAndLoadRoundTrip) {
  const roadnet::RoadNetwork g = TestCity();
  HotspotWorkloadOptions opts;
  opts.num_trips = 50;
  auto trips = GenerateHotspotTrips(g, opts);
  ASSERT_TRUE(trips.ok());
  const std::string path = ::testing::TempDir() + "/trips_roundtrip.csv";
  ASSERT_TRUE(SaveTrips(*trips, path).ok());
  auto loaded = LoadTrips(g, path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), trips->size());
  for (size_t i = 0; i < trips->size(); ++i) {
    EXPECT_EQ((*loaded)[i].origin, (*trips)[i].origin);
    EXPECT_EQ((*loaded)[i].destination, (*trips)[i].destination);
    EXPECT_EQ((*loaded)[i].num_riders, (*trips)[i].num_riders);
    EXPECT_NEAR((*loaded)[i].time_s, (*trips)[i].time_s, 1e-3);
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, LoadAcceptsHeaderRowAndComments) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_header.csv";
  {
    std::ofstream out(path);
    out << "# exported trace\n"
        << "time_s,origin,destination,riders\n"
        << "1.5,0,1,2\n"
        << "# mid-file comment\n"
        << "3.0,2,3,1\n";
  }
  auto loaded = LoadTrips(g, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_NEAR((*loaded)[0].time_s, 1.5, 1e-9);
  EXPECT_EQ((*loaded)[0].origin, 0);
  EXPECT_EQ((*loaded)[0].destination, 1);
  EXPECT_EQ((*loaded)[0].num_riders, 2);
  EXPECT_EQ((*loaded)[1].origin, 2);
  std::remove(path.c_str());
}

TEST(WorkloadTest, LoadAcceptsSpacedHeaderVariants) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_header2.csv";
  {
    std::ofstream out(path);
    out << " time_s , origin , destination , riders \n"
        << "2.0,4,5,1\n";
  }
  auto loaded = LoadTrips(g, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].origin, 4);
  std::remove(path.c_str());
}

TEST(WorkloadTest, HeaderOnlyFileLoadsEmpty) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_header_only.csv";
  {
    std::ofstream out(path);
    out << "time_s,origin,destination,riders\n";
  }
  auto loaded = LoadTrips(g, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(WorkloadTest, HeaderAfterFirstRecordIsRejected) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_header_late.csv";
  {
    std::ofstream out(path);
    out << "1.0,0,1,1\n"
        << "time_s,origin,destination,riders\n";  // data, not a header
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  std::remove(path.c_str());
}

TEST(WorkloadTest, LoadRejectsMalformedRows) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_bad.csv";
  {
    std::ofstream out(path);
    out << "1.0,0,1\n";  // missing field
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "1.0,0,1,1,7\n";  // extra field
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "1.0,0,999999,1\n";  // vertex outside network
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "1.0,-3,1,1\n";  // negative vertex id
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "1.0,0,1,0\n";  // zero riders
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "1.0,5,5,1\n";  // origin == destination
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "abc,0,1,1\n";  // non-numeric time
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "1.0,0,1,two\n";  // non-numeric riders
  }
  EXPECT_FALSE(LoadTrips(g, path).ok());
  {
    std::ofstream out(path);
    out << "2.0,0,1,1\n"
        << "\n"             // blank line mid-file
        << "1.0,0,1,x\n";   // error names the right line
  }
  const auto status = LoadTrips(g, path).status();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

// strtod reads "nan" and "inf": such a row is no submission time, and a
// NaN would break the time sort. The error names the row's line.
TEST(WorkloadTest, LoadRejectsNonFiniteTimes) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_nonfinite.csv";
  for (const char* time : {"nan", "inf", "-inf", "NAN", "infinity"}) {
    SCOPED_TRACE(time);
    {
      std::ofstream out(path);
      out << "1.0,0,1,1\n"
          << "2.0,2,3,1\n"
          << time << ",4,5,1\n"
          << "3.0,6,7,1\n";
    }
    const auto status = LoadTrips(g, path).status();
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("line 3"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, LoadRejectsMissingFile) {
  const roadnet::RoadNetwork g = TestCity();
  EXPECT_FALSE(
      LoadTrips(g, ::testing::TempDir() + "/no_such_trace.csv").ok());
}

TEST(WorkloadTest, LoadSortsUnorderedRowsAndSkipsComments) {
  const roadnet::RoadNetwork g = TestCity();
  const std::string path = ::testing::TempDir() + "/trips_unsorted.csv";
  {
    std::ofstream out(path);
    out << "# time_s,origin,destination,riders\n"
        << "30.5,4,9,2\n"
        << "1.25,0,1,1\n"
        << "12.0,7,2,4\n";
  }
  auto trips = LoadTrips(g, path);
  ASSERT_TRUE(trips.ok());
  ASSERT_EQ(trips->size(), 3u);
  EXPECT_DOUBLE_EQ((*trips)[0].time_s, 1.25);
  EXPECT_EQ((*trips)[0].origin, 0);
  EXPECT_EQ((*trips)[1].num_riders, 4);
  EXPECT_DOUBLE_EQ((*trips)[2].time_s, 30.5);
  EXPECT_EQ((*trips)[2].destination, 9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ptrider::sim
