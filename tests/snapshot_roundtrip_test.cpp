// Versioned mmap snapshot (src/snapshot/): a written-then-loaded
// snapshot must be indistinguishable from the in-memory structures it
// serialized — structurally (arrays, scalars), behaviorally (query
// bit-identity, whole-SimulationReport equality across seeds) — and the
// loader must refuse corrupted, truncated and foreign-version files
// with a clean util::Status instead of undefined behavior.

#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "roadnet/ch.h"
#include "roadnet/dijkstra.h"
#include "roadnet/graph_generator.h"
#include "roadnet/grid_index.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "snapshot/format.h"
#include "snapshot/system.h"
#include "util/random.h"

namespace ptrider::snapshot {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// The grid keeps a pointer to the graph it was built over, so the graph
// must live at a stable heap address before the indexes are built.
struct Built {
  std::optional<roadnet::RoadNetwork> graph;
  std::optional<roadnet::GridIndex> grid;
  std::optional<roadnet::CHIndex> ch;
};

std::unique_ptr<Built> BuildCity(uint64_t seed,
                                 roadnet::GridIndexOptions gridopts) {
  roadnet::CityGridOptions city;
  city.rows = 14;
  city.cols = 11;
  city.seed = seed;
  auto graph = roadnet::MakeCityGrid(city);
  EXPECT_TRUE(graph.ok());
  auto b = std::make_unique<Built>();
  b->graph = std::move(*graph);
  auto grid = roadnet::GridIndex::Build(*b->graph, gridopts);
  EXPECT_TRUE(grid.ok());
  b->grid = std::move(*grid);
  b->ch = roadnet::CHIndex::Build(*b->graph);
  return b;
}

std::string WriteTempSnapshot(const Built& b, const char* name) {
  const std::string path = TempPath(name);
  const util::Status written =
      WriteSnapshot(*b.graph, *b.grid, *b.ch, path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return path;
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(SnapshotRoundtripTest, StructuresSurviveExactly) {
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 5;
  gridopts.cells_y = 5;
  const auto b = BuildCity(/*seed=*/909, gridopts);
  const std::string path = WriteTempSnapshot(*b, "roundtrip.snap");

  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info().version, kFormatVersion);
  EXPECT_EQ(loaded->info().num_vertices, b->graph->NumVertices());
  EXPECT_EQ(loaded->info().num_edges, b->graph->NumEdges());

  // Graph: every coordinate and every CSR adjacency list, bit for bit.
  const roadnet::RoadNetwork& g = loaded->graph();
  ASSERT_EQ(g.NumVertices(), b->graph->NumVertices());
  ASSERT_EQ(g.NumEdges(), b->graph->NumEdges());
  EXPECT_EQ(g.GeometricLowerBoundValid(),
            b->graph->GeometricLowerBoundValid());
  EXPECT_EQ(g.bounds().min_x, b->graph->bounds().min_x);
  EXPECT_EQ(g.bounds().max_y, b->graph->bounds().max_y);
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(g.NumVertices()); ++v) {
    EXPECT_EQ(g.Coord(v).x, b->graph->Coord(v).x);
    EXPECT_EQ(g.Coord(v).y, b->graph->Coord(v).y);
    const auto got = g.OutEdges(v);
    const auto want = b->graph->OutEdges(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to);
      EXPECT_EQ(got[i].weight, want[i].weight);
    }
  }

  // Grid: same resolution, every array element for element (per-vertex
  // cells and v.min, each cell's three lists, every cell-pair bound), and
  // the build stats, except the wall-clock build time, which the file
  // does not hold.
  const roadnet::GridIndex& grid = loaded->grid();
  EXPECT_EQ(grid.cells_x(), b->grid->cells_x());
  EXPECT_EQ(grid.cells_y(), b->grid->cells_y());
  const roadnet::GridIndex::BuildStats& stats = grid.build_stats();
  const roadnet::GridIndex::BuildStats& want_stats = b->grid->build_stats();
  EXPECT_EQ(stats.border_vertex_count, want_stats.border_vertex_count);
  EXPECT_EQ(stats.non_empty_cells, want_stats.non_empty_cells);
  EXPECT_EQ(stats.approx_memory_bytes, want_stats.approx_memory_bytes);
  EXPECT_EQ(stats.build_seconds, 0.0);
  EXPECT_TRUE(stats.loaded);
  EXPECT_FALSE(want_stats.loaded);
  EXPECT_NE(grid.DebugString().find("loaded from snapshot"),
            std::string::npos);
  EXPECT_EQ(grid.DebugString().find("build="), std::string::npos);
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(g.NumVertices()); ++v) {
    EXPECT_EQ(grid.CellOfVertex(v), b->grid->CellOfVertex(v));
    EXPECT_EQ(grid.VertexMinToBorder(v), b->grid->VertexMinToBorder(v));
  }
  for (roadnet::CellId a = 0; a < grid.NumCells(); ++a) {
    const auto vertices = grid.Vertices(a);
    const auto want_vertices = b->grid->Vertices(a);
    EXPECT_TRUE(std::equal(vertices.begin(), vertices.end(),
                           want_vertices.begin(), want_vertices.end()))
        << "cell " << a;
    const auto borders = grid.BorderVertices(a);
    const auto want_borders = b->grid->BorderVertices(a);
    EXPECT_TRUE(std::equal(borders.begin(), borders.end(),
                           want_borders.begin(), want_borders.end()))
        << "cell " << a;
    const auto sorted = grid.SortedCellList(a);
    const auto want_sorted = b->grid->SortedCellList(a);
    ASSERT_EQ(sorted.size(), want_sorted.size()) << "cell " << a;
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i], want_sorted[i]);
      EXPECT_EQ(grid.CellPairLowerBound(a, sorted[i]),
                b->grid->CellPairLowerBound(a, want_sorted[i]));
    }
    for (roadnet::CellId c = 0; c < grid.NumCells(); ++c) {
      EXPECT_EQ(grid.CellPairLowerBound(a, c),
                b->grid->CellPairLowerBound(a, c));
    }
  }

  // CH: contraction order and both search graphs.
  const std::shared_ptr<const roadnet::CHIndex> ch = loaded->ch();
  ASSERT_EQ(ch->NumVertices(), b->ch->NumVertices());
  EXPECT_EQ(ch->num_shortcuts(), b->ch->num_shortcuts());
  EXPECT_EQ(ch->num_edges(), b->ch->num_edges());
  // The file holds no wall-clock build times.
  EXPECT_EQ(ch->build_seconds(), 0.0);
  for (roadnet::VertexId v = 0;
       v < static_cast<roadnet::VertexId>(g.NumVertices()); ++v) {
    EXPECT_EQ(ch->Rank(v), b->ch->Rank(v));
    const auto got_up = ch->UpEdges(v);
    const auto want_up = b->ch->UpEdges(v);
    ASSERT_EQ(got_up.size(), want_up.size());
    for (size_t i = 0; i < got_up.size(); ++i) {
      EXPECT_EQ(got_up[i].other, want_up[i].other);
      EXPECT_EQ(got_up[i].weight, want_up[i].weight);
    }
    const auto got_down = ch->DownEdges(v);
    const auto want_down = b->ch->DownEdges(v);
    ASSERT_EQ(got_down.size(), want_down.size());
    for (size_t i = 0; i < got_down.size(); ++i) {
      EXPECT_EQ(got_down[i].other, want_down[i].other);
      EXPECT_EQ(got_down[i].weight, want_down[i].weight);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundtripTest, LoadedChQueriesMatchDijkstraExactly) {
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 4;
  gridopts.cells_y = 4;
  const auto b = BuildCity(/*seed=*/910, gridopts);
  const std::string path = WriteTempSnapshot(*b, "ch_identity.snap");
  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  roadnet::CHQuery query(*loaded->ch());
  roadnet::DijkstraEngine dijkstra(loaded->graph());
  util::Rng rng(5);
  const auto n =
      static_cast<roadnet::VertexId>(loaded->graph().NumVertices());
  for (int i = 0; i < 200; ++i) {
    const roadnet::VertexId u = rng.UniformInt(0, n - 1);
    const roadnet::VertexId v = rng.UniformInt(0, n - 1);
    EXPECT_EQ(query.Distance(u, v), dijkstra.Distance(u, v))
        << u << " -> " << v;
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundtripTest, SimulationReportIdenticalFreshVsLoaded) {
  // The acceptance bar: a simulation served from the mmap'd snapshot is
  // bit-identical to one served from freshly built structures — same
  // counts, same double-precision sums — across workload seeds.
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 6;
  gridopts.cells_y = 6;
  const auto b = BuildCity(/*seed=*/77, gridopts);
  const std::string path = WriteTempSnapshot(*b, "sim_identity.snap");
  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const uint64_t workload_seed : {31ull, 1234ull}) {
    sim::HotspotWorkloadOptions wopts;
    wopts.num_trips = 80;
    wopts.duration_s = 1200.0;
    wopts.seed = workload_seed;
    auto trips = sim::GenerateHotspotTrips(*b->graph, wopts);
    ASSERT_TRUE(trips.ok());

    core::Config cfg;
    cfg.sp_algorithm = roadnet::SpAlgorithm::kContractionHierarchy;
    cfg.default_service_sigma = 0.4;

    const auto run = [&](std::unique_ptr<core::PTRider> sys) {
      EXPECT_TRUE(sys->InitFleetUniform(30, /*seed=*/4).ok());
      sim::SimulatorOptions sopts;
      sopts.seed = 12;
      sopts.choice.model = sim::RiderChoiceModel::kCheapest;
      sim::Simulator simulator(*sys, sopts);
      auto report = simulator.Run(*trips);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return std::move(report).value();
    };

    auto fresh_sys = core::PTRider::Create(*b->graph, cfg, gridopts);
    ASSERT_TRUE(fresh_sys.ok());
    const sim::SimulationReport fresh = run(std::move(*fresh_sys));

    auto loaded_sys = CreateSystem(*loaded, cfg);
    ASSERT_TRUE(loaded_sys.ok()) << loaded_sys.status().ToString();
    const sim::SimulationReport snap = run(std::move(*loaded_sys));

    ASSERT_GT(fresh.requests_assigned, 30);
    EXPECT_EQ(snap.requests_submitted, fresh.requests_submitted);
    EXPECT_EQ(snap.requests_assigned, fresh.requests_assigned);
    EXPECT_EQ(snap.requests_unserved, fresh.requests_unserved);
    EXPECT_EQ(snap.requests_completed, fresh.requests_completed);
    EXPECT_EQ(snap.requests_shared, fresh.requests_shared);
    EXPECT_EQ(snap.fleet_total_distance_m, fresh.fleet_total_distance_m);
    EXPECT_EQ(snap.fleet_occupied_distance_m,
              fresh.fleet_occupied_distance_m);
    EXPECT_EQ(snap.fleet_shared_distance_m,
              fresh.fleet_shared_distance_m);
    EXPECT_EQ(snap.quoted_price.sum(), fresh.quoted_price.sum());
    EXPECT_EQ(snap.pickup_wait_s.sum(), fresh.pickup_wait_s.sum());
    EXPECT_EQ(snap.options_per_request.sum(),
              fresh.options_per_request.sum());
  }
  std::remove(path.c_str());
}

// DESIGN.md section 12.2: identical inputs produce byte-identical files.
// Two independent builds of one city take different wall-clock times,
// which the file must not record.
TEST(SnapshotRoundtripTest, IdenticalInputsWriteIdenticalBytes) {
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 4;
  gridopts.cells_y = 3;
  const auto first = BuildCity(/*seed=*/17, gridopts);
  const auto second = BuildCity(/*seed=*/17, gridopts);
  const std::string a = WriteTempSnapshot(*first, "identical_a.snap");
  const std::string b = WriteTempSnapshot(*second, "identical_b.snap");
  const std::vector<char> a_bytes = ReadBytes(a);
  EXPECT_GT(a_bytes.size(), sizeof(FileHeader));
  EXPECT_TRUE(a_bytes == ReadBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- Rejection: the loader must fail cleanly, never crash ------------------

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    roadnet::GridIndexOptions gridopts;
    gridopts.cells_x = 3;
    gridopts.cells_y = 3;
    const auto b = BuildCity(/*seed=*/911, gridopts);
    path_ = WriteTempSnapshot(*b, "reject.snap");
    bytes_ = ReadBytes(path_);
    ASSERT_GT(bytes_.size(), sizeof(FileHeader));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void Rewrite(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Rewrites the file with `id` at byte `at` of section `section` and
  // the checksum recomputed, so only the loader's own checks stand
  // between the planted id and the structures that index with it.
  void PlantId(uint32_t section, size_t at, int32_t id) {
    std::vector<char> bad = bytes_;
    FileHeader header;
    std::memcpy(&header, bad.data(), sizeof(header));
    SectionEntry found{};
    for (uint32_t i = 0; i < header.section_count; ++i) {
      SectionEntry entry;
      std::memcpy(&entry,
                  bad.data() + sizeof(FileHeader) + i * sizeof(SectionEntry),
                  sizeof(entry));
      if (entry.id == section) found = entry;
    }
    ASSERT_GE(found.size, at + sizeof(id)) << "section " << section;
    std::memcpy(bad.data() + found.offset + at, &id, sizeof(id));
    header.checksum = HashBytes(bad.data() + header.header_size,
                                header.file_size - header.header_size);
    std::memcpy(bad.data() + offsetof(FileHeader, checksum),
                &header.checksum, sizeof(header.checksum));
    Rewrite(bad);
  }

  // Expects Load to fail with `needle` somewhere in the message.
  void ExpectRejected(const char* needle) {
    auto loaded = Snapshot::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "corrupt file loaded successfully";
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << loaded.status().ToString();
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SnapshotRejectionTest, PristineFileLoads) {
  EXPECT_TRUE(Snapshot::Load(path_).ok());
}

TEST_F(SnapshotRejectionTest, WrongMagic) {
  std::vector<char> bad = bytes_;
  bad[0] = 'X';
  Rewrite(bad);
  ExpectRejected("not a PTRider snapshot");
}

TEST_F(SnapshotRejectionTest, ForeignVersion) {
  std::vector<char> bad = bytes_;
  // The version field sits after magic[8] + endian (uint32). The header
  // is deliberately outside the checksummed range, so a version bump is
  // reported as a version problem, not as corruption.
  uint32_t version = 0;
  std::memcpy(&version, bad.data() + 12, sizeof(version));
  ASSERT_EQ(version, kFormatVersion);
  version = kFormatVersion + 7;
  std::memcpy(bad.data() + 12, &version, sizeof(version));
  Rewrite(bad);
  ExpectRejected("version");
}

TEST_F(SnapshotRejectionTest, TruncatedFile) {
  std::vector<char> bad = bytes_;
  bad.resize(bad.size() - 129);
  Rewrite(bad);
  ExpectRejected("truncated");
}

TEST_F(SnapshotRejectionTest, TruncatedBelowHeader) {
  std::vector<char> bad = bytes_;
  bad.resize(17);
  Rewrite(bad);
  ExpectRejected("smaller than a snapshot header");
}

TEST_F(SnapshotRejectionTest, FlippedPayloadByte) {
  std::vector<char> bad = bytes_;
  bad[bad.size() - 5] ^= 0x40;  // deep inside the last payload
  Rewrite(bad);
  ExpectRejected("checksum mismatch");
}

// A file whose checksum is valid but whose grid dimensions do not match
// its grid arrays: the loader's consistency check, not the checksum,
// must refuse it.
TEST_F(SnapshotRejectionTest, GridDimensionsDisagreeWithArrays) {
  std::vector<char> bad = bytes_;
  FileHeader header;
  std::memcpy(&header, bad.data(), sizeof(header));
  size_t meta_offset = 0;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                bad.data() + sizeof(FileHeader) + i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id == kSectionMeta) meta_offset = entry.offset;
  }
  ASSERT_NE(meta_offset, 0u);
  const size_t cells_x_at = meta_offset + offsetof(MetaSection, grid_cells_x);
  int32_t cells_x = 0;
  std::memcpy(&cells_x, bad.data() + cells_x_at, sizeof(cells_x));
  ASSERT_EQ(cells_x, 3);
  cells_x = 4;
  std::memcpy(bad.data() + cells_x_at, &cells_x, sizeof(cells_x));
  header.checksum = HashBytes(bad.data() + header.header_size,
                              header.file_size - header.header_size);
  std::memcpy(bad.data() + offsetof(FileHeader, checksum), &header.checksum,
              sizeof(header.checksum));
  Rewrite(bad);
  ExpectRejected("grid arrays disagree with metadata");
}

// A valid checksum over a sorted cell list naming a cell outside the
// grid: the matcher would index the vehicle index's per-cell table with
// it, so the loader must refuse the file.
TEST_F(SnapshotRejectionTest, SortedCellListNamesCellOutsideGrid) {
  const roadnet::CellId outside = 3 * 3;  // the fixture's grid is 3x3
  PlantId(kSectionGridScData, 0, outside);
  ExpectRejected("outside the 9-cell grid");
}

// Every other id array the loaded structures index with, one case each.
// 99999 names no vertex of the fixture's 14x11 city and no cell of its
// 3x3 grid.
TEST_F(SnapshotRejectionTest, GraphEdgeNamesVertexOutsideGraph) {
  PlantId(kSectionGraphEdges, offsetof(roadnet::Edge, to), 99999);
  ExpectRejected("graph edge list names vertex 99999 outside the");
}

TEST_F(SnapshotRejectionTest, ChEdgeNamesVertexOutsideGraph) {
  PlantId(kSectionChUpEdges, offsetof(roadnet::CHIndex::Edge, other),
          99999);
  ExpectRejected("CH edge list names vertex 99999 outside the");
}

// kInvalidVertex marks an original edge (the pristine file is full of
// them); any other id outside the graph is refused.
TEST_F(SnapshotRejectionTest, ChShortcutMiddleOutsideGraph) {
  PlantId(kSectionChDownEdges, offsetof(roadnet::CHIndex::Edge, middle),
          -2);
  ExpectRejected("CH shortcut names vertex -2 outside the");
}

TEST_F(SnapshotRejectionTest, CellOfVertexNamesCellOutsideGrid) {
  PlantId(kSectionGridCellOfVertex, 0, 99999);
  ExpectRejected("cell_of_vertex names cell 99999 outside the 9-cell grid");
}

TEST_F(SnapshotRejectionTest, CellVertexListNamesVertexOutsideGraph) {
  PlantId(kSectionGridCvData, 0, 99999);
  ExpectRejected("grid vertex list names vertex 99999 outside the");
}

TEST_F(SnapshotRejectionTest, BorderListNamesVertexOutsideGraph) {
  PlantId(kSectionGridBvData, 0, 99999);
  ExpectRejected("grid border list names vertex 99999 outside the");
}

TEST_F(SnapshotRejectionTest, FlippedTableByte) {
  std::vector<char> bad = bytes_;
  bad[sizeof(FileHeader) + 3] ^= 0x01;  // inside the section table
  Rewrite(bad);
  ExpectRejected("checksum mismatch");
}

TEST_F(SnapshotRejectionTest, MissingFile) {
  EXPECT_FALSE(Snapshot::Load("/nonexistent/dir/city.snap").ok());
}

TEST_F(SnapshotRejectionTest, EmptyFile) {
  Rewrite({});
  EXPECT_FALSE(Snapshot::Load(path_).ok());
}

// The fuzz corpus's valid seed must load. fuzz_corpus_replay passes
// whatever the loader answers, so a format change without a regenerated
// seed would silently cut the corpus down to the header checks.
// Regenerate with
//   tools/snapshot_build --out tests/fuzz_corpus/seed_city.snap
//       --city 4 4 --grid 2 2
TEST(SnapshotFuzzSeedTest, CheckedInSeedLoads) {
  auto snap = Snapshot::Load(std::string(PTRIDER_SOURCE_DIR) +
                             "/tests/fuzz_corpus/seed_city.snap");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->graph().NumVertices(), 16u);
  EXPECT_EQ(snap->grid().cells_x(), 2);
  EXPECT_EQ(snap->grid().cells_y(), 2);
}

}  // namespace
}  // namespace ptrider::snapshot
