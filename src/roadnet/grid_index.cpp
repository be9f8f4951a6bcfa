#include "roadnet/grid_index.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "roadnet/dijkstra.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ptrider::roadnet {

namespace {

/// Every bound is scaled down by 1 - 2^-29, which makes it admissible in
/// computed doubles, not only in real numbers (DESIGN.md section 3).
/// With unit roundoff u = 2^-53 and n = |V|:
///   * the oracle's distance is a floating sum of at most n - 1 positive
///     edge weights along some path, so it is >= (1 - (n - 1)u') D,
///     where D is the real shortest distance and u' = u / (1 - nu);
///   * a stored v.min or cell-pair value is a Dijkstra label, which by
///     monotone rounding is <= the left-to-right floating sum along the
///     real shortest path it stands for, so <= (1 + (n - 1)u') times it;
///     adding three such terms rounds twice more, and the real sum is
///     <= D, so the unscaled cell bound is <= (1 + (n + 1)u') D;
///   * an edge may be up to 1e-9 shorter than its straight line
///     (RoadNetwork::GeometricLowerBoundValid), so the straight-line bound
///     is <= (1 + 1e-9 + 10u) D.
/// The scaled bound rounds once more. It stays <= the oracle's distance
/// while 2^-29 exceeds both (2n + 2)u' and 1e-9 + (n + 11)u', which holds
/// up to n = 7.7M, so for every graph Build accepts (kMaxVertices).
constexpr Weight kBoundScale = 1.0 - 0x1p-29;
constexpr size_t kMaxVertices = size_t{1} << 22;

}  // namespace

util::Result<GridIndex> GridIndex::Build(const RoadNetwork& graph,
                                         GridIndexOptions options) {
  if (options.cells_x < 1 || options.cells_y < 1) {
    return util::Status::InvalidArgument(util::StrFormat(
        "grid must have positive dimensions, got %dx%d", options.cells_x,
        options.cells_y));
  }
  if (graph.NumVertices() == 0) {
    return util::Status::FailedPrecondition("empty road network");
  }
  if (graph.NumVertices() > kMaxVertices) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "grid bounds are proven admissible up to %zu vertices, got %zu",
        kMaxVertices, graph.NumVertices()));
  }
  if (!IsSymmetric(graph)) {
    return util::Status::FailedPrecondition(
        "grid index requires a symmetric road network "
        "(distance-based costs)");
  }
  GridIndex index;
  index.options_ = options;
  PTRIDER_RETURN_IF_ERROR(index.BuildImpl(graph));
  return index;
}

util::Status GridIndex::BuildImpl(const RoadNetwork& graph) {
  util::WallTimer timer;
  graph_ = &graph;

  const util::BoundingBox& box = graph.bounds();
  cell_width_ =
      std::max(box.width() / options_.cells_x, 1e-9);
  cell_height_ =
      std::max(box.height() / options_.cells_y, 1e-9);

  AssignCells();
  FindBorderVertices();
  ComputeVertexMinToBorder();
  ComputeCellPairLowerBounds();

  build_stats_.build_seconds = timer.ElapsedSeconds();
  size_t non_empty = 0;
  for (CellId c = 0; c < NumCells(); ++c) {
    if (!Vertices(c).empty()) ++non_empty;
  }
  build_stats_.border_vertex_count = bv_data_.size();
  build_stats_.non_empty_cells = non_empty;
  build_stats_.approx_memory_bytes = EstimateMemory();
  return util::Status::Ok();
}

CellId GridIndex::CellOfPoint(const util::Point& p) const {
  const util::BoundingBox& box = graph_->bounds();
  int cx = static_cast<int>((p.x - box.min_x) / cell_width_);
  int cy = static_cast<int>((p.y - box.min_y) / cell_height_);
  cx = std::clamp(cx, 0, options_.cells_x - 1);
  cy = std::clamp(cy, 0, options_.cells_y - 1);
  return static_cast<CellId>(cy) * options_.cells_x + cx;
}

void GridIndex::AssignCells() {
  const size_t n = graph_->NumVertices();
  const size_t m = NumCells();
  std::vector<CellId> cell_of_vertex(n);
  std::vector<size_t> offsets(m + 1, 0);
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    const CellId c = CellOfPoint(graph_->Coord(v));
    cell_of_vertex[v] = c;
    ++offsets[static_cast<size_t>(c) + 1];
  }
  for (size_t i = 1; i <= m; ++i) offsets[i] += offsets[i - 1];
  std::vector<VertexId> data(n);
  {
    std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
    // Vertices visited in id order, so each cell's list stays sorted.
    for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
      data[cursor[static_cast<size_t>(cell_of_vertex[v])]++] = v;
    }
  }
  cell_of_vertex_ = std::move(cell_of_vertex);
  cv_offsets_ = std::move(offsets);
  cv_data_ = std::move(data);
}

void GridIndex::FindBorderVertices() {
  const size_t n = graph_->NumVertices();
  const size_t m = NumCells();
  std::vector<char> is_border(n, 0);
  for (VertexId u = 0; u < static_cast<VertexId>(n); ++u) {
    for (const Edge& e : graph_->OutEdges(u)) {
      if (cell_of_vertex_[u] != cell_of_vertex_[e.to]) {
        is_border[u] = 1;
        is_border[e.to] = 1;
      }
    }
  }
  std::vector<size_t> offsets(m + 1, 0);
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    if (is_border[v]) ++offsets[cell_of_vertex_[v] + 1];
  }
  for (size_t i = 1; i <= m; ++i) offsets[i] += offsets[i - 1];
  std::vector<VertexId> data(offsets[m]);
  {
    std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
    // Vertices visited in id order, so each cell's list stays sorted.
    for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
      if (is_border[v]) data[cursor[cell_of_vertex_[v]]++] = v;
    }
  }
  bv_offsets_ = std::move(offsets);
  bv_data_ = std::move(data);
}

void GridIndex::ComputeVertexMinToBorder() {
  std::vector<Weight> vertex_min(graph_->NumVertices(), kInfWeight);
  DijkstraEngine engine(*graph_);
  for (CellId c = 0; c < NumCells(); ++c) {
    const std::span<const VertexId> bvs = BorderVertices(c);
    if (bvs.empty()) continue;
    // v.min for every vertex of the cell: one multi-source in-cell run.
    // The shortest path from a vertex to its nearest border vertex never
    // leaves the cell (the first cell-crossing edge on any escaping path
    // starts at a border vertex), so the restriction is exact.
    std::vector<std::pair<VertexId, Weight>> sources;
    sources.reserve(bvs.size());
    for (VertexId b : bvs) sources.push_back({b, 0.0});
    DijkstraEngine::RunOptions opts;
    opts.filter = [this, c](VertexId v) { return cell_of_vertex_[v] == c; };
    engine.Run(sources, opts);
    for (VertexId v : Vertices(c)) {
      vertex_min[v] = engine.DistanceTo(v);
    }
  }
  vertex_min_ = std::move(vertex_min);
}

void GridIndex::ComputeCellPairLowerBounds() {
  const CellId m = NumCells();
  std::vector<Weight> lb_matrix(static_cast<size_t>(m) * m, kInfWeight);
  std::vector<char> is_border(graph_->NumVertices(), 0);
  for (const VertexId b : bv_data_) is_border[b] = 1;
  std::vector<size_t> offsets(static_cast<size_t>(m) + 1, 0);
  std::vector<CellId> lists;
  // A row lists at most m - 1 cells. Pages past the lists' final size
  // are never written, so the bound costs address space, not memory.
  lists.reserve(static_cast<size_t>(m) * static_cast<size_t>(m - 1));

  DijkstraEngine engine(*graph_);
  std::vector<std::pair<VertexId, Weight>> sources;
  std::vector<VertexId> settled;
  DijkstraEngine::RunOptions opts;
  opts.settle_order = &settled;
  for (CellId c = 0; c < m; ++c) {
    Weight* row = &lb_matrix[static_cast<size_t>(c) * m];
    row[c] = 0.0;
    const std::span<const VertexId> bvs = BorderVertices(c);
    if (!bvs.empty()) {
      sources.clear();
      for (VertexId b : bvs) sources.push_back({b, 0.0});
      settled.clear();
      engine.Run(sources, opts);  // full-graph multi-source
      // Vertices settle in ascending distance, so the first border vertex
      // of another cell to settle gives that cell's bound (the minimum
      // over its border vertices), and cells are met in ascending bound
      // order; unreached cells stay infinite and unlisted. Equal bounds
      // are listed by id.
      const auto row_begin = static_cast<ptrdiff_t>(lists.size());
      for (const VertexId y : settled) {
        const CellId c2 = cell_of_vertex_[y];
        if (is_border[y] == 0 || row[c2] != kInfWeight) continue;
        row[c2] = engine.DistanceTo(y);
        auto at = lists.end();
        while (at - lists.begin() > row_begin && row[at[-1]] == row[c2] &&
               at[-1] > c2) {
          --at;
        }
        lists.insert(at, c2);
      }
    }
    offsets[static_cast<size_t>(c) + 1] = lists.size();
  }
  lb_matrix_ = std::move(lb_matrix);
  sc_offsets_ = std::move(offsets);
  sc_data_ = std::move(lists);
}

Weight GridIndex::CellPairLowerBound(CellId a, CellId b) const {
  return lb_matrix_[static_cast<size_t>(a) * NumCells() + b];
}

Weight GridIndex::LowerBound(VertexId u, VertexId v) const {
  if (u == v) return 0.0;
  Weight lb = graph_->GeoLowerBound(u, v);
  const CellId cu = cell_of_vertex_[u];
  const CellId cv = cell_of_vertex_[v];
  // An infinite term (no border, or no path between the cells) proves
  // v unreachable, and stays infinite through the sum and the scale.
  if (cu != cv) {
    lb = std::max(lb, vertex_min_[u] + CellPairLowerBound(cu, cv) +
                          vertex_min_[v]);
  }
  return lb * kBoundScale;
}

Weight GridIndex::CellLowerBound(CellId c, VertexId v) const {
  return (CellPairLowerBound(cell_of_vertex_[v], c) + vertex_min_[v]) *
         kBoundScale;
}

Weight GridIndex::UpperBound(VertexId u, VertexId v) const {
  (void)u;
  (void)v;
  return kInfWeight;
}

size_t GridIndex::EstimateMemory() const {
  size_t bytes = 0;
  bytes += cell_of_vertex_.size() * sizeof(CellId);
  bytes += (cv_data_.size() + bv_data_.size()) * sizeof(VertexId);
  bytes += (cv_offsets_.size() + bv_offsets_.size() + sc_offsets_.size()) *
           sizeof(size_t);
  bytes += vertex_min_.size() * sizeof(Weight);
  bytes += lb_matrix_.size() * sizeof(Weight);
  bytes += sc_data_.size() * sizeof(CellId);
  return bytes;
}

std::string GridIndex::DebugString() const {
  std::ostringstream os;
  os << "GridIndex{" << options_.cells_x << "x" << options_.cells_y
     << ", non_empty=" << build_stats_.non_empty_cells
     << ", borders=" << build_stats_.border_vertex_count
     << ", mem=" << build_stats_.approx_memory_bytes / 1024 << " KiB, "
     << (build_stats_.loaded
             ? std::string("loaded from snapshot")
             : "build=" + util::FormatDuration(build_stats_.build_seconds))
     << "}";
  return os.str();
}

}  // namespace ptrider::roadnet
