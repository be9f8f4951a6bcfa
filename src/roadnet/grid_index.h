#ifndef PTRIDER_ROADNET_GRID_INDEX_H_
#define PTRIDER_ROADNET_GRID_INDEX_H_

#include <span>
#include <string>
#include <vector>

#include "roadnet/graph.h"
#include "roadnet/types.h"
#include "util/array_ref.h"
#include "util/geo.h"
#include "util/status.h"

namespace ptrider::roadnet {

struct GridIndexOptions {
  /// Grid resolution (cells_x * cells_y cells over the network bbox).
  int cells_x = 32;
  int cells_y = 32;
};

/// The paper's grid index over the road network (Section 3.2.1, Fig. 1).
///
/// Partitions the bounding box into a uniform grid. Per cell it maintains
/// (i) the border-vertex list, (ii) the vertex list with each vertex's
/// `v.min`, and (iii) the list of other cells sorted ascending by the
/// cell-pair lower-bound distance. The paper's list (ii) also holds each
/// vertex's distances to every border vertex of its cell; those serve
/// only an upper bound, which nothing on the matching path reads, so the
/// index keeps `v.min` alone (DESIGN.md section 3). Lists (iv) and (v) —
/// the empty / non-empty vehicle lists — live in `vehicle::VehicleIndex`,
/// which is keyed by this index's cell ids.
///
/// Requires a symmetric network (dist(u,v) == dist(v,u)), which holds for
/// the distance-based costs the paper uses and for all bundled generators.
class GridIndex {
 public:
  /// Builds the index. Cost is dominated by one multi-source Dijkstra per
  /// non-empty cell for the lower-bound matrix.
  static util::Result<GridIndex> Build(const RoadNetwork& graph,
                                       GridIndexOptions options = {});

  // --- Geometry -----------------------------------------------------------
  int cells_x() const { return options_.cells_x; }
  int cells_y() const { return options_.cells_y; }
  CellId NumCells() const {
    return static_cast<CellId>(options_.cells_x) * options_.cells_y;
  }
  CellId CellOfVertex(VertexId v) const { return cell_of_vertex_[v]; }
  /// Cell containing `p`, clamped into the grid.
  CellId CellOfPoint(const util::Point& p) const;
  /// Center point of a cell (for visualization / generators).
  util::Point CellCenter(CellId c) const;

  // --- Per-cell lists (Fig. 1(b)) ----------------------------------------
  // CSR-stored (offsets + one flat array per list kind) so a snapshot
  // can map them zero-copy; spans are as cheap as the references the
  // nested-vector representation used to return.
  std::span<const VertexId> Vertices(CellId c) const {
    return {cv_data_.data() + cv_offsets_[c],
            cv_data_.data() + cv_offsets_[static_cast<size_t>(c) + 1]};
  }
  std::span<const VertexId> BorderVertices(CellId c) const {
    return {bv_data_.data() + bv_offsets_[c],
            bv_data_.data() + bv_offsets_[static_cast<size_t>(c) + 1]};
  }
  /// Other non-empty reachable cells, ascending by
  /// CellPairLowerBound(c, cell) (ties by id). Ids only: each entry's
  /// bound is read from the matrix row it was sorted by.
  std::span<const CellId> SortedCellList(CellId c) const {
    return {sc_data_.data() + sc_offsets_[c],
            sc_data_.data() + sc_offsets_[static_cast<size_t>(c) + 1]};
  }

  /// v.min: exact distance from `v` to the nearest border vertex of its
  /// cell (kInfWeight when the cell has no border vertices).
  Weight VertexMinToBorder(VertexId v) const { return vertex_min_[v]; }

  // --- Distance bounds -----------------------------------------------------
  /// Exact min border-to-border distance between two cells; 0 on the
  /// diagonal, kInfWeight when disconnected.
  Weight CellPairLowerBound(CellId a, CellId b) const;

  /// Admissible lower bound on dist(u, v):
  /// max(geo_lb, u.min + LB(cell(u), cell(v)) + v.min) across cells,
  /// geo_lb within a cell, scaled down by a proven margin so that it
  /// never exceeds the double the distance oracle returns (DESIGN.md
  /// section 3).
  Weight LowerBound(VertexId u, VertexId v) const;

  /// Admissible lower bound on dist(x, v) for every vertex x of cell
  /// `c` other than v's own: LB(cell(v), c) + v.min, scaled like
  /// LowerBound. The time lemma's bound for a whole cell.
  Weight CellLowerBound(CellId c, VertexId v) const;

  /// Returns kInfWeight ("no upper bound known") for every pair. Kept
  /// because bench/ptrider_bench still calls it from its distance
  /// provider.
  Weight UpperBound(VertexId u, VertexId v) const;

  /// Distinct cells touched by a path's vertex sequence, in first-touch
  /// order (used to register non-empty vehicles along their schedules).
  std::vector<CellId> CellsOfPath(std::span<const VertexId> path) const;

  // --- Introspection --------------------------------------------------------
  struct BuildStats {
    /// Wall time of Build; 0 for an index mapped from a snapshot.
    double build_seconds = 0.0;
    /// True when the index was mapped from a snapshot, not built here.
    bool loaded = false;
    size_t border_vertex_count = 0;
    size_t non_empty_cells = 0;
    size_t approx_memory_bytes = 0;
  };
  const BuildStats& build_stats() const { return build_stats_; }
  const RoadNetwork& graph() const { return *graph_; }
  std::string DebugString() const;

 private:
  friend class ::ptrider::snapshot::SnapshotAccess;

  GridIndex() = default;

  util::Status BuildImpl(const RoadNetwork& graph);
  void AssignCells();
  void FindBorderVertices();
  void ComputeVertexMinToBorder();
  /// The cell-pair matrix and the sorted cell lists, both from one
  /// multi-source search per cell.
  void ComputeCellPairLowerBounds();
  size_t EstimateMemory() const;

  const RoadNetwork* graph_ = nullptr;
  GridIndexOptions options_;
  double cell_width_ = 1.0;
  double cell_height_ = 1.0;

  // Every array is owned after Build and a zero-copy view into the
  // mapping after a snapshot load (util::ArrayRef); the three per-cell
  // lists are CSR pairs for exactly that reason.
  util::ArrayRef<CellId> cell_of_vertex_;
  util::ArrayRef<size_t> cv_offsets_;  // size NumCells()+1
  util::ArrayRef<VertexId> cv_data_;
  util::ArrayRef<size_t> bv_offsets_;  // size NumCells()+1
  util::ArrayRef<VertexId> bv_data_;

  util::ArrayRef<Weight> vertex_min_;
  util::ArrayRef<Weight> lb_matrix_;   // NumCells()^2, row-major
  util::ArrayRef<size_t> sc_offsets_;  // size NumCells()+1
  util::ArrayRef<CellId> sc_data_;

  BuildStats build_stats_;
};

}  // namespace ptrider::roadnet

#endif  // PTRIDER_ROADNET_GRID_INDEX_H_
