#ifndef PTRIDER_SNAPSHOT_SNAPSHOT_ACCESS_H_
#define PTRIDER_SNAPSHOT_SNAPSHOT_ACCESS_H_

#include <tuple>

#include "roadnet/ch.h"
#include "roadnet/graph.h"
#include "roadnet/grid_index.h"

namespace ptrider::snapshot {

/// The single friend the roadnet structures grant to the snapshot
/// subsystem. Serialization needs the private arrays of RoadNetwork,
/// GridIndex and CHIndex, but befriending the writer and the reader
/// separately would scatter the access surface; everything funnels
/// through this one class, and roadnet/ stays free of any snapshot
/// dependency (it forward-declares this class only).
///
/// The field tuples are ordered — writer and reader bind them with
/// structured bindings, so both sides read the same declaration.
class SnapshotAccess {
 public:
  /// GridIndex / CHIndex constructors are private (only Build and the
  /// snapshot loader may produce instances); these mint empty shells
  /// for the loader to fill.
  static roadnet::GridIndex NewGrid() { return roadnet::GridIndex(); }
  static roadnet::CHIndex NewCH() { return roadnet::CHIndex(); }

  /// offsets, edges, coords, bounds, geo_lb_valid.
  template <typename RoadNetworkT>
  static auto GraphFields(RoadNetworkT& g) {
    return std::tie(g.offsets_, g.edges_, g.coords_, g.bounds_,
                    g.geo_lb_valid_);
  }

  /// cell_of_vertex, cv_offsets, cv_data, bv_offsets, bv_data,
  /// vertex_min, lb_matrix, sc_offsets, sc_data.
  template <typename GridIndexT>
  static auto GridArrays(GridIndexT& g) {
    return std::tie(g.cell_of_vertex_, g.cv_offsets_, g.cv_data_,
                    g.bv_offsets_, g.bv_data_, g.vertex_min_, g.lb_matrix_,
                    g.sc_offsets_, g.sc_data_);
  }

  /// graph pointer, options, cell_width, cell_height, build_stats.
  template <typename GridIndexT>
  static auto GridScalars(GridIndexT& g) {
    return std::tie(g.graph_, g.options_, g.cell_width_, g.cell_height_,
                    g.build_stats_);
  }

  /// rank, up_offsets, down_offsets, up_edges, down_edges,
  /// num_shortcuts.
  template <typename CHIndexT>
  static auto CHFields(CHIndexT& c) {
    return std::tie(c.rank_, c.up_offsets_, c.down_offsets_, c.up_edges_,
                    c.down_edges_, c.num_shortcuts_);
  }
};

}  // namespace ptrider::snapshot

#endif  // PTRIDER_SNAPSHOT_SNAPSHOT_ACCESS_H_
