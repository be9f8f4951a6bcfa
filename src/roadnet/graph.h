#ifndef PTRIDER_ROADNET_GRAPH_H_
#define PTRIDER_ROADNET_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "roadnet/types.h"
#include "util/array_ref.h"
#include "util/geo.h"
#include "util/status.h"

namespace ptrider::snapshot {
class SnapshotAccess;
}  // namespace ptrider::snapshot

namespace ptrider::roadnet {

/// Immutable road network G = (V, E, W): CSR adjacency plus planar vertex
/// coordinates. Edge weights are travel distances in meters; the paper's
/// constant-speed assumption converts them to times. Build instances with
/// `GraphBuilder`.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  size_t NumVertices() const { return coords_.size(); }
  /// Number of directed edges (an undirected road contributes two).
  size_t NumEdges() const { return edges_.size(); }

  bool IsValidVertex(VertexId v) const {
    return v >= 0 && static_cast<size_t>(v) < coords_.size();
  }

  std::span<const Edge> OutEdges(VertexId u) const {
    return {edges_.data() + offsets_[u],
            edges_.data() + offsets_[u + 1]};
  }

  size_t OutDegree(VertexId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  const util::Point& Coord(VertexId v) const { return coords_[v]; }
  const util::BoundingBox& bounds() const { return bounds_; }

  /// True when every edge weight is >= the Euclidean length of the edge, in
  /// which case straight-line distance is an admissible lower bound for the
  /// shortest-path distance (used by A* and the pruning lemmas).
  bool GeometricLowerBoundValid() const { return geo_lb_valid_; }

  /// Euclidean lower bound on dist(u, v); 0 when the geometric lower bound
  /// is not valid for this network.
  Weight GeoLowerBound(VertexId u, VertexId v) const {
    if (!geo_lb_valid_) return 0.0;
    return util::EuclideanDistance(coords_[u], coords_[v]);
  }

  /// Direct edge weight from u to v, or kInfWeight when no such edge.
  Weight EdgeWeight(VertexId u, VertexId v) const;

  std::string DebugString() const;

 private:
  friend class GraphBuilder;
  /// Snapshot persistence (src/snapshot/): serializes these arrays and
  /// reconstitutes them as zero-copy views over a memory-mapped file.
  friend class ::ptrider::snapshot::SnapshotAccess;

  // Owned when built in memory; views into the mapping when loaded from
  // a snapshot (util::ArrayRef documents the lifetime contract).
  util::ArrayRef<size_t> offsets_;  // size NumVertices()+1
  util::ArrayRef<Edge> edges_;
  util::ArrayRef<util::Point> coords_;
  util::BoundingBox bounds_;
  bool geo_lb_valid_ = false;
};

/// True when every directed edge u -> v has a reverse edge, and the
/// lightest edge each way weighs the same (distance-based travel costs;
/// parallel edges count by their lightest, the one every search takes),
/// so dist(u, v) == dist(v, u). Required by the grid index; the distance
/// oracle reads it to search each pair from its smaller id.
bool IsSymmetric(const RoadNetwork& graph);

/// Incremental builder for `RoadNetwork`. Vertices get dense ids in insert
/// order. `Build()` validates and produces the CSR form.
class GraphBuilder {
 public:
  /// Adds a vertex at `p`, returning its id.
  VertexId AddVertex(util::Point p);

  /// Adds a directed edge. Fails on unknown endpoints, self loops, or
  /// non-positive weight.
  util::Status AddEdge(VertexId from, VertexId to, Weight weight);

  /// Adds both directions with the same weight.
  util::Status AddUndirectedEdge(VertexId a, VertexId b, Weight weight);

  size_t NumVertices() const { return coords_.size(); }
  size_t NumEdges() const { return raw_edges_.size(); }

  /// Finalizes the network. The builder is left empty afterwards.
  util::Result<RoadNetwork> Build();

 private:
  struct RawEdge {
    VertexId from;
    VertexId to;
    Weight weight;
  };

  std::vector<util::Point> coords_;
  std::vector<RawEdge> raw_edges_;
};

}  // namespace ptrider::roadnet

#endif  // PTRIDER_ROADNET_GRAPH_H_
