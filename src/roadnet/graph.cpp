#include "roadnet/graph.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace ptrider::roadnet {

Weight RoadNetwork::EdgeWeight(VertexId u, VertexId v) const {
  if (!IsValidVertex(u) || !IsValidVertex(v)) return kInfWeight;
  Weight best = kInfWeight;
  for (const Edge& e : OutEdges(u)) {
    if (e.to == v) best = std::min(best, e.weight);
  }
  return best;
}

bool IsSymmetric(const RoadNetwork& graph) {
  for (VertexId u = 0; u < static_cast<VertexId>(graph.NumVertices());
       ++u) {
    for (const Edge& e : graph.OutEdges(u)) {
      if (graph.EdgeWeight(e.to, u) != graph.EdgeWeight(u, e.to)) {
        return false;
      }
    }
  }
  return true;
}

std::string RoadNetwork::DebugString() const {
  std::ostringstream os;
  os << "RoadNetwork{V=" << NumVertices() << ", E=" << NumEdges()
     << ", bbox=[" << bounds_.min_x << "," << bounds_.min_y << " .. "
     << bounds_.max_x << "," << bounds_.max_y << "]"
     << ", geo_lb=" << (geo_lb_valid_ ? "valid" : "invalid") << "}";
  return os.str();
}

VertexId GraphBuilder::AddVertex(util::Point p) {
  coords_.push_back(p);
  return static_cast<VertexId>(coords_.size() - 1);
}

util::Status GraphBuilder::AddEdge(VertexId from, VertexId to,
                                   Weight weight) {
  const auto n = static_cast<VertexId>(coords_.size());
  if (from < 0 || from >= n || to < 0 || to >= n) {
    return util::Status::InvalidArgument(util::StrFormat(
        "edge endpoints out of range: %d -> %d (|V|=%d)", from, to, n));
  }
  if (from == to) {
    return util::Status::InvalidArgument(
        util::StrFormat("self loop at vertex %d", from));
  }
  if (!(weight > 0.0) || weight == kInfWeight) {
    return util::Status::InvalidArgument(util::StrFormat(
        "edge %d -> %d must have positive finite weight, got %f", from, to,
        weight));
  }
  raw_edges_.push_back({from, to, weight});
  return util::Status::Ok();
}

util::Status GraphBuilder::AddUndirectedEdge(VertexId a, VertexId b,
                                             Weight weight) {
  PTRIDER_RETURN_IF_ERROR(AddEdge(a, b, weight));
  return AddEdge(b, a, weight);
}

util::Result<RoadNetwork> GraphBuilder::Build() {
  if (coords_.empty()) {
    return util::Status::FailedPrecondition("graph has no vertices");
  }
  RoadNetwork g;
  std::vector<util::Point> coords = std::move(coords_);
  coords_.clear();

  std::sort(raw_edges_.begin(), raw_edges_.end(),
            [](const RawEdge& a, const RawEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });

  const size_t n = coords.size();
  std::vector<size_t> offsets(n + 1, 0);
  for (const RawEdge& e : raw_edges_) {
    ++offsets[static_cast<size_t>(e.from) + 1];
  }
  for (size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<Edge> edges(raw_edges_.size());
  {
    std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const RawEdge& e : raw_edges_) {
      edges[cursor[static_cast<size_t>(e.from)]++] = {e.to, e.weight};
    }
  }

  for (const util::Point& p : coords) g.bounds_.Extend(p);

  // An edge shorter than its straight-line length invalidates geometric
  // lower bounds for the whole network (tolerate tiny FP slack).
  g.geo_lb_valid_ = true;
  for (const RawEdge& e : raw_edges_) {
    const double straight =
        util::EuclideanDistance(coords[static_cast<size_t>(e.from)],
                                coords[static_cast<size_t>(e.to)]);
    if (e.weight < straight * (1.0 - 1e-9)) {
      g.geo_lb_valid_ = false;
      break;
    }
  }
  raw_edges_.clear();
  g.coords_ = std::move(coords);
  g.offsets_ = std::move(offsets);
  g.edges_ = std::move(edges);
  return g;
}

}  // namespace ptrider::roadnet
