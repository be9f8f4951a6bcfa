#include "roadnet/distance_oracle.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/string_util.h"

namespace ptrider::roadnet {

DistanceOracle::DistanceOracle(const RoadNetwork& graph,
                               DistanceOracleOptions options)
    : DistanceOracle(graph, options, nullptr) {}

DistanceOracle::DistanceOracle(const RoadNetwork& graph,
                               DistanceOracleOptions options,
                               std::shared_ptr<const CHIndex> shared_ch)
    : graph_(&graph),
      options_(options),
      cache_(options.cache_capacity) {
  switch (options_.algorithm) {
    case SpAlgorithm::kDijkstra:
      dijkstra_ = std::make_unique<DijkstraEngine>(graph);
      break;
    case SpAlgorithm::kAStar:
      astar_ = std::make_unique<AStarEngine>(graph);
      break;
    case SpAlgorithm::kContractionHierarchy:
      // Preprocessing runs once; clones receive the built index.
      ch_index_ = shared_ch != nullptr
                      ? std::move(shared_ch)
                      : std::make_shared<const CHIndex>(
                            CHIndex::Build(graph));
      ch_query_ = std::make_unique<CHQuery>(*ch_index_);
      break;
  }
}

DistanceOracle DistanceOracle::Clone() const {
  // The graph reference and any precomputed table (the CHIndex) are
  // shared — both are immutable; engines rebuild their O(|V|) scratch
  // arrays, and the cache/stats start empty. Cached values are exact,
  // so a cold cache changes effort counters only, never a distance.
  return CloneWith(options_);
}

DistanceOracle DistanceOracle::CloneWith(
    DistanceOracleOptions options) const {
  return DistanceOracle(
      *graph_, options,
      options.algorithm == options_.algorithm ? ch_index_ : nullptr);
}

Weight DistanceOracle::ComputeDistance(VertexId u, VertexId v) {
  ++computed_;
  switch (options_.algorithm) {
    case SpAlgorithm::kDijkstra:
      return dijkstra_->Distance(u, v);
    case SpAlgorithm::kAStar:
      return astar_->Distance(u, v);
    case SpAlgorithm::kContractionHierarchy:
      return ch_query_->Distance(u, v);
  }
  return kInfWeight;
}

DistanceOracle::Anchor::Anchor(const RoadNetwork& graph)
    : search(graph), answer(graph.NumVertices(), kInfWeight) {
  answered.Reset(answer.size());
}

void DistanceOracle::Anchor::Restart(VertexId from) {
  source = from;
  search.StartFrom(from);
  answered.Reset(answer.size());
}

DistanceOracle::AnchorScope::AnchorScope(DistanceOracle& oracle, VertexId s,
                                         VertexId d)
    : oracle_(&oracle) {
  oracle_->SetAnchors(s, d);
}

DistanceOracle::AnchorScope::~AnchorScope() { oracle_->anchored_ = false; }

size_t DistanceOracle::AnchorPair::PairBytes(const RoadNetwork& graph) {
  // Per anchor and vertex: the engine's state plus the answer and its
  // mark.
  return 2 * graph.NumVertices() *
         (DijkstraEngine::kStateBytesPerVertex + sizeof(Weight) +
          sizeof(uint32_t));
}

DistanceOracle::AnchorLoan::AnchorLoan(DistanceOracle& oracle,
                                       AnchorPair* pair)
    : oracle_(&oracle), pair_(pair) {
  if (pair_ == nullptr) return;
  assert(!oracle_->anchored_ && "loans are made between anchor scopes");
  std::swap(oracle_->anchors_.searches_, pair_->searches_);
}

DistanceOracle::AnchorLoan::~AnchorLoan() {
  if (pair_ == nullptr) return;
  assert(!oracle_->anchored_ && "loans end between anchor scopes");
  std::swap(oracle_->anchors_.searches_, pair_->searches_);
}

void DistanceOracle::SetAnchors(VertexId s, VertexId d) {
  // One search answers both dist(x, a) and dist(a, x) only when they are
  // equal. Nesting would silently re-root the outer scope's searches.
  assert(options_.symmetric && "anchoring needs a symmetric oracle");
  assert(!anchored_ && "anchor scopes do not nest");
  const VertexId roots[2] = {s, d};
  for (int k = 0; k < 2; ++k) {
    std::unique_ptr<Anchor>& a = anchors_.searches_[k];
    if (!a) a = std::make_unique<Anchor>(*graph_);
    // Same root: resume, keeping every settled vertex and answer.
    if (a->source != roots[k]) a->Restart(roots[k]);
  }
  anchored_ = true;
}

DistanceOracle::Anchor* DistanceOracle::AnchorAt(VertexId v) {
  for (const std::unique_ptr<Anchor>& a : anchors_.searches_) {
    if (a->source == v) return a.get();
  }
  return nullptr;
}

Weight DistanceOracle::AnchoredDistance(Anchor& anchor, VertexId x) {
  if (!anchor.answered.Mark(static_cast<size_t>(x))) {
    ++cache_hits_;
    return anchor.answer[x];
  }
  ++computed_;
  const uint64_t settled = anchor.search.total_settled();
  const uint64_t pops = anchor.search.total_pops();
  Weight d = anchor.search.SettleUntil(x);
  anchor_settles_ += anchor.search.total_settled() - settled;
  anchor_pops_ += anchor.search.total_pops() - pops;
  if (d != kInfWeight && x < anchor.source) {
    // A point-to-point query computes dist(x, source), summing edge
    // weights left to right from x (DESIGN.md 7.4); the search's label
    // summed them from the source. Re-sum the same path in x's order so
    // the double is the one the engines return.
    d = 0.0;
    for (VertexId cur = x; cur != anchor.source;
         cur = anchor.search.ParentOf(cur)) {
      d += anchor.search.ParentWeightOf(cur);
    }
  }
  anchor.answer[x] = d;
  return d;
}

Weight DistanceOracle::Distance(VertexId u, VertexId v) {
  ++queries_;
  if (!graph_->IsValidVertex(u) || !graph_->IsValidVertex(v)) {
    return kInfWeight;
  }
  if (u == v) return 0.0;
  VertexId a = u;
  VertexId b = v;
  if (options_.symmetric && a > b) std::swap(a, b);
  if (anchored_) {
    // Prefer the anchor at the smaller id: its label is the answer as is.
    if (Anchor* anchor = AnchorAt(a)) return AnchoredDistance(*anchor, b);
    if (Anchor* anchor = AnchorAt(b)) return AnchoredDistance(*anchor, a);
  }
  const uint64_t key = Key(a, b);
  if (const Weight* hit = cache_.Find(key)) {
    ++cache_hits_;
    return *hit;
  }
  const Weight d = ComputeDistance(a, b);
  cache_.Insert(key, d);
  return d;
}

util::Result<std::vector<VertexId>> DistanceOracle::ShortestPath(
    VertexId u, VertexId v) {
  // Path queries share Distance's accounting: every call is a query;
  // non-trivial ones execute (and count) one exact search, whose heap
  // pops the lazily built engine already folds into heap_pops().
  ++queries_;
  if (!graph_->IsValidVertex(u) || !graph_->IsValidVertex(v)) {
    return util::Status::InvalidArgument("invalid path endpoints");
  }
  if (u == v) return std::vector<VertexId>{u};
  ++computed_;
  // kContractionHierarchy unpacks the path from the CH shortcuts (far
  // fewer settles than any unidirectional search on large networks);
  // every other algorithm extracts with A* (exact given geometric lower
  // bounds; plain Dijkstra otherwise).
  if (options_.algorithm == SpAlgorithm::kContractionHierarchy) {
    std::vector<VertexId> path;
    const Weight d = ch_query_->DistanceWithPath(u, v, path);
    if (d == kInfWeight) {
      return util::Status::NotFound(util::StrFormat(
          "no path from vertex %d to vertex %d", u, v));
    }
    return path;
  }
  if (!astar_) astar_ = std::make_unique<AStarEngine>(*graph_);
  const Weight d = astar_->Distance(u, v);
  if (d == kInfWeight) {
    return util::Status::NotFound(util::StrFormat(
        "no path from vertex %d to vertex %d", u, v));
  }
  return astar_->LastPath();
}

Weight DistanceOracle::RouteDistance(std::span<const VertexId> route) const {
  // Distance(a, b) searches from min(a, b) on a symmetric oracle, and a
  // search's label adds each edge to the sum so far, starting from 0.
  if (route.size() < 2) return 0.0;
  const bool from_back = options_.symmetric && route.back() < route.front();
  Weight d = 0.0;
  for (size_t i = 1; i < route.size(); ++i) {
    d += from_back ? graph_->EdgeWeight(route[route.size() - i],
                                        route[route.size() - i - 1])
                   : graph_->EdgeWeight(route[i - 1], route[i]);
  }
  return d;
}

uint64_t DistanceOracle::heap_pops() const {
  uint64_t pops = 0;
  if (dijkstra_) pops += dijkstra_->total_pops();
  if (astar_) pops += astar_->total_pops();
  if (ch_query_) pops += ch_query_->total_pops();
  return pops + anchor_pops_;
}

void DistanceOracle::ResetStats() {
  queries_ = 0;
  cache_hits_ = 0;
  computed_ = 0;
  if (dijkstra_) dijkstra_->ResetStats();
  if (astar_) astar_->ResetStats();
  if (ch_query_) ch_query_->ResetStats();
  anchor_settles_ = 0;
  anchor_pops_ = 0;
}

}  // namespace ptrider::roadnet
