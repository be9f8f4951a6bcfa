#include "roadnet/dijkstra.h"

#include <algorithm>
#include <functional>
#include <queue>

namespace ptrider::roadnet {

DijkstraEngine::DijkstraEngine(const RoadNetwork& graph) : graph_(&graph) {
  const size_t n = graph.NumVertices();
  dist_.assign(n, kInfWeight);
  parent_.assign(n, kInvalidVertex);
  parent_weight_.assign(n, 0.0);
  source_.assign(n, kInvalidVertex);
  version_.assign(n, 0);
  settled_.assign(n, 0);
}

void DijkstraEngine::BumpGeneration() {
  ++generation_;
  if (generation_ == 0) {  // wrapped: hard reset stamps
    std::fill(version_.begin(), version_.end(), 0);
    generation_ = 1;
  }
}

void DijkstraEngine::Touch(VertexId v) {
  if (version_[v] != generation_) {
    version_[v] = generation_;
    dist_[v] = kInfWeight;
    parent_[v] = kInvalidVertex;
    source_[v] = kInvalidVertex;
    settled_[v] = 0;
  }
}

void DijkstraEngine::Run(
    std::span<const std::pair<VertexId, Weight>> sources,
    const RunOptions& opts) {
  BumpGeneration();
  last_settled_ = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;

  for (const auto& [v, d] : sources) {
    if (!graph_->IsValidVertex(v)) continue;
    Touch(v);
    if (d < dist_[v]) {
      dist_[v] = d;
      source_[v] = v;
      heap.push({d, v});
    }
  }

  size_t targets_remaining = opts.targets.size();
  // Track which targets are pending; duplicates in `targets` are counted
  // once via the settled flag check below.
  auto is_target = [&](VertexId v) {
    return std::find(opts.targets.begin(), opts.targets.end(), v) !=
           opts.targets.end();
  };

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    ++total_pops_;
    const VertexId u = top.vertex;
    if (version_[u] != generation_ || settled_[u] ||
        top.dist > dist_[u]) {
      continue;  // stale entry
    }
    if (top.dist > opts.radius) break;
    settled_[u] = 1;
    ++last_settled_;
    ++total_settled_;
    if (opts.settle_order != nullptr) opts.settle_order->push_back(u);
    if (targets_remaining > 0 && is_target(u)) {
      // Count distinct settled targets.
      size_t still_pending = 0;
      for (VertexId t : opts.targets) {
        if (!(version_[t] == generation_ && settled_[t])) ++still_pending;
      }
      targets_remaining = still_pending;
      if (targets_remaining == 0) break;
    }
    for (const Edge& e : graph_->OutEdges(u)) {
      const VertexId v = e.to;
      if (opts.filter && !opts.filter(v)) continue;
      Touch(v);
      if (settled_[v]) continue;
      const Weight nd = top.dist + e.weight;
      if (nd < dist_[v]) {
        dist_[v] = nd;
        parent_[v] = u;
        source_[v] = source_[u];
        heap.push({nd, v});
      }
    }
  }
  // Vertices reached but not settled (early exit) keep tentative distances;
  // mark them settled so DistanceTo() exposes them as upper bounds is NOT
  // done: Reached() requires settled, keeping reported distances exact.
}

void DijkstraEngine::StartFrom(VertexId source) {
  BumpGeneration();
  last_settled_ = 0;
  heap_.clear();
  if (!graph_->IsValidVertex(source)) return;
  Touch(source);
  dist_[source] = 0.0;
  source_[source] = source;
  heap_.push_back({0.0, source});
}

Weight DijkstraEngine::SettleUntil(VertexId target) {
  if (!graph_->IsValidVertex(target)) return kInfWeight;
  if (Reached(target)) return dist_[target];
  // The same pops and relaxations as Run's loop (std::priority_queue is
  // push_heap/pop_heap over a vector), plus the parent-edge weights.
  const std::greater<HeapEntry> later;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    ++total_pops_;
    const VertexId u = top.vertex;
    if (settled_[u] || top.dist > dist_[u]) continue;  // stale entry
    settled_[u] = 1;
    ++last_settled_;
    ++total_settled_;
    // Relax before returning so the next call resumes a consistent
    // frontier; a one-shot run would stop here, having settled the
    // same vertices in the same order.
    for (const Edge& e : graph_->OutEdges(u)) {
      const VertexId v = e.to;
      Touch(v);
      if (settled_[v]) continue;
      const Weight nd = top.dist + e.weight;
      if (nd < dist_[v]) {
        dist_[v] = nd;
        parent_[v] = u;
        parent_weight_[v] = e.weight;
        source_[v] = source_[u];
        heap_.push_back({nd, v});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
    if (u == target) return top.dist;
  }
  return kInfWeight;
}

void DijkstraEngine::RunFrom(VertexId source, const RunOptions& opts) {
  const std::pair<VertexId, Weight> src[] = {{source, 0.0}};
  Run(src, opts);
}

Weight DijkstraEngine::Distance(VertexId source, VertexId target) {
  if (!graph_->IsValidVertex(source) || !graph_->IsValidVertex(target)) {
    return kInfWeight;
  }
  if (source == target) return 0.0;
  const VertexId targets[] = {target};
  RunOptions opts;
  opts.targets = targets;
  RunFrom(source, opts);
  return DistanceTo(target);
}

std::vector<VertexId> DijkstraEngine::PathTo(VertexId v) const {
  std::vector<VertexId> path;
  if (!Reached(v)) return path;
  for (VertexId cur = v; cur != kInvalidVertex; cur = ParentOf(cur)) {
    path.push_back(cur);
    if (cur == source_[cur]) break;  // reached the settling source
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ptrider::roadnet
