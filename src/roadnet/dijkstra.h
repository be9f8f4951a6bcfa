#ifndef PTRIDER_ROADNET_DIJKSTRA_H_
#define PTRIDER_ROADNET_DIJKSTRA_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "roadnet/graph.h"
#include "roadnet/types.h"

namespace ptrider::roadnet {

/// Reusable Dijkstra workspace over one road network. State arrays are
/// version-stamped so repeated queries cost O(touched), not O(V), to reset.
/// Not thread-safe; use one engine per thread.
class DijkstraEngine {
 public:
  struct RunOptions {
    /// Stop settling vertices farther than this from the nearest source.
    Weight radius = kInfWeight;
    /// When non-empty, stop as soon as all of these are settled.
    std::span<const VertexId> targets = {};
    /// When set, only vertices satisfying the filter are relaxed (sources
    /// are always allowed). Used for in-cell searches by the grid index.
    std::function<bool(VertexId)> filter = nullptr;
    /// When set, every vertex the run settles is appended to it, in
    /// settle order (ascending distance).
    std::vector<VertexId>* settle_order = nullptr;
  };

  explicit DijkstraEngine(const RoadNetwork& graph);

  /// Multi-source run; `sources` carry initial distances (usually 0).
  void Run(std::span<const std::pair<VertexId, Weight>> sources,
           const RunOptions& opts);
  void Run(std::span<const std::pair<VertexId, Weight>> sources) {
    Run(sources, RunOptions{});
  }

  /// Single-source convenience.
  void RunFrom(VertexId source, const RunOptions& opts);
  void RunFrom(VertexId source) { RunFrom(source, RunOptions{}); }

  /// Single-pair distance with early exit; kInfWeight when unreachable.
  Weight Distance(VertexId source, VertexId target);

  /// Resumable single-source mode. StartFrom seeds a search from `source`
  /// and settles nothing; each SettleUntil call resumes it where the
  /// previous call stopped, settling vertices (in exactly the order a
  /// one-shot Distance(source, target) would) only until `target` is
  /// settled. The heap persists between calls, so a sequence of targets
  /// costs one search, not one per target. Returns DistanceTo(target):
  /// kInfWeight once the search is exhausted without reaching it. Any
  /// Run/RunFrom/Distance call in between abandons the resumable search.
  void StartFrom(VertexId source);
  Weight SettleUntil(VertexId target);
  /// Weight of the edge ParentOf(v) -> v the resumable search settled a
  /// non-source `v` through (the lightest of parallel edges).
  Weight ParentWeightOf(VertexId v) const { return parent_weight_[v]; }

  /// Results of the last Run. `Reached` means a finite tentative distance
  /// was assigned (all reached vertices are settled once Run returns unless
  /// the run stopped early on radius/targets).
  bool Reached(VertexId v) const {
    return version_[v] == generation_ && settled_[v];
  }
  Weight DistanceTo(VertexId v) const {
    return Reached(v) ? dist_[v] : kInfWeight;
  }
  VertexId ParentOf(VertexId v) const {
    return Reached(v) ? parent_[v] : kInvalidVertex;
  }
  /// The source vertex whose search tree settled `v` (multi-source runs).
  VertexId SourceOf(VertexId v) const {
    return Reached(v) ? source_[v] : kInvalidVertex;
  }

  /// Vertex sequence from the settling source to `v` (inclusive); empty
  /// when `v` was not reached.
  std::vector<VertexId> PathTo(VertexId v) const;

  /// Number of vertices settled by the last run.
  size_t last_settled() const { return last_settled_; }
  /// Cumulative heap pops across all runs (pruning-effect metric).
  uint64_t total_pops() const { return total_pops_; }
  /// Cumulative vertices settled across all runs and resumptions.
  uint64_t total_settled() const { return total_settled_; }
  void ResetStats() { total_pops_ = total_settled_ = 0; }

  const RoadNetwork& graph() const { return *graph_; }

  /// Bytes of per-vertex state an engine allocates (its heap aside).
  static constexpr size_t kStateBytesPerVertex =
      2 * sizeof(Weight) + 2 * sizeof(VertexId) + sizeof(uint32_t) +
      sizeof(char);

 private:
  struct HeapEntry {
    Weight dist;
    VertexId vertex;
    bool operator>(const HeapEntry& other) const {
      return dist > other.dist;
    }
  };

  void BumpGeneration();
  /// Lazily resets `v`'s state arrays for the current generation.
  void Touch(VertexId v);

  const RoadNetwork* graph_;
  // Per-vertex state (kStateBytesPerVertex in all).
  std::vector<Weight> dist_;
  std::vector<VertexId> parent_;
  /// Written by the resumable search only; Run never pays for it.
  std::vector<Weight> parent_weight_;
  std::vector<VertexId> source_;
  std::vector<uint32_t> version_;
  std::vector<char> settled_;
  /// The resumable search's binary min-heap, kept between SettleUntil
  /// calls (push_heap/pop_heap, the operations std::priority_queue uses).
  std::vector<HeapEntry> heap_;
  uint32_t generation_ = 0;
  size_t last_settled_ = 0;
  uint64_t total_pops_ = 0;
  uint64_t total_settled_ = 0;
};

}  // namespace ptrider::roadnet

#endif  // PTRIDER_ROADNET_DIJKSTRA_H_
