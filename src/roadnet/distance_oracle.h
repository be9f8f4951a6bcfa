#ifndef PTRIDER_ROADNET_DISTANCE_ORACLE_H_
#define PTRIDER_ROADNET_DISTANCE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "roadnet/astar.h"
#include "roadnet/ch.h"
#include "roadnet/dijkstra.h"
#include "roadnet/graph.h"
#include "roadnet/pair_cache.h"
#include "roadnet/sp_algorithm.h"
#include "roadnet/types.h"
#include "util/status.h"
#include "util/visit_marks.h"

namespace ptrider::roadnet {

struct DistanceOracleOptions {
  SpAlgorithm algorithm = SpAlgorithm::kAStar;
  /// Max number of cached pair distances; 0 disables caching.
  size_t cache_capacity = 1 << 20;
  /// Treat dist(u,v) == dist(v,u): one cache entry serves both directions.
  /// Must only be set for symmetric networks (all generators produce them).
  bool symmetric = true;
};

/// The exact-distance service used by matching, pricing and simulation.
/// Wraps one point-to-point engine with an LRU pair cache and counts every
/// query — the "number of shortest path distance computations" that the
/// paper's matching algorithms minimize is read from these counters.
/// Not thread-safe; one oracle per thread — Clone() is how a thread gets
/// its own.
class DistanceOracle {
  struct Anchor;

 public:
  /// Request anchoring (DESIGN.md section 7.5). While a scope is alive,
  /// every Distance(u, v) with u or v in {s, d} is read from one of two
  /// resumable single-source searches rooted at s and d instead of
  /// running a point-to-point search; matching one request asks almost
  /// nothing else. Each answer is the double a point-to-point query
  /// returns: the anchor's own label when the anchor has the smaller id,
  /// otherwise its path re-summed from the other end. The searches
  /// persist across scopes (re-anchoring at the same vertex resumes
  /// them) and are allocated on first use, so oracles that never anchor
  /// pay nothing. Requires a symmetric oracle; scopes do not nest.
  class AnchorScope {
   public:
    AnchorScope(DistanceOracle& oracle, VertexId s, VertexId d);
    ~AnchorScope();
    AnchorScope(const AnchorScope&) = delete;
    AnchorScope& operator=(const AnchorScope&) = delete;

   private:
    DistanceOracle* oracle_;
  };

  /// The two anchor searches, detached from any oracle so they can
  /// travel with a request: an AnchorLoan hands them to whichever oracle
  /// works on the request next, and its AnchorScope resumes them. An
  /// answer depends only on the root and the looked-up vertex, never on
  /// the oracle holding the search. Empty until first anchored; then
  /// holds PairBytes(graph).
  class AnchorPair {
   public:
    /// Bytes one anchored pair holds over `graph` (its heaps aside).
    static size_t PairBytes(const RoadNetwork& graph);

   private:
    friend class DistanceOracle;
    std::unique_ptr<Anchor> searches_[2];
  };

  /// Lends `pair` to `oracle` until destroyed: the oracle's AnchorScopes
  /// then resume `pair`'s searches instead of its own, which come back
  /// unchanged. A null `pair` lends nothing. Loans are made between
  /// anchor scopes only. Counters stay the oracle's: it counts the
  /// lookups and settles it makes, in whichever pair.
  class AnchorLoan {
   public:
    AnchorLoan(DistanceOracle& oracle, AnchorPair* pair);
    ~AnchorLoan();
    AnchorLoan(const AnchorLoan&) = delete;
    AnchorLoan& operator=(const AnchorLoan&) = delete;

   private:
    DistanceOracle* oracle_;
    AnchorPair* pair_;
  };

  explicit DistanceOracle(const RoadNetwork& graph,
                          DistanceOracleOptions options = {});

  /// Constructs the oracle around an already-built CH index instead of
  /// preprocessing one — the snapshot path (src/snapshot/): the mapped,
  /// read-only index a snapshot load produced is adopted here exactly
  /// like a clone adopts the first oracle's index. `shared_ch` must have
  /// been built (or saved) from `graph`; it is only consulted when
  /// `options.algorithm == kContractionHierarchy`, and clones of this
  /// oracle share it like any other precomputed table.
  DistanceOracle(const RoadNetwork& graph, DistanceOracleOptions options,
                 std::shared_ptr<const CHIndex> shared_ch);

  /// The "one oracle per thread" contract made explicit: returns an
  /// independent oracle over the same (immutable, shared) road network
  /// with the same algorithm/options. Per-query scratch — search-engine
  /// working arrays, the LRU cache, the statistics counters — is
  /// duplicated fresh, so the clone and the original can serve queries
  /// from different threads concurrently. Precomputed distance tables
  /// are shared read-only here, never duplicated per clone: under
  /// kContractionHierarchy every clone queries the one CHIndex the
  /// first oracle built (see ch_index()).
  DistanceOracle Clone() const;

  /// Clone with different per-clone options (cache capacity, symmetry
  /// flag). Shared precomputed tables are reused when the algorithm is
  /// unchanged; switching algorithms builds the new engine fresh
  /// (including CH preprocessing when switching *to*
  /// kContractionHierarchy).
  DistanceOracle CloneWith(DistanceOracleOptions options) const;

  /// Exact shortest-path distance (kInfWeight when unreachable).
  /// Anchored lookups count like pair lookups: the first lookup of a
  /// vertex in an anchor's search is `computed`, a repeat a cache hit.
  Weight Distance(VertexId u, VertexId v);

  /// Exact shortest path as a vertex sequence (u..v inclusive); error when
  /// unreachable. Paths are not cached; each call counts as one query and
  /// one computed search (trivial u == v paths count as query only,
  /// mirroring Distance's accounting). Under kContractionHierarchy the
  /// path is unpacked from the CH shortcuts (no A* fallback), which
  /// returns the identical vertex sequence whenever shortest paths are
  /// unique beyond float rounding (DESIGN.md section 7.4) — and costs
  /// orders of magnitude fewer settles on large networks.
  util::Result<std::vector<VertexId>> ShortestPath(VertexId u, VertexId v);

  /// Length of `route`, a ShortestPath result or any suffix of one (a
  /// suffix of a shortest path is one too), summed the way
  /// Distance(route.front(), route.back()) sums it: edge weights left
  /// to right from the smaller end id when symmetric (DESIGN.md 7.4).
  /// Under 7.4's premise that is the double Distance returns, without a
  /// search; no counter moves. 0 for fewer than two vertices.
  Weight RouteDistance(std::span<const VertexId> route) const;

  const RoadNetwork& graph() const { return *graph_; }

  /// The shared contraction-hierarchy index; null unless the algorithm
  /// is kContractionHierarchy. Clones return the same pointer.
  const CHIndex* ch_index() const { return ch_index_.get(); }

  // --- Statistics ---------------------------------------------------------
  uint64_t queries() const { return queries_; }
  uint64_t cache_hits() const { return cache_hits_; }
  /// Exact distances actually computed: point-to-point searches plus
  /// first lookups in an anchor search (queries - cache_hits - trivial).
  uint64_t computed() const { return computed_; }
  uint64_t heap_pops() const;
  /// Vertices settled by request-anchor searches, cumulative (own or
  /// lent).
  uint64_t anchor_settles() const { return anchor_settles_; }
  void ResetStats();

  /// Per-thread matcher scratch (vehicles seen in one match). It lives
  /// here because the oracle is the one piece of mutable search state
  /// each matching thread owns; clones start with their own.
  util::VisitMarks& match_marks() { return match_marks_; }

 private:
  /// One request anchor: a resumable search from `source`, plus the
  /// oracle-order answer of every vertex looked up since it started
  /// (valid where `answered` marks it).
  struct Anchor {
    explicit Anchor(const RoadNetwork& graph);
    void Restart(VertexId from);

    DijkstraEngine search;
    VertexId source = kInvalidVertex;
    std::vector<Weight> answer;
    util::VisitMarks answered;
  };

  static uint64_t Key(VertexId u, VertexId v) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
           static_cast<uint32_t>(v);
  }

  Weight ComputeDistance(VertexId u, VertexId v);
  void SetAnchors(VertexId s, VertexId d);
  /// The active anchor rooted at `v`, or null.
  Anchor* AnchorAt(VertexId v);
  /// dist between the anchor's source and `x`, in the oracle's order.
  Weight AnchoredDistance(Anchor& anchor, VertexId x);

  const RoadNetwork* graph_;
  DistanceOracleOptions options_;

  std::unique_ptr<DijkstraEngine> dijkstra_;
  std::unique_ptr<AStarEngine> astar_;
  /// kContractionHierarchy: the immutable index, shared across clones...
  std::shared_ptr<const CHIndex> ch_index_;
  /// ...and this oracle's private query scratch over it.
  std::unique_ptr<CHQuery> ch_query_;

  PairCache cache_;
  /// Request anchors at s and d (this oracle's own, or a lent pair);
  /// allocated by the first AnchorScope.
  AnchorPair anchors_;
  bool anchored_ = false;
  util::VisitMarks match_marks_;

  uint64_t queries_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t computed_ = 0;
  uint64_t anchor_settles_ = 0;
  uint64_t anchor_pops_ = 0;
};

}  // namespace ptrider::roadnet

#endif  // PTRIDER_ROADNET_DISTANCE_ORACLE_H_
