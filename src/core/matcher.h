#ifndef PTRIDER_CORE_MATCHER_H_
#define PTRIDER_CORE_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/option.h"
#include "core/price.h"
#include "pricing/pricing_policy.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/grid_index.h"
#include "vehicle/fleet.h"
#include "vehicle/kinetic_tree.h"
#include "vehicle/vehicle_index.h"

namespace ptrider::core {

/// Result of matching one ridesharing request: all qualified,
/// non-dominated options plus the effort diagnostics the benches report.
struct MatchResult {
  std::vector<Option> options;
  /// dist(s, d) of the request, meters (kInfWeight when unreachable).
  /// Consumers derive fare floors from it without re-running Dijkstra.
  roadnet::Weight direct_distance_m = roadnet::kInfWeight;

  // --- Diagnostics ---------------------------------------------------------
  /// Vehicles whose kinetic tree was actually searched.
  size_t vehicles_examined = 0;
  /// Vehicles skipped by index-based pruning before any exact work: one by
  /// one on their own bounds, or a whole cell's empty-vehicle list at once
  /// once the empty-vehicle cutoff holds (DESIGN.md section 4.5). Oversized
  /// groups skip the fleet without pruning anyone (0).
  size_t vehicles_pruned = 0;
  /// Grid cells the search visited (0 for the naive matcher).
  size_t cells_visited = 0;
  /// Exact shortest-path computations performed during this match.
  uint64_t distance_computations = 0;
  /// Vertices the two request-anchor searches settled during this match.
  /// Searches persist between requests, so the count depends on which
  /// request last used the same pair.
  uint64_t anchor_settles = 0;
  /// Wall-clock matching latency — the demo's "average response time"
  /// aggregates this.
  double match_seconds = 0.0;
  vehicle::InsertionStats insertion;
};

/// Reduced-effort matching controls — the knobs the service-mode
/// graceful-degradation ladder turns under overload (DESIGN.md
/// section 14). Defaults are full effort; every reduction preserves
/// option *feasibility* (candidates are still exactly validated) and
/// determinism, trading option completeness for bounded match cost:
///
///   * max_probe_branches caps how many kinetic-tree branches a trial
///     insertion enumerates. Branches are kept sorted shortest-first, so
///     the cap probes the best-K schedules — the ones most likely to
///     yield the cheapest options — and skips the long tail.
///   * empty_vehicle_only restricts matching to vehicles with no
///     commitments: O(1) insertion work per vehicle, no tree
///     enumeration at all. The deepest rung before shedding.
struct MatchEffort {
  /// 0 = unlimited; otherwise probe at most this many branches per tree.
  size_t max_probe_branches = 0;
  /// Consider only empty vehicles (skip every non-empty candidate).
  bool empty_vehicle_only = false;

  bool IsFullEffort() const {
    return max_probe_branches == 0 && !empty_vehicle_only;
  }
};

/// Shared wiring for matchers. All pointers outlive the matcher; the
/// matcher mutates nothing but the oracle's searches/stats. Everything but
/// the oracle is const — matching is a read-only view of system state,
/// which is what lets the parallel dispatcher run many matches
/// concurrently against one fleet (each worker supplying its own
/// oracle and pricing view).
struct MatchContext {
  const roadnet::RoadNetwork* graph = nullptr;
  const roadnet::GridIndex* grid = nullptr;     // null for naive matching
  const vehicle::Fleet* fleet = nullptr;
  const vehicle::VehicleIndex* vehicle_index = nullptr;  // null for naive
  roadnet::DistanceOracle* oracle = nullptr;
  const Config* config = nullptr;
  /// Fare policy quotes AND pruning bounds (src/pricing/). Owned by
  /// PTRider; must honor the PricingPolicy bound contract.
  const pricing::PricingPolicy* pricing = nullptr;
  /// Degraded-matching effort; full effort unless the service ladder is
  /// engaged (value, not pointer: a snapshot per match).
  MatchEffort effort;
};

/// The price bound EvaluateVehicle's insertion screen gives a schedule
/// from its lower-bound walk (DESIGN.md section 4.5).
enum class ScreenPrice {
  /// No screen: every schedule the bound walk passes is walked exactly
  /// (the naive matcher).
  kNone,
  /// MinPrice(n, direct), the single-side matcher's floor.
  kMinPrice,
  /// PriceWithDetourLb(n, total_lb - current_total, direct): dual-side
  /// matching and the dispatcher's re-probe.
  kDetourLb,
};

/// Evaluates a single vehicle: trial-inserts the request into its
/// kinetic tree and feeds every candidate within the pick-up radius into
/// the skyline. Shared by all matchers. Unless `screen_price` is kNone,
/// a schedule whose pick-up bound exceeds the radius, or whose (pick-up,
/// price) bounds the skyline strictly covers, skips its exact walk: its
/// option could not enter the skyline. Returns the number of accepted
/// candidates. `max_probe_branches` (0 = unlimited) is the MatchEffort
/// branch cap, forwarded to KineticTree::TrialInsert.
size_t EvaluateVehicle(const vehicle::Vehicle& v,
                       const vehicle::Request& request,
                       const vehicle::ScheduleContext& ctx,
                       vehicle::DistanceProvider& dist,
                       const pricing::PricingPolicy& pricing,
                       roadnet::Weight direct, roadnet::Weight radius_m,
                       class Skyline& skyline, MatchResult& result,
                       ScreenPrice screen_price,
                       size_t max_probe_branches);

/// Admissible lower bound on the pick-up distance any schedule of `v`
/// could offer a request starting at `start`: the minimum grid lower
/// bound from any insertion point (current location or scheduled stop).
/// When it exceeds the pick-up radius, `v` cannot contribute an option —
/// the time-lemma prune of the indexed matchers, also used by the
/// parallel dispatcher to decide whether an in-batch commitment can
/// invalidate a concurrently-computed match.
roadnet::Weight VehiclePickupLowerBound(const roadnet::GridIndex& grid,
                                        const vehicle::Vehicle& v,
                                        roadnet::VertexId start);

/// Admissible lower bound on the added detour Delta = dist_trj - dist_tri
/// for serving `request` with vehicle `v`, derived from grid lower
/// bounds and the exact slot legs already cached in the branches. Sound:
/// never exceeds the true Delta of any insertion candidate (DESIGN.md
/// 4.3). `direct` is dist(s, d). The price-lemma prune of dual-side
/// search, shared with the parallel dispatcher's commit-phase
/// invalidation test.
roadnet::Weight VehicleDetourLowerBound(const roadnet::GridIndex& grid,
                                        const vehicle::Vehicle& v,
                                        const vehicle::Request& request,
                                        roadnet::Weight direct);

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_MATCHER_H_
