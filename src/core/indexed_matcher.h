#ifndef PTRIDER_CORE_INDEXED_MATCHER_H_
#define PTRIDER_CORE_INDEXED_MATCHER_H_

#include <vector>

#include "core/dominance.h"
#include "core/matcher.h"

namespace ptrider::core {

/// The single-side and dual-side search algorithms (Section 3.3). Both
/// expand grid cells outward from the request start in ascending
/// lower-bound order, prune vehicles whose cheapest conceivable option is
/// already covered by the skyline, and terminate once no unexamined
/// vehicle can contribute:
///
///   * Time lemma. Any vehicle first encountered in cell g has every
///     insertion point in cells no closer than g, so its pick-up distance
///     is at least LB(g(s), g) + s.min.
///   * Price lemma. Delta = dist_trj - dist_tri >= 0 always (the price
///     clamps a total that rounds below the current one), so the
///     pricing policy's MinPrice (f_n * dist(s,d) under Definition 3)
///     floors every quote; the dual-side variant tightens Delta with
///     destination-side detour lower bounds before touching the kinetic
///     tree (a vehicle near s but far from d prices itself out — the
///     paper's motivating case for dual-side search). Any policy honoring
///     the PricingPolicy bound contract (DESIGN.md 4.4) keeps both prunes
///     admissible.
///   * Termination. Cells arrive in ascending lower-bound order; stop when
///     the skyline covers (cell time LB, global price floor), or the lower
///     bound exceeds the pick-up radius.
///   * Early exits (DESIGN.md 4.5). Once the skyline covers (cell time LB,
///     empty-vehicle price at that LB), every remaining empty-vehicle list
///     is skipped and counted as pruned; a group larger than every
///     vehicle's capacity visits no cell at all.
///
/// Single-side search (`dual_side` false) prunes with the time lemma and
/// the global price floor; dual-side search additionally folds
/// destination-side detour lower bounds into each vehicle's price floor
/// before exact verification.
class IndexedMatcher {
 public:
  IndexedMatcher(const MatchContext& context, bool dual_side)
      : ctx_(context), dual_side_(dual_side) {}

  /// Finds all qualified non-dominated options for `request` given the
  /// current vehicle states at time `ctx.now_s`.
  MatchResult Match(const vehicle::Request& request,
                    const vehicle::ScheduleContext& ctx);

 private:
  /// Expands cells outward from the request start, feeding every vehicle
  /// the prunes cannot exclude into `skyline`. `direct` is dist(s, d),
  /// finite.
  void SearchCells(const vehicle::Request& request,
                   const vehicle::ScheduleContext& ctx,
                   vehicle::DistanceProvider& dist, roadnet::Weight direct,
                   Skyline& skyline, MatchResult& result) const;

  MatchContext ctx_;
  bool dual_side_;
};

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_INDEXED_MATCHER_H_
