#include "core/indexed_matcher.h"

#include <algorithm>

#include "core/distance_providers.h"
#include "core/dominance.h"
#include "util/timer.h"
#include "util/visit_marks.h"

namespace ptrider::core {

MatchResult IndexedMatcher::Match(const vehicle::Request& request,
                                  const vehicle::ScheduleContext& ctx) {
  util::WallTimer timer;
  MatchResult result;
  const uint64_t computed_before = ctx_.oracle->computed();
  // Every exact distance below has s or d as an endpoint, or is a branch
  // leg TrialInsert reuses (DESIGN.md section 7.5).
  const roadnet::DistanceOracle::AnchorScope anchors(
      *ctx_.oracle, request.start, request.destination);
  const uint64_t settles_before = ctx_.oracle->anchor_settles();

  IndexedDistanceProvider dist(*ctx_.oracle, *ctx_.grid);
  const roadnet::Weight direct =
      dist.Exact(request.start, request.destination);
  result.direct_distance_m = direct;
  Skyline skyline;
  // Seat screen (DESIGN.md section 4.5): a group larger than every
  // vehicle's capacity fails every schedule of every vehicle.
  if (direct != roadnet::kInfWeight &&
      request.num_riders <= ctx_.fleet->max_capacity()) {
    SearchCells(request, ctx, dist, direct, skyline, result);
  }

  result.options = skyline.TakeSorted();
  result.distance_computations = ctx_.oracle->computed() - computed_before;
  result.anchor_settles = ctx_.oracle->anchor_settles() - settles_before;
  result.match_seconds = timer.ElapsedSeconds();
  return result;
}

void IndexedMatcher::SearchCells(const vehicle::Request& request,
                                 const vehicle::ScheduleContext& ctx,
                                 vehicle::DistanceProvider& dist,
                                 roadnet::Weight direct, Skyline& skyline,
                                 MatchResult& result) const {
  const pricing::PricingPolicy& price = *ctx_.pricing;
  const roadnet::Weight radius = ctx_.config->MaxPickupRadiusM();
  const double price_floor = price.MinPrice(request.num_riders, direct);
  const roadnet::GridIndex& grid = *ctx_.grid;
  const vehicle::VehicleIndex& vindex = *ctx_.vehicle_index;
  const MatchEffort& effort = ctx_.effort;
  // Each schedule is screened with the price bound its vehicle was
  // pruned with: the detour bound on the dual side, the floor otherwise.
  const ScreenPrice screen_price =
      dual_side_ ? ScreenPrice::kDetourLb : ScreenPrice::kMinPrice;

  util::VisitMarks& seen = ctx_.oracle->match_marks();
  seen.Reset(ctx_.fleet->size());
  // Set once the skyline covers every empty vehicle in this and every
  // later cell (the empty-vehicle cutoff, DESIGN.md section 4.5).
  bool empty_cutoff = false;

  // Visits one cell; returns false once the search may stop entirely.
  auto process_cell = [&](roadnet::CellId cell,
                          roadnet::Weight enter_lb) -> bool {
    if (enter_lb > radius) return false;
    if (skyline.CoveredBy(enter_lb, price_floor)) return false;
    ++result.cells_visited;

    // Every empty vehicle from here on is at least enter_lb from s, so it
    // quotes at least EmptyVehiclePrice(n, enter_lb, direct).
    empty_cutoff = empty_cutoff ||
                   skyline.CoveredBy(enter_lb, price.EmptyVehiclePrice(
                                                   request.num_riders,
                                                   enter_lb, direct));
    if (empty_cutoff) {
      // An empty vehicle is listed in one cell only: none counts twice.
      result.vehicles_pruned += vindex.EmptyVehicles(cell).size();
      // Under empty-vehicle-only matching no later vehicle can contribute.
      if (effort.empty_vehicle_only) return false;
    } else {
      for (const vehicle::VehicleId id : vindex.EmptyVehicles(cell)) {
        if (!seen.Mark(static_cast<size_t>(id))) continue;
        const vehicle::Vehicle& v = ctx_.fleet->at(id);
        // Empty-vehicle option is fully determined by the pick-up
        // distance, and both coordinates grow with it: prune on the joint
        // bound.
        const roadnet::Weight t_lb = grid.LowerBound(v.location(),
                                                     request.start);
        if (t_lb > radius ||
            skyline.CoveredBy(t_lb, price.EmptyVehiclePrice(
                                        request.num_riders, t_lb, direct))) {
          ++result.vehicles_pruned;
          continue;
        }
        EvaluateVehicle(v, request, ctx, dist, price, direct, radius,
                        skyline, result, screen_price,
                        effort.max_probe_branches);
      }
    }

    // Deepest degradation rung before shedding: non-empty vehicles (the
    // only ones whose evaluation enumerates a kinetic tree) are skipped
    // wholesale.
    if (effort.empty_vehicle_only) return true;

    for (const vehicle::VehicleId id : vindex.NonEmptyVehicles(cell)) {
      if (!seen.Mark(static_cast<size_t>(id))) continue;
      const vehicle::Vehicle& v = ctx_.fleet->at(id);
      const roadnet::Weight t_lb =
          VehiclePickupLowerBound(grid, v, request.start);
      if (t_lb > radius) {
        ++result.vehicles_pruned;
        continue;
      }
      double p_lb = price_floor;
      if (dual_side_) {
        const roadnet::Weight delta_lb =
            VehicleDetourLowerBound(grid, v, request, direct);
        p_lb = price.PriceWithDetourLb(request.num_riders, delta_lb,
                                       direct);
      }
      if (skyline.CoveredBy(t_lb, p_lb)) {
        ++result.vehicles_pruned;
        continue;
      }
      EvaluateVehicle(v, request, ctx, dist, price, direct, radius, skyline,
                      result, screen_price, effort.max_probe_branches);
    }
    return true;
  };

  const roadnet::CellId start_cell = grid.CellOfVertex(request.start);
  if (process_cell(start_cell, 0.0)) {
    // The list ascends by cell-pair bound, so enter_lb ascends too.
    for (const roadnet::CellId cell : grid.SortedCellList(start_cell)) {
      if (!process_cell(cell, grid.CellLowerBound(cell, request.start))) {
        break;
      }
    }
  }
}

}  // namespace ptrider::core
