#include "core/matcher.h"

#include <algorithm>

#include "core/dominance.h"

namespace ptrider::core {

namespace {

/// Clamp-to-zero helper for detour terms.
roadnet::Weight Positive(roadnet::Weight x) { return x > 0.0 ? x : 0.0; }

/// EvaluateVehicle's screen: rejects a schedule whose option the
/// skyline would refuse. Exact because both bounds are <= the option's
/// doubles (the walk sums as the exact walk does, and the price bound
/// repeats Price's arithmetic on a smaller total), and the region the
/// skyline strictly covers is upward closed and only grows.
class SkylineScreen final : public vehicle::InsertionScreen {
 public:
  SkylineScreen(const Skyline& skyline, const pricing::PricingPolicy& pricing,
                const vehicle::Request& request, roadnet::Weight direct,
                roadnet::Weight radius, roadnet::Weight current_total,
                ScreenPrice price)
      : skyline_(skyline),
        pricing_(pricing),
        num_riders_(request.num_riders),
        direct_(direct),
        radius_(radius),
        current_total_(current_total),
        detour_(price == ScreenPrice::kDetourLb),
        min_price_(pricing.MinPrice(request.num_riders, direct)) {}

  bool Rejects(roadnet::Weight pickup_lb,
               roadnet::Weight total_lb) const override {
    if (pickup_lb > radius_) return true;
    // Not clamped at 0: a total below the current one only lowers the
    // bound, and Price clamps Delta at 0, so the bound stays <= the quote.
    const double price_lb =
        detour_ ? pricing_.PriceWithDetourLb(
                      num_riders_, total_lb - current_total_, direct_)
                : min_price_;
    return skyline_.CoveredBy(pickup_lb, price_lb);
  }

 private:
  const Skyline& skyline_;
  const pricing::PricingPolicy& pricing_;
  int num_riders_;
  roadnet::Weight direct_;
  roadnet::Weight radius_;
  roadnet::Weight current_total_;
  bool detour_;
  double min_price_;
};

}  // namespace

roadnet::Weight VehiclePickupLowerBound(const roadnet::GridIndex& grid,
                                        const vehicle::Vehicle& v,
                                        roadnet::VertexId start) {
  // Any candidate reaches the new pick-up directly from the current
  // location or from some scheduled stop, so dist_pt >= min LB over those
  // insertion points. All branches share one stop set; scan the best.
  roadnet::Weight lb = grid.LowerBound(v.location(), start);
  if (!v.tree().empty()) {
    for (const vehicle::Stop& s : v.tree().BestBranch().stops) {
      lb = std::min(lb, grid.LowerBound(s.location, start));
    }
  }
  return lb;
}

roadnet::Weight VehicleDetourLowerBound(const roadnet::GridIndex& grid,
                                        const vehicle::Vehicle& v,
                                        const vehicle::Request& request,
                                        roadnet::Weight direct) {
  // Shortcutting s (resp. d) out of any insertion candidate leaves a
  // schedule no shorter than the current best, so Delta is at least the
  // cost of splicing s (resp. d) into its slot. A slot is either an
  // original branch slot (x -> y with exact cached leg) or — when s and d
  // end up adjacent — the joint splice x -> s -> d -> y. Taking the min
  // over branches and slots of each splice cost, then the max over the
  // s-view and d-view, never exceeds the true minimal Delta.
  const roadnet::VertexId s = request.start;
  const roadnet::VertexId d = request.destination;
  if (v.tree().empty()) {
    // Empty vehicle: Delta = dist(l,s) + direct exactly.
    return grid.LowerBound(v.location(), s) + direct;
  }
  roadnet::Weight lb_s = roadnet::kInfWeight;  // min splice cost for s
  roadnet::Weight lb_d = roadnet::kInfWeight;  // min splice cost for d
  for (const vehicle::Branch& b : v.tree().branches()) {
    roadnet::VertexId prev = v.location();
    for (size_t i = 0; i < b.stops.size(); ++i) {
      const roadnet::VertexId next = b.stops[i].location;
      const roadnet::Weight leg = b.legs[i];
      const roadnet::Weight term_s =
          Positive(grid.LowerBound(prev, s) + grid.LowerBound(s, next) -
                   leg);
      const roadnet::Weight term_d =
          Positive(grid.LowerBound(prev, d) + grid.LowerBound(d, next) -
                   leg);
      const roadnet::Weight term_sd =
          Positive(grid.LowerBound(prev, s) + direct +
                   grid.LowerBound(d, next) - leg);
      lb_s = std::min(lb_s, std::min(term_s, term_sd));
      lb_d = std::min(lb_d, std::min(term_d, term_sd));
      prev = next;
    }
    // Append-at-end slots.
    const roadnet::Weight tail_s = Positive(grid.LowerBound(prev, s));
    const roadnet::Weight tail_d = Positive(grid.LowerBound(prev, d));
    const roadnet::Weight tail_sd =
        Positive(grid.LowerBound(prev, s) + direct);
    lb_s = std::min(lb_s, std::min(tail_s, tail_sd));
    lb_d = std::min(lb_d, std::min(tail_d, tail_sd));
    if (lb_s == 0.0 && lb_d == 0.0) break;
  }
  return std::max(lb_s, lb_d);
}

size_t EvaluateVehicle(const vehicle::Vehicle& v,
                       const vehicle::Request& request,
                       const vehicle::ScheduleContext& ctx,
                       vehicle::DistanceProvider& dist,
                       const pricing::PricingPolicy& pricing,
                       roadnet::Weight direct, roadnet::Weight radius_m,
                       Skyline& skyline, MatchResult& result,
                       ScreenPrice screen_price,
                       size_t max_probe_branches) {
  ++result.vehicles_examined;
  const roadnet::Weight current_total = v.tree().BestTotalDistance();
  const int committed_riders = v.tree().RidersCommitted();
  const SkylineScreen screen(skyline, pricing, request, direct, radius_m,
                             current_total, screen_price);
  std::vector<vehicle::InsertionCandidate> candidates = v.tree().TrialInsert(
      request, ctx, dist, &result.insertion, max_probe_branches,
      screen_price == ScreenPrice::kNone ? nullptr : &screen);
  size_t accepted = 0;
  for (vehicle::InsertionCandidate& c : candidates) {
    if (c.pickup_distance > radius_m) continue;
    Option option;
    option.vehicle = v.id();
    option.pickup_distance = c.pickup_distance;
    option.pickup_time_s = ctx.now_s + c.pickup_distance / ctx.speed_mps;
    pricing::QuoteInputs quote;
    quote.num_riders = request.num_riders;
    quote.committed_riders = committed_riders;
    quote.new_total = c.total_distance;
    quote.current_total = current_total;
    quote.direct = direct;
    option.price = pricing.Price(quote);
    option.new_total_distance = c.total_distance;
    option.schedule = std::move(c.stops);
    if (skyline.Add(std::move(option))) ++accepted;
  }
  return accepted;
}

}  // namespace ptrider::core
