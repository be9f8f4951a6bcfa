#ifndef PTRIDER_CORE_PRICE_H_
#define PTRIDER_CORE_PRICE_H_

#include "core/config.h"
#include "roadnet/types.h"

namespace ptrider::core {

/// The paper's price model (Definition 3):
///
///   price = f_n * (dist(tr_j) - dist(tr_i) + dist(s, d)) / unit
///
/// where tr_i is the vehicle's current best schedule, tr_j the schedule
/// after inserting the request, and f_n = 0.3 + (n-1) * 0.1 by default.
/// For an empty vehicle dist(tr_i) = 0 and dist(tr_j) = dist(l, s) +
/// dist(s, d), so the same formula yields f_n * (dist(l,s) + 2 dist(s,d)),
/// matching the paper's worked example (r2 = <c2, 8, 8.8>).
///
/// Transition note: the matchers now quote through the pluggable
/// pricing::PricingPolicy interface (src/pricing/); this class remains as
/// the shared Definition-3 arithmetic that pricing::PaperPolicy wraps
/// bit-for-bit and the other policies build on. New call sites should
/// take a PricingPolicy, not a PriceModel.
class PriceModel {
 public:
  explicit PriceModel(const Config& config)
      : base_(config.price_base_ratio),
        per_extra_(config.price_per_extra_rider),
        unit_m_(config.price_distance_unit_m) {}

  PriceModel(double base_ratio, double per_extra_rider,
             double distance_unit_m)
      : base_(base_ratio),
        per_extra_(per_extra_rider),
        unit_m_(distance_unit_m) {}

  /// Price ratio f_n for n riders.
  double Fn(int num_riders) const {
    return base_ + (num_riders - 1) * per_extra_;
  }

  /// Definition 3. `direct` is dist(s, d). The added detour Delta =
  /// new_total - current_total is >= 0 in real numbers, but a schedule's
  /// total can round below the current one in doubles; Delta is clamped
  /// at 0, so MinPrice floors every quote (DESIGN.md 4.2).
  double Price(int num_riders, roadnet::Weight new_total,
               roadnet::Weight current_total, roadnet::Weight direct) const {
    const roadnet::Weight delta = new_total - current_total;
    return Fn(num_riders) * ((delta > 0.0 ? delta : 0.0) + direct) / unit_m_;
  }

  /// Global floor over all vehicles: a perfectly-aligned non-empty vehicle
  /// adds zero detour, paying f_n * dist(s,d). No quote is cheaper: Price
  /// clamps Delta at 0 and rounding is monotone (DESIGN.md 4.2), which
  /// drives search termination.
  double MinPrice(int num_riders, roadnet::Weight direct) const {
    return Fn(num_riders) * direct / unit_m_;
  }

  /// Price of an empty vehicle at pick-up distance `pickup`. Increases in
  /// `pickup`, so a lower bound on pickup gives a lower bound on price.
  /// Evaluated as the quote itself is (new_total = pickup + direct,
  /// current_total = 0): `pickup + 2 * direct` can round one ulp above
  /// `(pickup + direct) + direct`, and a bound above the quote would
  /// prune a vehicle whose option ties a kept one.
  double EmptyVehiclePrice(int num_riders, roadnet::Weight pickup,
                           roadnet::Weight direct) const {
    return Price(num_riders, pickup + direct, 0.0, direct);
  }

  /// Price floor given a lower bound on the added detour Delta.
  double PriceWithDetourLb(int num_riders, roadnet::Weight detour_lb,
                           roadnet::Weight direct) const {
    return Fn(num_riders) * (detour_lb + direct) / unit_m_;
  }

 private:
  double base_;
  double per_extra_;
  double unit_m_;
};

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_PRICE_H_
