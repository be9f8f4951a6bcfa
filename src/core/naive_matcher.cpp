#include "core/naive_matcher.h"

#include "core/distance_providers.h"
#include "core/dominance.h"
#include "util/timer.h"

namespace ptrider::core {

MatchResult NaiveMatcher::Match(const vehicle::Request& request,
                                const vehicle::ScheduleContext& ctx) {
  util::WallTimer timer;
  MatchResult result;
  const uint64_t computed_before = ctx_.oracle->computed();

  ExactDistanceProvider dist(*ctx_.oracle);
  const pricing::PricingPolicy& price = *ctx_.pricing;
  const roadnet::Weight direct =
      dist.Exact(request.start, request.destination);
  result.direct_distance_m = direct;
  Skyline skyline;
  // Destination unreachable: no qualified options.
  if (direct != roadnet::kInfWeight) {
    const roadnet::Weight radius = ctx_.config->MaxPickupRadiusM();
    const MatchEffort& effort = ctx_.effort;
    for (const vehicle::Vehicle& v : ctx_.fleet->vehicles()) {
      if (effort.empty_vehicle_only && !v.tree().empty()) continue;
      EvaluateVehicle(v, request, ctx, dist, price, direct, radius, skyline,
                      result, ScreenPrice::kNone, effort.max_probe_branches);
    }
  }
  result.options = skyline.TakeSorted();
  result.distance_computations = ctx_.oracle->computed() - computed_before;
  result.match_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ptrider::core
