#include "core/config.h"

#include "util/string_util.h"

namespace ptrider::core {

const char* MatcherAlgorithmName(MatcherAlgorithm algorithm) {
  switch (algorithm) {
    case MatcherAlgorithm::kNaive:
      return "naive";
    case MatcherAlgorithm::kSingleSide:
      return "single-side";
    case MatcherAlgorithm::kDualSide:
      return "dual-side";
  }
  return "unknown";
}

const char* PricingPolicyKindName(PricingPolicyKind kind) {
  switch (kind) {
    case PricingPolicyKind::kPaper:
      return "paper";
    case PricingPolicyKind::kSurge:
      return "surge";
    case PricingPolicyKind::kSharedDiscount:
      return "shared-discount";
  }
  return "unknown";
}

util::Status Config::Validate() const {
  if (!(speed_mps > 0.0)) {
    return util::Status::InvalidArgument("speed must be positive");
  }
  if (vehicle_capacity < 1) {
    return util::Status::InvalidArgument("capacity must be >= 1");
  }
  if (default_max_wait_s < 0.0) {
    return util::Status::InvalidArgument("max wait must be >= 0");
  }
  if (default_service_sigma < 0.0) {
    return util::Status::InvalidArgument("service sigma must be >= 0");
  }
  if (!(price_base_ratio >= 0.0) || price_per_extra_rider < 0.0) {
    return util::Status::InvalidArgument("price ratios must be >= 0");
  }
  if (!(price_distance_unit_m > 0.0)) {
    return util::Status::InvalidArgument(
        "price distance unit must be positive");
  }
  if (!(max_planned_pickup_s > 0.0)) {
    return util::Status::InvalidArgument(
        "pickup horizon must be positive");
  }
  if (dispatch_threads < 1 || dispatch_threads > kMaxThreads) {
    return util::Status::InvalidArgument(util::StrFormat(
        "dispatch threads must be in [1, %d]", kMaxThreads));
  }
  if (!(surge_window_s > 0.0)) {
    return util::Status::InvalidArgument("surge window must be positive");
  }
  if (surge_baseline_rate_per_min < 0.0 || surge_gain_per_rate < 0.0) {
    return util::Status::InvalidArgument(
        "surge baseline and gain must be >= 0");
  }
  if (!(surge_max_multiplier >= 1.0)) {
    return util::Status::InvalidArgument("surge cap must be >= 1");
  }
  if (shared_discount_per_rider < 0.0 || shared_discount_per_rider > 1.0) {
    return util::Status::InvalidArgument(
        "shared discount per rider must be in [0, 1]");
  }
  if (shared_discount_max < 0.0 || !(shared_discount_max < 1.0)) {
    return util::Status::InvalidArgument(
        "shared discount cap must be in [0, 1)");
  }
  return util::Status::Ok();
}

}  // namespace ptrider::core
