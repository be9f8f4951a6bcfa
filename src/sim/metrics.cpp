#include "sim/metrics.h"

#include <sstream>

#include "util/string_util.h"

namespace ptrider::sim {

std::string SimulationReport::ToString() const {
  std::ostringstream os;
  os << "=== PTRider statistics ===\n";
  os << util::StrFormat("simulated time           %s\n",
                        util::FormatDuration(simulated_seconds).c_str());
  os << util::StrFormat(
      "wall clock               %s (match %s, move %s + %s commit "
      "+ %s reindex)\n",
      util::FormatDuration(wall_clock_seconds).c_str(),
      util::FormatDuration(match_phase_seconds).c_str(),
      util::FormatDuration(move_advance_seconds).c_str(),
      util::FormatDuration(move_commit_seconds).c_str(),
      util::FormatDuration(index_update_seconds).c_str());
  os << util::StrFormat(
      "requests                 %lld submitted, %lld assigned (%.1f%%), "
      "%lld unserved, %lld declined\n",
      static_cast<long long>(requests_submitted),
      static_cast<long long>(requests_assigned), 100.0 * ServiceRate(),
      static_cast<long long>(requests_unserved),
      static_cast<long long>(requests_declined));
  os << util::StrFormat(
      "completed                %lld (%lld shared)\n",
      static_cast<long long>(requests_completed),
      static_cast<long long>(requests_shared));
  os << util::StrFormat("avg response time        %s (p50 %s, p95 %s, p99 %s)\n",
                        util::FormatDuration(AvgResponseTimeS()).c_str(),
                        util::FormatDuration(
                            response_percentiles_s.Value(50)).c_str(),
                        util::FormatDuration(
                            response_percentiles_s.Value(95)).c_str(),
                        util::FormatDuration(
                            response_percentiles_s.Value(99)).c_str());
  os << util::StrFormat("avg sharing rate         %.1f%%\n",
                        100.0 * SharingRate());
  os << util::StrFormat("avg submit delay         %s\n",
                        util::FormatDuration(submit_delay_s.mean()).c_str());
  os << util::StrFormat("avg options/request      %.2f\n",
                        options_per_request.mean());
  os << util::StrFormat("avg anchor settles       %.1f/request\n",
                        anchor_settles.mean());
  os << util::StrFormat("avg pickup wait          %s\n",
                        util::FormatDuration(pickup_wait_s.mean()).c_str());
  os << util::StrFormat("avg detour ratio         %.3f\n",
                        detour_ratio.mean());
  os << util::StrFormat("avg quoted price         %.2f\n",
                        quoted_price.mean());
  if (price_over_floor.count() > 0) {
    os << util::StrFormat("avg price over floor     %.2fx\n",
                          price_over_floor.mean());
  }
  os << util::StrFormat(
      "revenue                  %.2f total (%.2f per completed trip)\n",
      revenue_total, RevenuePerCompletedTrip());
  os << util::StrFormat(
      "fleet distance           %.1f km (occupied %.1f%%, shared %.1f%%)\n",
      fleet_total_distance_m / 1000.0, 100.0 * OccupancyRate(),
      fleet_total_distance_m > 0.0
          ? 100.0 * fleet_shared_distance_m / fleet_total_distance_m
          : 0.0);
  return os.str();
}

}  // namespace ptrider::sim
