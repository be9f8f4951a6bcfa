#ifndef PTRIDER_SIM_METRICS_H_
#define PTRIDER_SIM_METRICS_H_

#include <cstdint>
#include <string>

#include "util/stats.h"

namespace ptrider::sim {

/// Aggregated outcome of a simulation run: everything the demo's website
/// statistics panel shows (current time, average response time, average
/// sharing rate) plus the supporting detail the paper's evaluation
/// discusses.
struct SimulationReport {
  // --- Demand ---------------------------------------------------------------
  int64_t requests_submitted = 0;
  /// Requests for which at least one option was returned and chosen.
  int64_t requests_assigned = 0;
  /// Requests with an empty option set (no qualified vehicle).
  int64_t requests_unserved = 0;
  /// Requests whose rider rejected every offered option on price
  /// (acceptance screening; 0 unless ChoiceContext enables it).
  int64_t requests_declined = 0;
  /// Riders dropped at their destination by simulation end.
  int64_t requests_completed = 0;
  /// Of the completed, how many shared the vehicle at some point.
  int64_t requests_shared = 0;

  // --- Matching -------------------------------------------------------------
  util::RunningStats response_time_s;   // matcher wall-clock per request
  util::Percentiles response_percentiles_s;
  /// Simulated seconds between a trip's arrival (Request::submit_time_s)
  /// and the instant it was matched: tick rounding plus window queueing.
  util::RunningStats submit_delay_s;
  util::RunningStats options_per_request;
  util::RunningStats vehicles_examined;
  util::RunningStats distance_computations;
  /// Vertices the request-anchor searches settled per match
  /// (MatchResult::anchor_settles). Exact at every dispatch thread count
  /// while each batch fits the dispatcher's anchor budget: a batch
  /// position's searches resume the ones its previous request left
  /// (DESIGN.md section 7.5). Runs of one input at different windows
  /// can differ here with identical outcomes.
  util::RunningStats anchor_settles;

  // --- Service quality --------------------------------------------------------
  util::RunningStats pickup_wait_s;   // actual minus planned at pick-up
  util::RunningStats detour_ratio;    // actual trip / direct distance
  util::RunningStats quoted_price;
  /// Quoted fare over the request's fare floor (policy MinPrice); 1.0
  /// means the rider paid the theoretical minimum.
  util::RunningStats price_over_floor;
  /// Meters a completed trip ran over its (1+sigma)*direct allowance.
  /// Bounded by the movement granularity (redirects happen at vertices,
  /// while schedules are validated from the root vertex): at most a
  /// couple of edge lengths, never unbounded.
  util::RunningStats trip_overrun_m;

  // --- Revenue (pricing-policy outcome) ---------------------------------------
  /// Sum of fares of completed trips (what the operator actually banks).
  double revenue_total = 0.0;

  // --- Fleet ------------------------------------------------------------------
  double fleet_total_distance_m = 0.0;
  double fleet_occupied_distance_m = 0.0;
  double fleet_shared_distance_m = 0.0;

  double simulated_seconds = 0.0;
  double wall_clock_seconds = 0.0;

  // --- Phase split (wall clock; like wall_clock_seconds, excluded from
  // determinism comparisons) --------------------------------------------------
  // The phases run one after another, so they partition the loop.
  /// Request submission / batch dispatch, cumulative.
  double match_phase_seconds = 0.0;
  /// Vehicle-movement advance: the pass-through listing (which also
  /// steps pass-through vehicles) and the serving events' advance (the
  /// SimulatorOptions::move_jobs-parallel part), cumulative.
  double move_advance_seconds = 0.0;
  /// Vehicle-movement commit + idle cruising (sequential), cumulative.
  double move_commit_seconds = 0.0;
  /// End-of-tick vehicle-index re-registration of the tick's moved
  /// vehicles (DESIGN.md section 10), cumulative.
  double index_update_seconds = 0.0;
  /// Always 0: no stage overlaps another. The constant remains because
  /// bench/ptrider_bench reads it.
  static constexpr double pipeline_stall_seconds = 0.0;

  /// Demo statistic: completed-and-shared / completed.
  double SharingRate() const {
    return requests_completed > 0
               ? static_cast<double>(requests_shared) /
                     static_cast<double>(requests_completed)
               : 0.0;
  }
  /// Demo statistic: mean matcher latency, seconds.
  double AvgResponseTimeS() const { return response_time_s.mean(); }
  double ServiceRate() const {
    return requests_submitted > 0
               ? static_cast<double>(requests_assigned) /
                     static_cast<double>(requests_submitted)
               : 0.0;
  }
  /// Riders who saw options but walked away on price.
  double DeclineRate() const {
    const int64_t offered = requests_assigned + requests_declined;
    return offered > 0
               ? static_cast<double>(requests_declined) /
                     static_cast<double>(offered)
               : 0.0;
  }
  /// Banked fare per completed trip.
  double RevenuePerCompletedTrip() const {
    return requests_completed > 0
               ? revenue_total / static_cast<double>(requests_completed)
               : 0.0;
  }
  double OccupancyRate() const {
    return fleet_total_distance_m > 0.0
               ? fleet_occupied_distance_m / fleet_total_distance_m
               : 0.0;
  }

  /// Multi-line human-readable rendering (the statistics panel).
  std::string ToString() const;
};

}  // namespace ptrider::sim

#endif  // PTRIDER_SIM_METRICS_H_
