#ifndef PTRIDER_SERVICE_DISPATCH_SERVICE_H_
#define PTRIDER_SERVICE_DISPATCH_SERVICE_H_

#include <cstdint>
#include <memory>

#include "core/ptrider.h"
#include "service/admission.h"
#include "service/service_stats.h"
#include "service/workload_driver.h"
#include "sim/choice.h"
#include "util/status.h"

namespace ptrider::service {

class FaultInjector;

/// Knobs of one service run. Defaults give a deterministic virtual-clock
/// server with an unmodeled (zero-cost) matcher — set assign_cost_s to
/// turn on the service-time model that makes overload reproducible.
struct ServiceOptions {
  /// Movement/update granularity, simulated seconds per tick.
  double tick_s = 1.0;
  /// Batch dispatch window, simulated seconds (finite and > 0, meant to
  /// be >= tick_s; the service always runs the batched pipeline).
  double batch_window_s = 2.0;
  /// Extra time after the last arrival for onboard trips to finish
  /// (finite and >= 0).
  double drain_s = 600.0;

  /// Ingestion queue capacity (admission stage 1: reject-on-full).
  size_t queue_capacity = 4096;
  /// Admission stage 2: drop drained requests whose start delay exceeds
  /// this many seconds before matching (finite); 0 disables the hard
  /// deadline.
  double shed_deadline_s = 0.0;
  /// Bounded-retry backpressure for rejected ingestion pushes (default:
  /// no retries — the pre-backpressure drop behavior).
  RetryOptions ingest_retry;

  /// Graceful-degradation ladder between "full effort" and "shed"
  /// (admission.h). Off by default; target_delay_s should sit well below
  /// shed_deadline_s when both are on.
  LadderOptions ladder;
  /// Per-grid-zone fair-share admission (admission.h). Off by default.
  ZoneAdmissionOptions zone_admission;

  /// Optional deterministic fault schedule (fault_injector.h), borrowed,
  /// not owned; null = no injection. Must not be shared across
  /// concurrent runs (its cursors advance).
  FaultInjector* fault_injector = nullptr;

  /// Virtual-clock service-time model (DESIGN.md section 11): modeled
  /// server seconds consumed per dispatched request. With a positive
  /// value the server has finite capacity 1/assign_cost_s req/s and a
  /// sequential backlog: requests drained behind a backlog see it as
  /// start delay, which is what the deadline shedder and the latency
  /// percentiles measure. 0 models an infinitely fast matcher (delay is
  /// pure window queueing). Finite and >= 0. Ignored in wall-clock mode,
  /// where real time is measured instead.
  double assign_cost_s = 0.0;
  /// Modeled seconds from processing start to quote availability
  /// (<= assign_cost_s in spirit; independent knob; finite and >= 0).
  /// Virtual mode only.
  double quote_cost_s = 0.0;

  /// True (default): virtual time, arrivals pumped inline each tick,
  /// bit-reproducible reports. False: real (scaled) wall clock with a
  /// producer thread — a live server, measurement only.
  bool virtual_clock = true;
  /// Wall-clock mode: simulation seconds per wall second (60 compresses
  /// an hour of load into a minute); finite and > 0.
  double wall_time_scale = 1.0;

  /// Threads for the per-tick vehicle-movement advance phase.
  int move_jobs = 1;
  /// Rider choice model + its seed (same semantics as SimulatorOptions).
  sim::ChoiceContext choice;
  uint64_t seed = 7;
  /// Emit progress lines every simulated hour.
  bool verbose = false;
};

/// The long-running dispatch server: drains an open-loop ingestion
/// queue into the batched dispatch pipeline the Simulator already runs
/// (batch window -> the simulator's one dispatch::ParallelDispatcher on
/// Config::dispatch_threads threads -> kinetic-tree matcher over the
/// oracle Config::sp_algorithm selects), with two-stage admission
/// control, the degradation ladder
/// (its rung set on that dispatcher before every batch) and SLO latency
/// accounting.
///
///   ArrivalProcess -> WorkloadDriver -> BoundedMpscQueue
///       -> [admission] -> batch window -> dispatcher -> fleet movement
///
/// Both step Simulator::Run's sim::TickClock; the difference is where
/// requests come from: Run walks a pre-sorted trip vector at whatever
/// pace matching allows (closed loop), while the service's arrivals land
/// on their own schedule and queue up when the server falls behind (open
/// loop) — which is what makes overload, admission control, and latency
/// SLOs observable at all. See DESIGN.md section 11.
class DispatchService {
 public:
  DispatchService(core::PTRider& system, ServiceOptions options);
  ~DispatchService();

  /// Runs the full life of the service against `process`: ingests every
  /// arrival, drains to exhaustion plus drain_s, returns the combined
  /// report. InvalidArgument for an option outside its documented range.
  /// One call per instance.
  util::Result<ServiceReport> Run(ArrivalProcess& process);

  /// Quote-only endpoint: prices a trip against the live fleet without
  /// committing anything (core::PTRider::QuoteRequest — decays the
  /// pricing clock to now_s, records no demand). Serves "what would this
  /// ride cost now?" probes between batch windows.
  util::Result<core::MatchResult> Quote(const sim::Trip& trip, double now_s);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ptrider::service

#endif  // PTRIDER_SERVICE_DISPATCH_SERVICE_H_
