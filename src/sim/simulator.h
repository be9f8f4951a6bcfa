#ifndef PTRIDER_SIM_SIMULATOR_H_
#define PTRIDER_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch.h"
#include "core/ptrider.h"
#include "dispatch/parallel_dispatcher.h"
#include "dispatch/worker_pool.h"
#include "sim/choice.h"
#include "sim/metrics.h"
#include "sim/movement.h"
#include "sim/trip.h"
#include "util/random.h"

namespace ptrider::sim {

struct SimulatorOptions {
  /// Movement/update granularity, simulated seconds per tick.
  double tick_s = 1.0;
  /// Hard end time; 0 derives it from the last trip plus `drain_s`.
  double end_time_s = 0.0;
  /// Extra time after the last request for onboard trips to finish.
  double drain_s = 1800.0;
  ChoiceContext choice;
  /// Drives idle cruising and the random choice model.
  uint64_t seed = 7;
  /// Idle vehicles cruise randomly (Section 4: "follow the current road
  /// segment, choosing a random segment at intersections") instead of
  /// parking.
  bool idle_cruising = true;
  /// Emit progress lines every simulated hour (kInfo log level).
  bool verbose = false;
  /// Dispatch window, simulated seconds: due trips accumulate and go
  /// together through the batch dispatcher (dispatch::ParallelDispatcher
  /// on Config::dispatch_threads threads) at every multiple of it. 0
  /// closes a window at every tick. The last tick of a run always closes
  /// one, so every due trip is dispatched before the run's last movement.
  double batch_window_s = 0.0;
  /// Threads for the per-tick vehicle-movement advance phase (the
  /// calling thread included; values below 1 count as 1, values above
  /// core::kMaxThreads make Run and BeginStepping fail before any pool
  /// exists). The advance walks each
  /// serving event's tick (a vehicle with a schedule that does more
  /// than pass through its current edge) in place, each vehicle on one
  /// worker with its per-thread DistanceOracle clone, fanning out only
  /// for ticks with enough such events; a sequential commit applies the
  /// rest in vehicle-id order, so the SimulationReport is item-for-item
  /// identical at every setting (DESIGN.md section 6) — threads only buy
  /// movement latency at large fleet counts.
  int move_jobs = 1;
  /// Not an option: the tick engine has one stage order. The constant
  /// remains because bench/ptrider_bench prints it among its knobs.
  static constexpr int pipeline_depth = 1;
};

/// The tick and window grid of Simulator::Run and DispatchService::Run
/// (DESIGN.md section 6.4). Tick k ends at min(k * tick_s, end_time_s),
/// so times never drift and the last tick lands on the end time. A tick
/// closes a window when the window is 0, at the first tick at or past
/// each multiple of the window, and always at the last tick.
class TickClock {
 public:
  /// A clock before its first tick (0 ticks for an end at or before 0).
  /// InvalidArgument when the tick count is not finite or exceeds 2^53,
  /// past which `k * tick_s` is no longer exact. The caller validates
  /// tick_s (finite, > 0) and window_s (finite, >= 0).
  static util::Result<TickClock> Make(double end_time_s, double tick_s,
                                      double window_s);

  /// Steps to the next tick; false once the last tick has passed.
  bool Next();
  /// The current tick's start and end instants (0 before the first).
  double prev() const { return prev_; }
  double now() const { return now_; }
  /// Whether the current tick closes a window, and is the last tick.
  bool closes_window() const { return closes_window_; }
  bool last() const { return tick_ == ticks_; }

 private:
  TickClock() = default;

  double end_time_s_ = 0.0;
  double tick_s_ = 0.0;
  double window_s_ = 0.0;
  int64_t ticks_ = 0;
  int64_t tick_ = 0;
  int64_t next_window_ = 1;
  double prev_ = 0.0;
  double now_ = 0.0;
  bool closes_window_ = false;
};

/// Event-driven city simulation (Section 4's demonstration): feeds a trip
/// trace through a PTRider instance while vehicles move at the constant
/// configured speed, serving their kinetic-tree schedules or cruising.
class Simulator {
 public:
  Simulator(core::PTRider& system, SimulatorOptions options);

  /// Runs `trips` (must be sorted by time) to completion and returns the
  /// aggregated statistics: BeginStepping, then one StepWindow per
  /// window-closing tick of a TickClock and one AdvanceTick per other.
  util::Result<SimulationReport> Run(const std::vector<Trip>& trips);

  // --- Stepping --------------------------------------------------------------
  // Run drives these steps over a pre-sorted trip vector. The long-running
  // dispatch service (src/service/dispatch_service.*) drives them too, on
  // the same TickClock, but its requests arrive through an ingestion
  // queue on their own open-loop schedule (DESIGN.md section 11). Every
  // driver runs one stage order: dispatch the window, then list, advance,
  // commit and reindex the tick.

  /// Prepares stepping: validates the clock options (tick_s finite and
  /// > 0; batch_window_s, end_time_s and drain_s finite and >= 0),
  /// move_jobs and the fleet, resets motion state and creates the
  /// dispatcher and the movement pool unless they exist already. Call
  /// once before MakeRequest / StepWindow / AdvanceTick.
  util::Status BeginStepping();
  /// The trip-to-request conversion of every submission path. Stamps the
  /// trip's true arrival instant as submit_time_s, never the processing
  /// tick, and issues ids in call order (which is what makes
  /// queue-ingestion order the paper's (submit_time, id) dispatch order).
  vehicle::Request MakeRequest(const Trip& t);
  /// One movement tick from `prev` to `now` (fleet budget pro-rated to
  /// the interval, exactly like Run's tick loop): the pass-through
  /// listing, the serving events' advance (on the movement pool when
  /// there are enough of them), a sequential commit in vehicle-id order
  /// that folds arrival events into `report` and runs idle events
  /// through the RNG (DESIGN.md section 6.1), then one end-of-tick
  /// re-registration of every vehicle that moved, in vehicle-id order
  /// (DESIGN.md section 10).
  util::Status AdvanceTick(double prev, double now,
                           SimulationReport& report);
  /// One window boundary: DispatchBatch at `now` (timed into
  /// match_phase_seconds), then AdvanceTick from `prev` to `now`. Returns
  /// the per-request items (processing order) so the caller can stamp
  /// per-request service latencies.
  util::Result<std::vector<core::BatchItem>> StepWindow(
      std::vector<vehicle::Request> batch, double prev, double now,
      SimulationReport& report);
  /// Does nothing and returns Ok: every step finishes its work before it
  /// returns. Kept because bench/ptrider_bench still calls it after its
  /// last step.
  util::Status FinishStepping(SimulationReport& report);
  /// The batch dispatcher BeginStepping created (null before): the
  /// service installs its quote-latency MatchObserver and sets its ladder
  /// rung here.
  dispatch::ParallelDispatcher* dispatcher() { return dispatcher_.get(); }

 private:
  /// Dispatches `batch` at `now` through dispatcher() and folds every
  /// outcome into `report`. Fails with FailedPrecondition, even for an
  /// empty batch, before BeginStepping created the dispatcher.
  util::Result<std::vector<core::BatchItem>> DispatchBatch(
      std::vector<vehicle::Request> batch, double now,
      SimulationReport& report);
  /// The rider tap: builds the ChoiceContext (floor priced from the
  /// match's direct distance) and returns the chosen option index, or
  /// nullopt on decline / no options. Consumes rng_ — call once per
  /// request, in order.
  std::optional<size_t> PickOption(const vehicle::Request& request,
                                   const core::MatchResult& match,
                                   double now);
  /// Folds one matched request's outcome into `report` and re-targets
  /// the assigned vehicle. DispatchBatch calls it once the whole batch
  /// has committed, so motion is replanned against the final trees.
  /// `chosen` is null unless the rider accepted an option.
  util::Status RecordOutcome(const vehicle::Request& request,
                             const core::MatchResult& match,
                             const core::Option* chosen, double now,
                             SimulationReport& report);
  // --- AdvanceTick's stages, in order -------------------------------------
  /// The pass-through check over the whole fleet, in id order: fills
  /// events_ (every vehicle that does not pass through) and
  /// serving_events_ (those of them with a schedule). Pass-through
  /// vehicles take their step here, so this one pass is all the tick
  /// spends on them.
  void ListEvents(double budget, SimulationReport& report);
  /// Advances every serving event's live vehicle and motion in place,
  /// filling advances_ (slot k for serving_events_[k]), on move_pool_
  /// when there are at least kParallelAdvanceMin serving events. Each
  /// worker writes only its own events' vehicles and motions.
  void RunAdvance(double now, double budget, SimulationReport& report);
  /// Sequential vehicle-id-order commit of events_: the assignment side
  /// of serving events' arrivals (PTRider::ApplyArrival) and idle walks
  /// (the only rng_ consumers), folding arrival events into `report` and
  /// recording moved_.
  util::Status CommitMove(double now, double budget,
                          SimulationReport& report);
  /// Re-registers every moved_ vehicle once, in vehicle-id order.
  void Reindex(SimulationReport& report);
  /// The idle-cruising walk of one vehicle's tick remainder, resumed at
  /// `budget` / `hops`: draws cruise segments from rng_, steps along
  /// them (StepEdge) and moves the live vehicle at every vertex crossing
  /// (Vehicle::MoveTo), marking it moved. Oracle-free (the tree is
  /// empty), so keeping it sequential costs no parallelism — and keeps
  /// rng_ consumption in vehicle-id order at every move_jobs setting.
  util::Status MoveIdleVehicle(vehicle::VehicleId id, double now,
                               double budget, int hops);
  /// Records that `id` changed state this tick. Commits run in id order,
  /// so moved_ stays ascending and a repeat is always its last entry.
  void MarkMoved(vehicle::VehicleId id) {
    if (moved_.empty() || moved_.back() != id) moved_.push_back(id);
  }

  core::PTRider* system_;
  SimulatorOptions options_;
  util::Rng rng_;
  std::vector<Motion> motions_;
  vehicle::RequestId next_request_id_ = 1;
  /// The batch dispatcher (created by BeginStepping, with
  /// Config::dispatch_threads threads).
  std::unique_ptr<dispatch::ParallelDispatcher> dispatcher_;
  /// move_jobs > 1 only: the movement advance pool (per-thread oracle
  /// clones persist across ticks, created by BeginStepping).
  std::unique_ptr<dispatch::WorkerPool> move_pool_;
  /// This tick's advance outcomes, one per serving event, in
  /// serving_events_ order (the vector's capacity persists across ticks).
  std::vector<MovementOutcome> advances_;
  /// This tick's events and, among them, its serving events, ascending
  /// (ListEvents output).
  std::vector<vehicle::VehicleId> events_;
  std::vector<vehicle::VehicleId> serving_events_;
  /// Per-tick movement-commit scratch: which vehicles changed state this
  /// tick (commit or idle walk), ascending; Reindex re-registers them.
  std::vector<vehicle::VehicleId> moved_;
};

}  // namespace ptrider::sim

#endif  // PTRIDER_SIM_SIMULATOR_H_
