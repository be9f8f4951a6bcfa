#ifndef PTRIDER_SIM_SIMULATOR_H_
#define PTRIDER_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/batch.h"
#include "core/ptrider.h"
#include "dispatch/pipeline.h"
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
  /// Batched arrivals: > 0 accumulates due trips and dispatches them
  /// together every `batch_window_s` simulated seconds through the
  /// Config::dispatch_threads-selected dispatcher (src/dispatch/) — the
  /// production serving shape, and what lets multi-core matching engage.
  /// 0 keeps the seed behavior: every request is matched alone in the
  /// tick it arrives.
  double batch_window_s = 0.0;
  /// Threads for the per-tick vehicle-movement advance phase (the
  /// calling thread included; clamped to >= 1). The advance walks each
  /// serving event's tick (a vehicle with a schedule that does more
  /// than pass through its current edge) against the frozen pre-tick
  /// state on per-thread DistanceOracle clones, fanning out only for
  /// ticks with enough such events; a sequential commit applies the
  /// results in vehicle-id order, so the SimulationReport is
  /// item-for-item identical at every setting (DESIGN.md section 6) —
  /// threads only buy movement latency at large fleet counts.
  int move_jobs = 1;
  /// Stage-pipelining depth of the batched tick engine (DESIGN.md
  /// section 15). 1 = the strictly sequential loop (the reference: same
  /// code path, byte-identical behavior). 2 overlaps each window's
  /// read-only sharded match with the boundary tick's movement advance
  /// on a dispatch::PipelineExecutor stage thread. >= 3 additionally
  /// floats end-of-tick index re-registration batches onto a stage
  /// thread, overlapping subsequent ticks until an index reader joins
  /// them — batches touching disjoint index shards stay concurrently in
  /// flight. Reports are bit-identical across depths at every
  /// dispatch_threads x index_shards x move_jobs x seed setting
  /// (tests/sim_pipeline_test.cpp); depth only buys wall clock. Treated
  /// as 1 in per-request mode (batch_window_s == 0), which matches each
  /// request against live state and leaves nothing to overlap.
  int pipeline_depth = 1;
};

/// The batched tick loop decomposed into its schedulable stages, in the
/// depth-1 (sequential reference) execution order. StepWindow and
/// AdvanceTick are the only drivers of these stages; the stage-order
/// lint rule (tools/ptrider_lint.cpp) keeps it that way.
enum class Stage {
  kCollect,      ///< due-trip ingestion into the pending window
  kMatch,        ///< the dispatcher's (possibly sharded) read-only match
  kCommitMatch,  ///< sequential option commit + rider choice + outcome fold
  kAdvance,      ///< per-vehicle movement advance against the frozen tick
  kCommitMove,   ///< sequential movement commit + idle cruising
  kReindex,      ///< shard-concurrent vehicle-index re-registration
};

/// One window's stage schedule, as planned by the pipeline driver:
/// which stages run on a PipelineExecutor stage thread instead of
/// inline, as a pure function of the configured depth and the
/// dispatcher's staged() capability. Exposed mostly for tests and
/// benches to assert the engine is doing what the depth asks.
struct StagePlan {
  /// kMatch launches onto a stage thread, overlapping kAdvance.
  bool overlap_match = false;
  /// kReindex floats onto a stage thread, overlapping later ticks.
  bool float_reindex = false;

  static StagePlan For(int pipeline_depth, bool staged_dispatcher) {
    StagePlan plan;
    plan.overlap_match = pipeline_depth >= 2 && staged_dispatcher;
    plan.float_reindex = pipeline_depth >= 3;
    return plan;
  }
};

/// Event-driven city simulation (Section 4's demonstration): feeds a trip
/// trace through a PTRider instance while vehicles move at the constant
/// configured speed, serving their kinetic-tree schedules or cruising.
class Simulator {
 public:
  Simulator(core::PTRider& system, SimulatorOptions options);

  /// Runs `trips` (must be sorted by time) to completion and returns the
  /// aggregated statistics.
  util::Result<SimulationReport> Run(const std::vector<Trip>& trips);

  // --- Service-mode stepping (src/service/dispatch_service.*) -------------
  // The long-running dispatch service drives the same tick machinery Run
  // does, but its requests arrive through an ingestion queue on their own
  // open-loop schedule instead of from a pre-sorted trip vector — so it
  // owns the outer clock loop and calls these three steps itself
  // (DESIGN.md section 11).

  /// Prepares stepping: validates options and fleet, resets motion state
  /// and creates the dispatcher / movement pool Run would create. Call
  /// once before MakeRequest / DispatchBatch / AdvanceTick.
  util::Status BeginStepping();
  /// The shared trip-to-request conversion for external submission
  /// paths: arrival-instant stamping as in Run, ids issued in call
  /// order (which is what makes queue-ingestion order the paper's
  /// (submit_time, id) dispatch order).
  vehicle::Request MakeRequest(const Trip& t) { return BuildRequest(t); }
  /// Dispatches `batch` at `now` through the configured dispatcher and
  /// folds every outcome into `report` exactly like one of Run's batch
  /// windows; returns the per-request items (processing order) so the
  /// caller can stamp per-request service latencies. `dispatcher` (null
  /// = the configured one) routes the batch through a caller-owned
  /// strategy instead — the service's degradation ladder dispatches
  /// degraded windows through its own thread-count-invariant dispatcher
  /// while rng/report accounting stays identical.
  util::Result<std::vector<core::BatchItem>> DispatchBatch(
      std::vector<vehicle::Request> batch, double now,
      SimulationReport& report, core::Dispatcher* dispatcher = nullptr);
  /// One movement tick from `prev` to `now` (fleet budget pro-rated to
  /// the interval, exactly like Run's tick loop). At pipeline depth >= 3
  /// the tick's index re-registration batch floats onto a stage thread
  /// (joined before the next index reader) instead of applying inline.
  util::Status AdvanceTick(double prev, double now,
                           SimulationReport& report);
  /// One window boundary: dispatches `batch` at `now` AND runs the
  /// boundary movement tick from `prev`, per the configured
  /// StagePlan — at depth >= 2 with a staged dispatcher the window's
  /// read-only match runs on a stage thread concurrently with the
  /// tick's movement advance, then commit, movement commit and reindex
  /// follow in the depth-1 order (assigned vehicles' advances are
  /// recomputed so the commit sees exactly what dispatch-then-move
  /// would have; DESIGN.md section 15). Reports and returned items are
  /// bit-identical to the depth-1 sequence "DispatchBatch; AdvanceTick".
  /// `route` as in DispatchBatch.
  util::Result<std::vector<core::BatchItem>> StepWindow(
      std::vector<vehicle::Request> batch, double prev, double now,
      SimulationReport& report, core::Dispatcher* route = nullptr);
  /// Joins every in-flight pipeline stage and folds their wall clock
  /// into `report`. Call once after the last StepWindow / AdvanceTick
  /// (Run does this itself); without it, floated reindex seconds are
  /// missing from the report and index state may still be in flight.
  util::Status FinishStepping(SimulationReport& report);
  /// The stage schedule the current options + dispatcher produce.
  StagePlan plan() const {
    return StagePlan::For(
        options_.pipeline_depth,
        dispatcher_ != nullptr && dispatcher_->staged() != nullptr);
  }
  /// The dispatcher BeginStepping created (null before); the service
  /// installs its quote-latency MatchObserver here.
  core::Dispatcher* dispatcher() { return dispatcher_.get(); }

 private:
  /// The shared trip-to-request conversion of both submission paths.
  /// Stamps the trip's true arrival instant as submit_time_s — never the
  /// processing tick — so wait/response accounting agrees across
  /// per-request and batched modes.
  vehicle::Request BuildRequest(const Trip& t);
  util::Status SubmitDueRequests(const std::vector<Trip>& trips,
                                 size_t& next_trip, double now,
                                 SimulationReport& report);
  /// Batched mode: moves due trips into `pending_` as requests. Errors
  /// on invalid trips, exactly like the per-request path does.
  util::Status CollectDueRequests(const std::vector<Trip>& trips,
                                  size_t& next_trip, double now);
  /// The rider tap, shared by both submission paths: builds the
  /// ChoiceContext (floor priced from the match's direct distance) and
  /// returns the chosen option index, or nullopt on decline / no
  /// options. Consumes rng_ — call once per request, in order.
  std::optional<size_t> PickOption(const vehicle::Request& request,
                                   const core::MatchResult& match,
                                   double now);
  /// Batched mode: dispatches `pending_` at time `now` and folds the
  /// BatchItems into `report`.
  util::Status DispatchPending(double now, SimulationReport& report);
  /// Folds one matched request's outcome into `report` (both submission
  /// paths share this accounting) and re-targets the assigned vehicle.
  /// `chosen` is null unless the rider accepted an option.
  util::Status RecordOutcome(const vehicle::Request& request,
                             const core::MatchResult& match,
                             const core::Option* chosen, double now,
                             SimulationReport& report);
  /// One tick of fleet movement (`budget` meters per vehicle). Vehicles
  /// that stay inside their current edge only take that step; the rest
  /// are events: serving events advance over the frozen tick (on the
  /// pool when there are enough of them), then a sequential commit in
  /// vehicle-id order installs their scratch state, folds arrival events
  /// into `report` and runs idle events through the RNG (DESIGN.md
  /// section 6.1). Index re-registrations are deferred out of the commit
  /// loop: every vehicle that moved is re-registered once at the end of
  /// the tick, in vehicle-id order per shard, shard-concurrently when
  /// move_jobs > 1 (DESIGN.md section 10).
  util::Status MovePhase(double now, double budget,
                         SimulationReport& report);
  // --- MovePhase decomposed into pipeline stages ---------------------------
  // MovePhase is exactly ListEvents (stepping) + RunAdvance +
  // CommitMove + PrepareReindex + ApplyReindexNow, in that order — the
  // depth-1 composition. The pipelined driver re-assembles the same
  // stages around overlapped work instead.
  /// The pass-through check over the whole fleet, in id order: fills
  /// events_ (every vehicle that does not pass through) and
  /// serving_events_ (those of them with a schedule). With `step`,
  /// pass-through vehicles take their step here, so this one pass is
  /// all the tick spends on them; that is valid only when the commit
  /// follows with no state change in between (after a commit error,
  /// vehicles past the failure have still taken their step). The
  /// overlapped window lists without stepping (read-only, beside its
  /// match) and lists again, stepping, after the match commit.
  void ListEvents(double budget, bool step, SimulationReport& report);
  /// Stage kAdvance: fills the advances_ slots of serving_events_
  /// against the frozen tick, on move_pool_ when there are at least
  /// kParallelAdvanceMin of them. Reads fleet/graph/motions_ only — safe
  /// concurrently with a read-only match stage.
  void RunAdvance(double now, double budget, SimulationReport& report);
  /// Stage kCommitMove: sequential vehicle-id-order commit of events_:
  /// serving events' advances_ and idle walks (the only rng_
  /// consumers), folding arrival events into `report` and recording
  /// moved_.
  util::Status CommitMove(double now, double budget,
                          SimulationReport& report);
  /// Recomputes advances_ slots of this window's assigned vehicles that
  /// do not pass through: their schedules/motions changed in the match
  /// commit AFTER the overlapped advance ran, and the depth-1 order
  /// computes advances post-commit. AdvanceVehicle is a pure per-vehicle
  /// function, so redoing exactly these slots restores bit-identity.
  void RedoAdvance(double now, double budget,
                   const std::vector<core::BatchItem>& items,
                   SimulationReport& report);
  /// Builds pending_reindex_ (one end-of-tick registration per moved_
  /// vehicle, vehicle-id order) for stage kReindex.
  void PrepareReindex(SimulationReport& report);
  /// Applies pending_reindex_ inline (the depth < 3 / sequential path).
  void ApplyReindexNow(SimulationReport& report);
  /// Depth >= 3: floats pending_reindex_ onto a stage thread. The batch
  /// is first masked (dispatch::ReindexShardMask over new cells, OR'd
  /// with each vehicle's tracked previous-registration mask so removal
  /// shards are covered); a mask conflict with still-in-flight batches
  /// joins them first, so concurrently floating batches always commit
  /// disjoint shards — checkable via VehicleIndex's ownership tokens.
  void FloatReindex(SimulationReport& report);
  /// Joins every floated reindex batch (and any other in-flight stage),
  /// folding stage wall clock into the report. Must run before anything
  /// reads or synchronously writes the index.
  void JoinReindex(SimulationReport& report);
  /// Rebuilds reindex_mask_ from the quiescent index (initially and
  /// after a shard rebalance moved the cell->shard boundaries).
  void RefreshMasks();
  /// Re-syncs assigned vehicles' tracked registration masks after a
  /// dispatch commit re-registered them outside the float path.
  void SyncAssignedMasks(const std::vector<core::BatchItem>& items);
  /// True when this run floats reindex batches (depth >= 3, pipelined).
  bool FloatingReindex() const {
    return pipeline_ != nullptr && options_.pipeline_depth >= 3;
  }
  /// Creates pipeline_ per options_.pipeline_depth (no-op at depth 1).
  void EnsurePipeline();
  /// The idle-cruising walk of one vehicle's tick remainder, resumed at
  /// `budget` / `hops`: draws cruise segments from rng_ and flushes
  /// vertex crossings through the live system. Oracle-free (the tree is
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
  /// Batched mode only: strategy per Config::dispatch_threads (created
  /// lazily in Run) and the requests awaiting the next window flush.
  std::unique_ptr<core::Dispatcher> dispatcher_;
  std::vector<vehicle::Request> pending_;
  /// move_jobs > 1 only: the movement advance pool (per-thread oracle
  /// clones persist across ticks, created lazily in Run).
  std::unique_ptr<dispatch::WorkerPool> move_pool_;
  /// Per-tick advance results (the outer n-slot vector persists across
  /// ticks; only this tick's serving events' slots are rebuilt, and only
  /// theirs are read by the commit).
  std::vector<MovementOutcome> advances_;
  /// This tick's events and, among them, its serving events, ascending
  /// (ListEvents output).
  std::vector<vehicle::VehicleId> events_;
  std::vector<vehicle::VehicleId> serving_events_;
  /// Per-tick movement-commit scratch: which vehicles changed state this
  /// tick (commit or idle walk), ascending, and their end-of-tick
  /// registrations, applied via dispatch::ApplyReindex after the commit
  /// loop.
  std::vector<vehicle::VehicleId> moved_;
  std::vector<vehicle::PendingUpdate> pending_reindex_;

  // --- Pipelined tick engine (pipeline_depth > 1, batched mode) ------------
  /// Stage threads for the overlapped match and floated reindex batches
  /// (created lazily; null at depth 1 — the sequential code path runs
  /// untouched). Cross-stage synchronization lives behind the
  /// executor's annotated mutex (dispatch/pipeline.h).
  std::unique_ptr<dispatch::PipelineExecutor> pipeline_;
  /// One floated (in-flight or joined-pending) reindex batch. `seconds`
  /// is written by the stage thread before the executor's join makes it
  /// visible to the driver.
  struct FloatedReindex {
    std::vector<vehicle::PendingUpdate> batch;
    uint64_t shard_mask = 0;
    double seconds = 0.0;
  };
  /// In-flight floated batches, launch order. A deque so entries keep
  /// stable addresses for the stage lambdas holding them.
  std::deque<FloatedReindex> floated_;
  /// Union of in-flight batches' shard masks; a new batch conflicting
  /// with it joins everything before floating.
  uint64_t inflight_shard_mask_ = 0;
  /// Per-vehicle mask of the shards holding the vehicle's CURRENT
  /// registration — the shards its next update must also touch (entry
  /// removal). Maintained driver-side so float-time masking never reads
  /// the possibly-in-flight index.
  std::vector<uint64_t> reindex_mask_;
  bool masks_valid_ = false;
  /// VehicleIndex::rebalance_count() at the last mask refresh; a bump
  /// means the cell->shard map moved and every mask is stale.
  uint64_t seen_rebalances_ = 0;
};

}  // namespace ptrider::sim

#endif  // PTRIDER_SIM_SIMULATOR_H_
