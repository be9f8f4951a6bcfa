#ifndef PTRIDER_CORE_PTRIDER_H_
#define PTRIDER_CORE_PTRIDER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/matcher.h"
#include "core/option.h"
#include "pricing/pricing_policy.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph.h"
#include "roadnet/grid_index.h"
#include "vehicle/fleet.h"
#include "vehicle/vehicle_index.h"

namespace ptrider::core {

/// Outcome of a vehicle reaching a scheduled stop.
struct StopEvent {
  vehicle::Stop stop;
  /// Pick-up: actual minus planned pick-up time (>= 0); 0 for drop-offs.
  double waiting_s = 0.0;
  /// Quoted price of the request (reported on both stop kinds).
  double price = 0.0;
  int num_riders = 0;
  /// Drop-offs only: true when the trip shared the vehicle with another
  /// request at some point (the demo's sharing-rate numerator).
  bool shared = false;
  /// Drop-offs only: meters actually driven between pick-up and drop-off.
  double trip_distance_m = 0.0;
  /// Drop-offs only: shortest-path distance dist(s, d) in meters.
  double direct_distance_m = 0.0;
  /// Drop-offs only: the service allowance (1 + sigma) * dist(s, d).
  double allowed_trip_distance_m = 0.0;
};

/// One arrival at a scheduled stop, as ArriveAtStop derives it from the
/// vehicle's kinetic tree alone. The assignment side (`event.shared`,
/// the shared marks) is applied by PTRider: at once in
/// VehicleArrivedAtStop, at the movement commit for the simulator's
/// scratch advance (sim/movement.h, PTRider::CommitAdvancedVehicle).
struct AdvanceStop {
  StopEvent event;
  /// Pick-ups that left >= 2 distinct requests onboard: the ids of every
  /// onboard request at that instant, whose trips become "shared".
  std::vector<vehicle::RequestId> onboard;
};

/// Consumes `v`'s next scheduled stop, reached at `arrival_s`: pops it
/// from the tree and fills every StopEvent field but `shared`, and a
/// shared pick-up's onboard list. The one arrival of the library API
/// and the simulator. FailedPrecondition when the vehicle has no stop or
/// is not at its next one.
util::Result<AdvanceStop> ArriveAtStop(vehicle::Vehicle& v, double arrival_s);

/// The PTRider system facade (Fig. 2): road-network index module, vehicles
/// index module and matching-algorithm module behind one API.
///
/// Lifecycle per request (Section 3.1): (i) SubmitRequest returns all
/// qualified non-dominated options; (ii) the rider picks one; (iii)
/// ChooseOption commits it and updates the indexes. Vehicles report
/// movement via UpdateVehicleLocation and consume scheduled stops via
/// VehicleArrivedAtStop; both keep the index modules current.
class SnapshotView;

class PTRider {
 public:
  /// Builds the system over `graph` (kept by reference; must outlive the
  /// returned object).
  static util::Result<std::unique_ptr<PTRider>> Create(
      const roadnet::RoadNetwork& graph, Config config,
      roadnet::GridIndexOptions grid_options = {});

  /// Builds the system around ALREADY-BUILT indexes — the snapshot path
  /// (snapshot::CreateSystem): `grid` must have been built over `graph`,
  /// and `shared_ch` (optional; consulted only under
  /// sp_algorithm == kContractionHierarchy, rebuilt fresh when null
  /// there) over the same vertex set. Nothing is preprocessed here, so
  /// startup cost is whatever the caller paid — for a memory-mapped
  /// snapshot, effectively zero. The caller keeps the backing memory of
  /// both indexes (and `graph`) alive for the system's lifetime; a
  /// snapshot-loaded grid is a cheap view-copy whose arrays live in the
  /// mapping.
  static util::Result<std::unique_ptr<PTRider>> Create(
      const roadnet::RoadNetwork& graph, Config config,
      roadnet::GridIndex grid,
      std::shared_ptr<const roadnet::CHIndex> shared_ch);

  PTRider(const PTRider&) = delete;
  PTRider& operator=(const PTRider&) = delete;

  // --- Fleet ----------------------------------------------------------------
  /// Places `count` vehicles uniformly at random (Section 4). Fails with
  /// FailedPrecondition when the system already has vehicles.
  util::Status InitFleetUniform(size_t count, uint64_t seed);
  /// Adds one vehicle at `location` with the configured capacity.
  util::Result<vehicle::VehicleId> AddVehicle(roadnet::VertexId location);

  // --- Request lifecycle ------------------------------------------------------
  /// Step (ii): finds all qualified non-dominated options at time `now_s`
  /// using the configured matching algorithm (MatchReadOnly on the
  /// system's own oracle, after the validation, id and demand steps).
  util::Result<MatchResult> SubmitRequest(const vehicle::Request& request,
                                          double now_s);

  /// Quote-only entry point (the service mode's quote endpoint): prices
  /// the request at `now_s` like SubmitRequest would, but records NO
  /// demand signal and commits nothing — a browsing rider is not an
  /// arrival. Still decays the pricing policy's demand state first, so a
  /// lull since the last submission lowers this quote instead of leaking
  /// the last burst's stale surge into it (the same rule SubmitRequest
  /// and the dispatcher's batch entry follow; pinned by
  /// tests/pricing_policy_test.cpp).
  util::Result<MatchResult> QuoteRequest(const vehicle::Request& request,
                                         double now_s);

  /// The state-independent half of SubmitRequest's screening (endpoint,
  /// rider-count and constraint checks). The dispatcher runs it once up
  /// front so invalid requests are reported unassigned without touching
  /// the demand signal — exactly SubmitRequest's behavior.
  util::Status ValidateRequest(const vehicle::Request& request) const;

  /// True while `id` is committed to a vehicle and not yet dropped off.
  bool IsAssigned(vehicle::RequestId id) const {
    return assignments_.count(id) > 0;
  }

  /// The matching step alone, decoupled from the request lifecycle: no
  /// validation, no demand recording, no commitment. Reads fleet, grid
  /// and vehicle-index state but mutates nothing of the system — with a
  /// caller-supplied `oracle` (one per thread; see
  /// roadnet::DistanceOracle::Clone) and `pricing` view (null = the
  /// system's policy), any number of MatchReadOnly calls may run
  /// concurrently, provided no mutating call (ChooseOption, vehicle
  /// updates, ...) overlaps them. This is the parallel match phase of
  /// dispatch::ParallelDispatcher. `effort` (null = the context's
  /// default, i.e. full effort) applies the service ladder's reduced
  /// matching effort to this call only.
  MatchResult MatchReadOnly(const vehicle::Request& request, double now_s,
                            roadnet::DistanceOracle& oracle,
                            const pricing::PricingPolicy* pricing = nullptr,
                            const MatchEffort* effort = nullptr) const;

  /// Step (iii): the rider chose `option`; commits the request to the
  /// option's vehicle and updates the vehicle index.
  util::Status ChooseOption(const vehicle::Request& request,
                            const Option& option, double now_s);

  /// Rider cancellation: removes an assigned, not-yet-picked-up request
  /// from its vehicle's schedules and updates the index. Fails for
  /// unknown requests or riders already in the vehicle.
  util::Status CancelRequest(vehicle::RequestId id);

  // --- Vehicle updates ---------------------------------------------------------
  /// Location update: the vehicle moved `meters_moved` and now stands at
  /// `new_location` (Vehicle::MoveTo), then re-registers in the index.
  /// `executing` is the stop sequence it is driving (empty for idle
  /// cruising).
  util::Status UpdateVehicleLocation(vehicle::VehicleId id,
                                     roadnet::VertexId new_location,
                                     double meters_moved, double now_s,
                                     const std::vector<vehicle::Stop>&
                                         executing);

  /// Pick-up / drop-off update: the vehicle is at its next scheduled stop
  /// (ArriveAtStop, then the assignment side and the index).
  util::Result<StopEvent> VehicleArrivedAtStop(vehicle::VehicleId id,
                                               double now_s);

  /// Movement-commit entry point for the simulator's advance/commit
  /// split (DESIGN.md section 6): installs `advanced` — the vehicle's
  /// scratch copy after a read-only tick advance (MoveTo and ArriveAtStop
  /// applied) — as vehicle `id`'s live state, then applies the
  /// assignment side of its arrivals in order, filling each drop-off's
  /// `event.shared`. Equivalent to the per-event UpdateVehicleLocation /
  /// VehicleArrivedAtStop sequence, because the assignment side never
  /// feeds back into the advance of any vehicle within the same tick.
  /// Must be called for vehicles in ascending id order, one commit per
  /// advanced vehicle. The vehicle index is not touched: the caller
  /// re-registers the vehicle before anything reads the index (the
  /// simulator's end-of-tick pass, DESIGN.md section 10.2).
  util::Status CommitAdvancedVehicle(vehicle::VehicleId id,
                                     vehicle::Vehicle&& advanced,
                                     std::vector<AdvanceStop>& stops);

  // --- Accessors ---------------------------------------------------------------
  const Config& config() const { return config_; }
  const roadnet::RoadNetwork& graph() const { return *graph_; }
  const roadnet::GridIndex& grid() const { return grid_; }
  roadnet::DistanceOracle& oracle() { return oracle_; }
  const roadnet::DistanceOracle& oracle() const { return oracle_; }
  vehicle::Fleet& fleet() { return fleet_; }
  const vehicle::Fleet& fleet() const { return fleet_; }
  vehicle::VehicleIndex& vehicle_index() { return vehicle_index_; }
  const vehicle::VehicleIndex& vehicle_index() const {
    return vehicle_index_;
  }

  void set_matcher(MatcherAlgorithm algorithm) {
    config_.matcher = algorithm;
  }

  /// The fare policy selected by `config().pricing_policy` (quotes and
  /// pruning bounds; fed the demand signal by SubmitRequest).
  const pricing::PricingPolicy& pricing_policy() const { return *pricing_; }
  pricing::PricingPolicy& pricing_policy() { return *pricing_; }

  vehicle::ScheduleContext MakeScheduleContext(double now_s) const {
    return {now_s, config_.speed_mps};
  }

  /// Vehicle currently serving `id`, or kInvalidVehicle.
  vehicle::VehicleId AssignedVehicle(vehicle::RequestId id) const;

  /// The const capability view the parallel dispatcher's match phase
  /// reads through (DESIGN.md section 5.2). Valid only while no mutating
  /// call overlaps — the dispatcher's phase 1 ends before its commits.
  SnapshotView Frozen() const;

 private:
  PTRider(const roadnet::RoadNetwork& graph, Config config,
          roadnet::GridIndex grid,
          std::unique_ptr<pricing::PricingPolicy> pricing,
          std::shared_ptr<const roadnet::CHIndex> shared_ch);

  /// The assignment side of arrival `s`: at a pick-up, marks every
  /// listed onboard request shared; at a drop-off, reports the trip's
  /// shared flag in `s.event` and releases its assignment.
  void ApplyArrival(AdvanceStop& s);

  const roadnet::RoadNetwork* graph_;
  Config config_;
  roadnet::GridIndex grid_;
  roadnet::DistanceOracle oracle_;
  vehicle::Fleet fleet_;
  vehicle::VehicleIndex vehicle_index_;
  std::unique_ptr<pricing::PricingPolicy> pricing_;

  MatchContext match_context_;

  /// Requests currently assigned: id -> vehicle. Also tracks whether the
  /// trip ever shared the vehicle (for the sharing-rate statistic).
  struct Assignment {
    vehicle::VehicleId vehicle;
    bool shared = false;
  };
  std::unordered_map<vehicle::RequestId, Assignment> assignments_;
};

/// A const capability view over the system: exactly what concurrently
/// running matches may read, and nothing they could mutate. The
/// parallel dispatcher's phase 1 (DESIGN.md section 5.2) matches a whole
/// window on worker threads against the frozen pre-batch state; code
/// that holds only a SnapshotView cannot call ChooseOption, vehicle
/// updates or any other mutator by construction, so the frozen-snapshot
/// contract is a compile-time fact rather than a comment. The view
/// borrows the system; the caller keeps it alive and un-mutated for the
/// view's lifetime.
class SnapshotView {
 public:
  explicit SnapshotView(const PTRider& system) : system_(&system) {}

  /// The read-only match (see PTRider::MatchReadOnly): any number of
  /// calls may run concurrently with caller-owned oracles.
  MatchResult MatchReadOnly(const vehicle::Request& request, double now_s,
                            roadnet::DistanceOracle& oracle,
                            const pricing::PricingPolicy* pricing = nullptr,
                            const MatchEffort* effort = nullptr) const {
    return system_->MatchReadOnly(request, now_s, oracle, pricing, effort);
  }

  const Config& config() const { return system_->config(); }
  const roadnet::RoadNetwork& graph() const { return system_->graph(); }
  const roadnet::GridIndex& grid() const { return system_->grid(); }
  const vehicle::Fleet& fleet() const { return system_->fleet(); }

 private:
  const PTRider* system_;
};

inline SnapshotView PTRider::Frozen() const { return SnapshotView(*this); }

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_PTRIDER_H_
