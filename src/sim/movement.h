#ifndef PTRIDER_SIM_MOVEMENT_H_
#define PTRIDER_SIM_MOVEMENT_H_

#include <vector>

#include "core/ptrider.h"
#include "roadnet/distance_oracle.h"
#include "util/status.h"
#include "vehicle/stop.h"
#include "vehicle/vehicle.h"

namespace ptrider::sim {

/// Per-vehicle motion state between vertices (owned by the Simulator,
/// advanced tick by tick alongside the vehicle's kinetic tree).
struct Motion {
  /// Remaining path; path[next] is the vertex being approached.
  std::vector<roadnet::VertexId> path;
  size_t next = 0;
  double edge_progress_m = 0.0;
  /// Length of the edge path[next-1] -> path[next], cached as
  /// RoadNetwork::EdgeWeight(from, to) (the minimum over parallel edges)
  /// when the vehicle enters it; valid while edge_progress_m != 0.
  double edge_len_m = 0.0;
  double meters_since_update = 0.0;
  /// Stop the current path leads to; re-planned when the tree's best
  /// branch changes.
  vehicle::Stop target;
  bool has_target = false;
};

/// True when `budget` meters keep the vehicle strictly inside the edge it
/// is already driving: it is mid-edge, a vertex lies ahead, and the
/// budget ends short of it. Such a tick is exactly the first iteration
/// of AdvanceVehicle's and the idle walk's loops, a StepEdge ending in
/// DriveAlongEdge — no vertex reached, no stop, no tree walk, no RNG
/// draw — so the simulator applies that step alone. Every other vehicle
/// is an *event* and takes the full per-vehicle path (DESIGN.md
/// section 6.1).
inline bool PassesThrough(const Motion& m, double budget) {
  return budget > 1e-9 && m.edge_progress_m != 0.0 && m.next > 0 &&
         m.next < m.path.size() &&
         budget < m.edge_len_m - m.edge_progress_m;
}

/// Drives `budget` meters along the current edge without reaching its
/// head vertex: the end of a StepEdge that stops mid-edge, and the
/// pass-through's whole tick.
inline void DriveAlongEdge(Motion& m, double budget) {
  m.edge_progress_m += budget;
  m.meters_since_update += budget;
}

/// One step of vehicle `id` along the edge path[next-1] -> path[next]
/// (0 < next < path.size()), the edge step of both movement loops. At
/// the edge's tail it enters the edge, caching edge_len_m (Internal when
/// the graph has no such edge). Then either `budget` ends short of the
/// head vertex — DriveAlongEdge, `budget` becomes 0 and the result is
/// kInvalidVertex — or the vehicle reaches the head: `budget` loses the
/// rest of the edge, which joins meters_since_update, `next` advances
/// and the head vertex is returned.
util::Result<roadnet::VertexId> StepEdge(Motion& m,
                                         const roadnet::RoadNetwork& graph,
                                         double& budget,
                                         vehicle::VehicleId id);

/// What one vehicle's advance leaves for the Simulator's sequential
/// commit phase, which runs in vehicle-id order: the assignment side of
/// its arrivals (PTRider::ApplyArrival), their report accounting, the
/// index re-registration and any idle remainder.
struct MovementOutcome {
  /// The advance did serving work (the vehicle had a schedule and the
  /// tick a budget): the commit marks the vehicle moved.
  bool served = false;
  /// Arrival events in occurrence order, for commit + report accounting.
  std::vector<core::AdvanceStop> stops;
  /// The vehicle ended the advance idle with budget left (or started the
  /// tick idle): the commit phase must finish the tick with the
  /// RNG-driven idle-cruising walk, resuming at `budget_left` /
  /// `hops` so the walk is indistinguishable from one uninterrupted
  /// per-vehicle movement loop.
  bool idle_remainder = false;
  double budget_left = 0.0;
  int hops = 0;
  /// First error hit during the advance; the commit phase surfaces it in
  /// vehicle-id order, exactly where the sequential loop would have.
  util::Status status = util::Status::Ok();
};

/// Repoints `m` at the first stop of `v`'s best branch, routing with
/// `oracle`; clears it when the vehicle has no schedule. Re-routes from
/// the current vertex: mid-edge progress is abandoned — with per-vertex
/// updates the error is below one edge length.
util::Status ReplanMotion(Motion& m, const vehicle::Vehicle& v,
                          roadnet::DistanceOracle& oracle);

/// The movement advance phase for one vehicle: simulates its tick
/// (`budget` meters of driving at time `now`) on the live vehicle `v` and
/// its motion `m`, reading graph, grid and schedule context through
/// `system` and routing with `oracle` (one per thread; see
/// roadnet::DistanceOracle::Clone). Calls for distinct vehicles may run
/// concurrently, provided no other call touches the system meanwhile —
/// a vehicle's in-tick trajectory depends only on its own tree and
/// motion, the immutable road network and deterministic oracle answers,
/// never on another vehicle, the vehicle index or the simulator RNG
/// (DESIGN.md section 6). Arrivals pop their stops from `v`'s tree
/// (core::ArriveAtStop); their assignment side is left to the commit.
///
/// Vehicles that are idle at tick start return immediately with
/// `idle_remainder` set: their whole tick is the oracle-free cruising
/// walk, which consumes the shared RNG and therefore belongs to the
/// sequential commit phase.
MovementOutcome AdvanceVehicle(vehicle::Vehicle& v, Motion& m,
                               const core::PTRider& system, double now,
                               double budget,
                               roadnet::DistanceOracle& oracle);

}  // namespace ptrider::sim

#endif  // PTRIDER_SIM_MOVEMENT_H_
