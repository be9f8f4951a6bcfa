#include "sim/movement.h"

#include <span>
#include <utility>

#include "core/distance_providers.h"
#include "util/string_util.h"

namespace ptrider::sim {

namespace {

/// Consumes every stop scheduled at the vehicle's current vertex (a
/// pick-up and drop-off can share an intersection) through
/// core::ArriveAtStop, recording each arrival for the commit, then
/// replans. `arrival_s` is the intra-tick instant the vehicle reached
/// this vertex — derived by the caller from the driving budget consumed
/// so far (speed is constant within a tick), NOT the tick boundary.
/// Stamping the boundary would quantize every pick-up's waiting time to
/// the tick grid, biasing waiting_s by up to one tick for mid-tick
/// arrivals.
util::Status AdvanceArrivals(vehicle::Vehicle& v, Motion& m,
                             double arrival_s,
                             roadnet::DistanceOracle& oracle,
                             std::vector<core::AdvanceStop>& stops) {
  while (!v.tree().empty() &&
         v.tree().BestBranch().stops.front().location == v.location()) {
    PTRIDER_ASSIGN_OR_RETURN(core::AdvanceStop s,
                             core::ArriveAtStop(v, arrival_s));
    stops.push_back(std::move(s));
  }
  return ReplanMotion(m, v, oracle);
}

}  // namespace

util::Status ReplanMotion(Motion& m, const vehicle::Vehicle& v,
                          roadnet::DistanceOracle& oracle) {
  if (v.tree().empty()) {
    m.has_target = false;
    m.path.clear();
    return util::Status::Ok();
  }
  const vehicle::Stop target = v.tree().BestBranch().stops.front();
  if (m.has_target && target == m.target && !m.path.empty()) {
    return util::Status::Ok();  // already heading there
  }
  // Re-route from the current vertex. Mid-edge progress is abandoned;
  // with per-vertex updates the error is below one edge length.
  auto path = oracle.ShortestPath(v.location(), target.location);
  PTRIDER_RETURN_IF_ERROR(path.status());
  m.path = std::move(path).value();
  m.next = m.path.size() > 1 ? 1 : 0;
  m.edge_progress_m = 0.0;
  m.target = target;
  m.has_target = true;
  return util::Status::Ok();
}

util::Result<roadnet::VertexId> StepEdge(Motion& m,
                                         const roadnet::RoadNetwork& graph,
                                         double& budget,
                                         vehicle::VehicleId id) {
  const roadnet::VertexId from = m.path[m.next - 1];
  const roadnet::VertexId to = m.path[m.next];
  if (m.edge_progress_m == 0.0) {
    m.edge_len_m = graph.EdgeWeight(from, to);  // entering the edge
    if (m.edge_len_m == roadnet::kInfWeight) {
      return util::Status::Internal(util::StrFormat(
          "vehicle %d routed over missing edge v%d->v%d", id, from, to));
    }
  }
  const double remaining = m.edge_len_m - m.edge_progress_m;
  if (budget < remaining) {
    DriveAlongEdge(m, budget);
    budget = 0.0;
    return roadnet::kInvalidVertex;
  }
  budget -= remaining;
  m.meters_since_update += remaining;
  m.edge_progress_m = 0.0;
  ++m.next;
  return to;
}

MovementOutcome AdvanceVehicle(const core::PTRider& system,
                               vehicle::VehicleId id, const Motion& motion,
                               double now, double budget,
                               roadnet::DistanceOracle& oracle) {
  MovementOutcome out;
  const vehicle::Vehicle& live = system.fleet().at(id);
  if (live.tree().empty()) {
    // The whole tick is the RNG-driven idle walk — oracle-free, done
    // sequentially in the commit phase in vehicle-id order.
    out.idle_remainder = true;
    out.budget_left = budget;
    return out;
  }
  if (budget <= 1e-9) return out;  // nothing moves this tick

  out.vehicle = live;  // scratch copies, advanced against the frozen tick
  out.motion = motion;
  vehicle::Vehicle& v = *out.vehicle;
  Motion& m = out.motion;
  const roadnet::RoadNetwork& graph = system.graph();
  const vehicle::ScheduleContext sched = system.MakeScheduleContext(now);
  core::IndexedDistanceProvider dist(oracle, system.grid());

  // Guard against pathological zero-length cycles.
  for (int hops = 0; budget > 1e-9 && hops < 10000; ++hops) {
    const bool serving = !v.tree().empty();

    // Redirection only happens at vertices: a vehicle mid-edge finishes
    // the segment first (it cannot teleport back to the tail vertex).
    // Schedule commitments are validated from the root vertex, so actual
    // driven distances can overrun the validated ones by at most two edge
    // lengths per redirect; SimulationReport::trip_overrun_m tracks it.
    if (m.edge_progress_m == 0.0) {
      if (!serving) {
        // Final drop-off consumed mid-tick: the rest of the tick is the
        // cruising walk. Hand it to the sequential phase, which resumes
        // this very loop iteration (same budget, same hop count).
        out.idle_remainder = true;
        out.budget_left = budget;
        out.hops = hops;
        return out;
      }
      out.status = ReplanMotion(m, v, oracle);
      if (!out.status.ok()) return out;
      if (m.path.size() <= 1 || m.next == 0) {
        // Already at the stop's vertex; `budget` meters of the tick are
        // still unspent, so the arrival instant lies that far before
        // the tick boundary.
        out.status = AdvanceArrivals(v, m, now - budget / sched.speed_mps,
                                     oracle, out.stops);
        if (!out.status.ok()) return out;
        if (v.tree().empty()) continue;  // idle
        if (m.path.size() <= 1) break;  // replanned to the same vertex
      }
    }
    if (m.path.size() <= 1 || m.next == 0 || m.next >= m.path.size()) {
      break;  // nowhere to go this tick
    }

    const util::Result<roadnet::VertexId> reached =
        StepEdge(m, graph, budget, id);
    if (!reached.ok()) {
      out.status = reached.status();
      return out;
    }
    if (*reached == roadnet::kInvalidVertex) break;  // mid-edge
    const std::vector<vehicle::Stop> executing =
        serving ? v.tree().BestBranch().stops : std::vector<vehicle::Stop>{};
    // The rest of a planned route is a suffix of the oracle's shortest
    // path to its end, so its sum is the exact root leg to that end
    // (DESIGN.md section 7.5). A cruise segment is not planned.
    vehicle::KnownRootLeg route_rest;
    if (m.has_target) {
      route_rest = {m.path.back(),
                    oracle.RouteDistance(
                        std::span(m.path).subspan(m.next - 1))};
    }
    // The location update (index registration happens once, at the end
    // of the tick).
    out.status = v.MoveTo(*reached, m.meters_since_update, sched, dist,
                          executing, route_rest);
    if (!out.status.ok()) return out;
    m.meters_since_update = 0.0;
    if (m.next >= m.path.size()) {
      m.path.clear();
      m.next = 0;
      if (serving) {
        out.status = AdvanceArrivals(v, m, now - budget / sched.speed_mps,
                                     oracle, out.stops);
        if (!out.status.ok()) return out;
      }
    }
  }
  return out;
}

}  // namespace ptrider::sim
