#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ptrider::sim {

namespace {
/// Below this many serving events a tick's advance runs inline: waking
/// the movement pool costs more than the events it would spread. Both
/// paths give identical outcomes (AdvanceVehicle is pure), so the
/// threshold is a latency constant.
constexpr size_t kParallelAdvanceMin = 16;
}  // namespace

Simulator::Simulator(core::PTRider& system, SimulatorOptions options)
    : system_(&system), options_(options), rng_(options.seed) {}

vehicle::Request Simulator::MakeRequest(const Trip& t) {
  const core::Config& cfg = system_->config();
  vehicle::Request r;
  r.id = next_request_id_++;
  r.start = t.origin;
  r.destination = t.destination;
  r.num_riders = t.num_riders;
  r.max_wait_s = cfg.default_max_wait_s;
  r.service_sigma = cfg.default_service_sigma;
  // The arrival instant, not the processing tick: batch dispatch order
  // is the paper's (submit_time, id) order over real arrivals, and
  // submit-delay accounting measures dispatch lag from that epoch.
  r.submit_time_s = t.time_s;
  return r;
}

util::Status Simulator::RecordOutcome(const vehicle::Request& request,
                                      const core::MatchResult& match,
                                      const core::Option* chosen,
                                      double now,
                                      SimulationReport& report) {
  ++report.requests_submitted;
  report.submit_delay_s.Add(now - request.submit_time_s);
  report.response_time_s.Add(match.match_seconds);
  report.response_percentiles_s.Add(match.match_seconds);
  report.options_per_request.Add(
      static_cast<double>(match.options.size()));
  report.vehicles_examined.Add(
      static_cast<double>(match.vehicles_examined));
  report.distance_computations.Add(
      static_cast<double>(match.distance_computations));
  report.anchor_settles.Add(static_cast<double>(match.anchor_settles));
  if (match.options.empty()) {
    ++report.requests_unserved;
    return util::Status::Ok();
  }
  if (chosen == nullptr) {
    ++report.requests_declined;
    return util::Status::Ok();
  }
  ++report.requests_assigned;
  const double floor = system_->pricing_policy().MinPrice(
      request.num_riders, match.direct_distance_m);
  if (floor > 0.0) {
    report.price_over_floor.Add(chosen->price / floor);
  }
  // Newly-assigned vehicle may need to re-target.
  return ReplanMotion(motions_[static_cast<size_t>(chosen->vehicle)],
                      system_->fleet().at(chosen->vehicle),
                      system_->oracle());
}

std::optional<size_t> Simulator::PickOption(const vehicle::Request& request,
                                            const core::MatchResult& match,
                                            double now) {
  if (match.options.empty()) return std::nullopt;
  ChoiceContext choice = options_.choice;
  choice.now_s = now;
  // The fare floor the rider benchmarks prices against (the policy's
  // MinPrice for this request's direct distance).
  choice.floor_price = system_->pricing_policy().MinPrice(
      request.num_riders, match.direct_distance_m);
  const size_t pick = ChooseOptionIndex(match.options, choice, rng_);
  if (pick == kDeclinedOption) return std::nullopt;
  return pick;
}

util::Result<std::vector<core::BatchItem>> Simulator::DispatchBatch(
    std::vector<vehicle::Request> batch, double now,
    SimulationReport& report) {
  if (dispatcher_ == nullptr) {
    return util::Status::FailedPrecondition(
        "DispatchBatch needs BeginStepping first");
  }
  if (batch.empty()) return std::vector<core::BatchItem>{};
  // The chooser runs in the dispatcher's sequential commit phase, in
  // (submit_time, id) order — rng_ consumption is identical at every
  // dispatch thread count, which is what makes their reports identical.
  const core::BatchChooser chooser =
      [this, now](const vehicle::Request& r,
                  const core::MatchResult& match) {
        return PickOption(r, match, now);
      };
  auto items = dispatcher_->Dispatch(std::move(batch), now, chooser);
  PTRIDER_RETURN_IF_ERROR(items.status());
  for (const core::BatchItem& item : *items) {
    PTRIDER_RETURN_IF_ERROR(RecordOutcome(
        item.request, item.match, item.assigned ? &item.chosen : nullptr,
        now, report));
  }
  return items;
}

util::Status Simulator::BeginStepping() {
  // NaN fails every comparison, so each check asks for the valid range.
  if (!(std::isfinite(options_.tick_s) && options_.tick_s > 0.0)) {
    return util::Status::InvalidArgument("tick must be finite and positive");
  }
  for (const double seconds : {options_.batch_window_s, options_.end_time_s,
                               options_.drain_s}) {
    if (!(std::isfinite(seconds) && seconds >= 0.0)) {
      return util::Status::InvalidArgument(
          "batch window, end time and drain must be finite and >= 0");
    }
  }
  if (options_.move_jobs > core::kMaxThreads) {
    return util::Status::InvalidArgument(util::StrFormat(
        "move jobs must be at most %d", core::kMaxThreads));
  }
  if (system_->fleet().empty()) {
    return util::Status::FailedPrecondition("fleet is empty");
  }
  if (dispatcher_ == nullptr) {
    dispatcher_ = std::make_unique<dispatch::ParallelDispatcher>(
        *system_, static_cast<size_t>(system_->config().dispatch_threads));
  }
  if (options_.move_jobs > 1 && move_pool_ == nullptr) {
    move_pool_ = std::make_unique<dispatch::WorkerPool>(
        *system_, static_cast<size_t>(options_.move_jobs));
  }
  motions_.assign(system_->fleet().size(), Motion{});
  return util::Status::Ok();
}

util::Status Simulator::AdvanceTick(double prev, double now,
                                    SimulationReport& report) {
  if (now < prev) {
    return util::Status::InvalidArgument("ticks must move forward");
  }
  const double budget = system_->config().speed_mps * (now - prev);
  ListEvents(budget, report);
  RunAdvance(now, budget, report);
  const util::Status moved = CommitMove(now, budget, report);
  // Reindex even after a commit error: vehicles committed before the
  // failure must still reach the index.
  Reindex(report);
  return moved;
}

util::Result<std::vector<core::BatchItem>> Simulator::StepWindow(
    std::vector<vehicle::Request> batch, double prev, double now,
    SimulationReport& report) {
  if (now < prev) {
    return util::Status::InvalidArgument("ticks must move forward");
  }
  util::WallTimer phase_timer;
  auto items = DispatchBatch(std::move(batch), now, report);
  report.match_phase_seconds += phase_timer.ElapsedSeconds();
  PTRIDER_RETURN_IF_ERROR(items.status());
  PTRIDER_RETURN_IF_ERROR(AdvanceTick(prev, now, report));
  return items;
}

util::Status Simulator::FinishStepping(SimulationReport& /*report*/) {
  return util::Status::Ok();
}

void Simulator::ListEvents(double budget, SimulationReport& report) {
  const size_t n = system_->fleet().size();
  util::WallTimer timer;
  events_.clear();
  serving_events_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (PassesThrough(motions_[i], budget)) {
      DriveAlongEdge(motions_[i], budget);
      continue;
    }
    const auto id = static_cast<vehicle::VehicleId>(i);
    events_.push_back(id);
    if (!system_->fleet().at(id).tree().empty()) {
      serving_events_.push_back(id);
    }
  }
  report.move_advance_seconds += timer.ElapsedSeconds();
}

void Simulator::RunAdvance(double now, double budget,
                           SimulationReport& report) {
  util::WallTimer timer;
  const size_t events = serving_events_.size();
  advances_.resize(events);
  if (move_pool_ != nullptr && events >= kParallelAdvanceMin) {
    move_pool_->ParallelFor(
        events, [&](size_t k, dispatch::WorkerContext& context) {
          const vehicle::VehicleId id = serving_events_[k];
          advances_[k] =
              AdvanceVehicle(*system_, id, motions_[static_cast<size_t>(id)],
                             now, budget, context.oracle());
        });
  } else {
    for (size_t k = 0; k < events; ++k) {
      const vehicle::VehicleId id = serving_events_[k];
      advances_[k] =
          AdvanceVehicle(*system_, id, motions_[static_cast<size_t>(id)],
                         now, budget, system_->oracle());
    }
  }
  report.move_advance_seconds += timer.ElapsedSeconds();
}

util::Status Simulator::CommitMove(double now, double budget,
                                   SimulationReport& report) {
  util::WallTimer timer;
  // Commit the events in vehicle-id order (pass-through vehicles took
  // their step in ListEvents): serving events install their scratch
  // state and fold arrival events into the report with exactly the
  // sequential loop's accounting, and idle events (plus idle
  // remainders) walk through the RNG — the only rng_ consumers, so the
  // draw order is the id order at every setting. Index
  // re-registration is deferred: the commit loop only records moved
  // vehicles, and Reindex then applies their end-of-tick registrations
  // once per vehicle — nothing reads the index until the next tick's
  // submissions.
  moved_.clear();
  // An error aborts the loop but not the Reindex after it: vehicles
  // committed before the failure must still reach the index, or a
  // caller keeping the system alive would match against stale lists.
  util::Status commit_status;
  // serving_events_ is the ascending subsequence of events_ that holds a
  // schedule, so one cursor pairs each serving event with its advance.
  size_t serving = 0;
  for (const vehicle::VehicleId id : events_) {
    if (!commit_status.ok()) break;
    const auto i = static_cast<size_t>(id);
    if (serving == serving_events_.size() || serving_events_[serving] != id) {
      commit_status = MoveIdleVehicle(id, now, budget, /*hops=*/0);
      continue;
    }
    MovementOutcome& a = advances_[serving++];
    commit_status = a.status;
    if (!commit_status.ok()) break;
    if (a.vehicle.has_value()) {
      commit_status =
          system_->CommitAdvancedVehicle(id, *std::move(a.vehicle), a.stops);
      if (!commit_status.ok()) break;
      MarkMoved(id);
      motions_[i] = std::move(a.motion);
      for (const core::AdvanceStop& s : a.stops) {
        const core::StopEvent& event = s.event;
        if (event.stop.type == vehicle::StopType::kPickup) {
          report.pickup_wait_s.Add(event.waiting_s);
        } else {
          ++report.requests_completed;
          if (event.shared) ++report.requests_shared;
          report.quoted_price.Add(event.price);
          report.revenue_total += event.price;
          if (event.direct_distance_m > 0.0) {
            report.detour_ratio.Add(event.trip_distance_m /
                                    event.direct_distance_m);
          }
          report.trip_overrun_m.Add(std::max(
              0.0,
              event.trip_distance_m - event.allowed_trip_distance_m));
        }
      }
    }
    if (a.idle_remainder) {
      commit_status = MoveIdleVehicle(id, now, a.budget_left, a.hops);
    }
  }
  report.move_commit_seconds += timer.ElapsedSeconds();
  return commit_status;
}

void Simulator::Reindex(SimulationReport& report) {
  // One end-of-tick registration per moved vehicle, in vehicle-id order.
  // Re-registering at every vertex crossing instead would add
  // swap-with-back removals that reorder the lists, and with them the
  // match's candidate order (DESIGN.md section 10).
  util::WallTimer timer;
  vehicle::VehicleIndex& index = system_->vehicle_index();
  for (const vehicle::VehicleId id : moved_) {
    index.Update(system_->fleet().at(id));
  }
  report.index_update_seconds += timer.ElapsedSeconds();
}

util::Status Simulator::MoveIdleVehicle(vehicle::VehicleId id, double now,
                                        double budget, int hops) {
  Motion& m = motions_[static_cast<size_t>(id)];
  const roadnet::RoadNetwork& graph = system_->graph();
  // The tail of the advance phase's loop, restricted to an empty tree:
  // no replans, no arrivals — just (possibly stale) path walking and
  // Section 4's cruising rule. Resumes at the advance's hop count so the
  // zero-length-cycle guard spans the whole tick.
  for (; budget > 1e-9 && hops < 10000; ++hops) {
    const vehicle::Vehicle& v = system_->fleet().at(id);
    if (m.edge_progress_m == 0.0) {
      if (!options_.idle_cruising) break;
      if (m.path.size() <= 1 || m.next == 0 || m.next >= m.path.size()) {
        // Pick a random outgoing segment (Section 4's cruising rule).
        const auto edges = graph.OutEdges(v.location());
        if (edges.empty()) break;  // dead end without exit
        const size_t e = static_cast<size_t>(rng_.UniformInt(
            0, static_cast<int64_t>(edges.size()) - 1));
        m.path = {v.location(), edges[e].to};
        m.next = 1;
        m.edge_progress_m = 0.0;
        m.has_target = false;
      }
    }
    if (m.path.size() <= 1 || m.next == 0 || m.next >= m.path.size()) {
      break;  // nowhere to go this tick
    }

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
      break;
    }
    // Reach the next vertex.
    budget -= remaining;
    m.meters_since_update += remaining;
    m.edge_progress_m = 0.0;
    ++m.next;
    PTRIDER_RETURN_IF_ERROR(system_->UpdateVehicleLocation(
        id, to, m.meters_since_update, now, {}, /*reindex=*/false));
    MarkMoved(id);
    m.meters_since_update = 0.0;
    if (m.next >= m.path.size()) {
      m.path.clear();
      m.next = 0;
    }
  }
  return util::Status::Ok();
}

util::Result<int64_t> TickCount(double end_time_s, double tick_s) {
  const double ticks = std::ceil(end_time_s / tick_s);
  if (!(std::isfinite(ticks) && ticks <= 0x1p53)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "horizon of %g s in ticks of %g s is beyond 2^53 ticks", end_time_s,
        tick_s));
  }
  return ticks > 0.0 ? static_cast<int64_t>(ticks) : 0;
}

util::Result<SimulationReport> Simulator::Run(
    const std::vector<Trip>& trips) {
  for (size_t i = 0; i < trips.size(); ++i) {
    // A NaN time is never due and fails the order check.
    if (!std::isfinite(trips[i].time_s)) {
      return util::Status::InvalidArgument(
          util::StrFormat("trip %zu has a non-finite time", i));
    }
    if (i > 0 && trips[i].time_s < trips[i - 1].time_s) {
      return util::Status::InvalidArgument("trips must be time-sorted");
    }
  }
  PTRIDER_RETURN_IF_ERROR(BeginStepping());

  util::WallTimer timer;
  SimulationReport report;
  const double last_trip =
      trips.empty() ? 0.0 : trips.back().time_s;
  const double end_time = options_.end_time_s > 0.0
                              ? options_.end_time_s
                              : last_trip + options_.drain_s;
  const double window = options_.batch_window_s;

  size_t next_trip = 0;
  double now = 0.0;
  double next_progress_log = 3600.0;
  std::vector<vehicle::Request> batch;
  // Window boundaries derive from an integer window index for the same
  // reason tick times do below: accumulating `+= batch_window_s` drifts
  // on non-representable windows until a boundary slips past a tick.
  int64_t next_window = 1;
  // Tick times derive from an integer tick index: accumulating
  // `now += tick_s` drifts over long horizons (86k+ ticks at day scale)
  // and overshoots end_time by up to one tick. The final tick is clamped
  // to land exactly on end_time, its driving budget shortened pro rata.
  PTRIDER_ASSIGN_OR_RETURN(const int64_t total_ticks,
                           TickCount(end_time, options_.tick_s));
  for (int64_t tick = 1; tick <= total_ticks; ++tick) {
    const double prev = now;
    now = std::min(static_cast<double>(tick) * options_.tick_s, end_time);
    while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
      const vehicle::Request r = MakeRequest(trips[next_trip++]);
      // Refuse a bad trip here: inside the batch it would only be
      // reported unserved, skewing the report with a never-matched
      // sample.
      PTRIDER_RETURN_IF_ERROR(system_->ValidateRequest(r));
      batch.push_back(r);
    }
    if (window == 0.0 || tick == total_ticks ||
        now + 1e-9 >= static_cast<double>(next_window) * window) {
      // Window boundary: dispatch, then the boundary tick.
      PTRIDER_RETURN_IF_ERROR(
          StepWindow(std::exchange(batch, {}), prev, now, report).status());
      while (window > 0.0 &&
             static_cast<double>(next_window) * window <= now + 1e-9) {
        ++next_window;
      }
    } else {
      PTRIDER_RETURN_IF_ERROR(AdvanceTick(prev, now, report));
    }
    if (options_.verbose && now >= next_progress_log) {
      PTRIDER_LOG(kInfo) << util::StrFormat(
          "t=%.0fh submitted=%lld assigned=%lld completed=%lld "
          "avg_rt=%.2fms",
          now / 3600.0, static_cast<long long>(report.requests_submitted),
          static_cast<long long>(report.requests_assigned),
          static_cast<long long>(report.requests_completed),
          1e3 * report.response_time_s.mean());
      next_progress_log += 3600.0;
    }
  }

  for (const vehicle::Vehicle& v : system_->fleet().vehicles()) {
    report.fleet_total_distance_m += v.total_distance_m();
    report.fleet_occupied_distance_m += v.occupied_distance_m();
    report.fleet_shared_distance_m += v.shared_distance_m();
  }
  report.simulated_seconds = now;
  report.wall_clock_seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace ptrider::sim
