#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/distance_providers.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ptrider::sim {

namespace {
/// Below this many serving events a tick's advance runs inline: waking
/// the movement pool costs more than the events it would spread. Both
/// paths give identical outcomes (AdvanceVehicle writes only its own
/// vehicle and motion), so the threshold is a latency constant.
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
  // Reindex even after a commit error: the vehicles the commit recorded
  // as moved must still reach the index.
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
  const auto advance = [&](size_t k, roadnet::DistanceOracle& oracle) {
    const vehicle::VehicleId id = serving_events_[k];
    advances_[k] = AdvanceVehicle(system_->fleet().at(id),
                                  motions_[static_cast<size_t>(id)], *system_,
                                  now, budget, oracle);
  };
  if (move_pool_ != nullptr && events >= kParallelAdvanceMin) {
    move_pool_->ParallelFor(
        events, [&](size_t k, dispatch::WorkerContext& context) {
          advance(k, context.oracle());
        });
  } else {
    for (size_t k = 0; k < events; ++k) advance(k, system_->oracle());
  }
  report.move_advance_seconds += timer.ElapsedSeconds();
}

util::Status Simulator::CommitMove(double now, double budget,
                                   SimulationReport& report) {
  util::WallTimer timer;
  // Commit the events in vehicle-id order (pass-through vehicles took
  // their step in ListEvents, serving events their advance in
  // RunAdvance): serving events apply the assignment side of their
  // arrivals and fold them into the report with exactly the sequential
  // loop's accounting, and idle events (plus idle remainders) walk
  // through the RNG — the only rng_ consumers, so the draw order is the
  // id order at every setting. Index re-registration is deferred: the
  // commit loop only records moved vehicles, and Reindex then applies
  // their end-of-tick registrations once per vehicle — nothing reads the
  // index until the next tick's submissions.
  moved_.clear();
  // The first error stops the idle walks and is returned, but not the
  // serving events' commits: their advance already moved the live
  // vehicles, so each still applies its arrivals and reaches the index,
  // or a caller keeping the system alive would match against stale lists.
  util::Status commit_status;
  // serving_events_ is the ascending subsequence of events_ that holds a
  // schedule, so one cursor pairs each serving event with its advance.
  size_t serving = 0;
  for (const vehicle::VehicleId id : events_) {
    if (serving == serving_events_.size() || serving_events_[serving] != id) {
      if (commit_status.ok()) {
        commit_status = MoveIdleVehicle(id, now, budget, /*hops=*/0);
      }
      continue;
    }
    MovementOutcome& a = advances_[serving++];
    if (commit_status.ok()) commit_status = a.status;
    if (a.served) {
      MarkMoved(id);
      for (core::AdvanceStop& s : a.stops) {
        system_->ApplyArrival(s);
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
    if (a.idle_remainder && commit_status.ok()) {
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
  vehicle::Vehicle& v = system_->fleet().at(id);
  const roadnet::RoadNetwork& graph = system_->graph();
  const vehicle::ScheduleContext sched = system_->MakeScheduleContext(now);
  core::IndexedDistanceProvider dist(system_->oracle(), system_->grid());
  // The tail of the advance phase's loop, restricted to an empty tree:
  // no replans, no arrivals — just (possibly stale) path walking and
  // Section 4's cruising rule. Resumes at the advance's hop count so the
  // zero-length-cycle guard spans the whole tick.
  for (; budget > 1e-9 && hops < 10000; ++hops) {
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
    PTRIDER_ASSIGN_OR_RETURN(const roadnet::VertexId to,
                             StepEdge(m, graph, budget, id));
    if (to == roadnet::kInvalidVertex) break;  // mid-edge
    // The location update on the live vehicle; Reindex registers it at
    // the end of the tick.
    PTRIDER_RETURN_IF_ERROR(
        v.MoveTo(to, m.meters_since_update, sched, dist, {}));
    MarkMoved(id);
    m.meters_since_update = 0.0;
    if (m.next >= m.path.size()) {
      m.path.clear();
      m.next = 0;
    }
  }
  return util::Status::Ok();
}

util::Result<TickClock> TickClock::Make(double end_time_s, double tick_s,
                                       double window_s) {
  const double ticks = std::ceil(end_time_s / tick_s);
  if (!(std::isfinite(ticks) && ticks <= 0x1p53)) {
    return util::Status::InvalidArgument(util::StrFormat(
        "horizon of %g s in ticks of %g s is beyond 2^53 ticks", end_time_s,
        tick_s));
  }
  TickClock clock;
  clock.end_time_s_ = end_time_s;
  clock.tick_s_ = tick_s;
  clock.window_s_ = window_s;
  clock.ticks_ = ticks > 0.0 ? static_cast<int64_t>(ticks) : 0;
  return clock;
}

bool TickClock::Next() {
  if (tick_ == ticks_) return false;
  ++tick_;
  prev_ = now_;
  now_ = std::min(static_cast<double>(tick_) * tick_s_, end_time_s_);
  closes_window_ =
      window_s_ == 0.0 || tick_ == ticks_ ||
      now_ + 1e-9 >= static_cast<double>(next_window_) * window_s_;
  while (window_s_ > 0.0 &&
         static_cast<double>(next_window_) * window_s_ <= now_ + 1e-9) {
    ++next_window_;
  }
  return true;
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
  PTRIDER_ASSIGN_OR_RETURN(
      TickClock clock,
      TickClock::Make(end_time, options_.tick_s, options_.batch_window_s));

  size_t next_trip = 0;
  double next_progress_log = 3600.0;
  std::vector<vehicle::Request> batch;
  while (clock.Next()) {
    const double now = clock.now();
    while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
      const vehicle::Request r = MakeRequest(trips[next_trip++]);
      // Refuse a bad trip here: inside the batch it would only be
      // reported unserved, skewing the report with a never-matched
      // sample.
      PTRIDER_RETURN_IF_ERROR(system_->ValidateRequest(r));
      batch.push_back(r);
    }
    if (clock.closes_window()) {
      // Window boundary: dispatch, then the boundary tick.
      PTRIDER_RETURN_IF_ERROR(
          StepWindow(std::exchange(batch, {}), clock.prev(), now, report)
              .status());
    } else {
      PTRIDER_RETURN_IF_ERROR(AdvanceTick(clock.prev(), now, report));
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
  report.simulated_seconds = clock.now();
  report.wall_clock_seconds = timer.ElapsedSeconds();
  return report;
}

}  // namespace ptrider::sim
