#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "dispatch/parallel_dispatcher.h"
#include "dispatch/reindex.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ptrider::sim {

namespace {
/// Below this many serving events a tick's advance runs inline: waking
/// the movement pool costs more than the events it would spread. Both
/// paths give identical outcomes (AdvanceVehicle is pure), so the
/// threshold is a latency constant, like dispatch::ApplyReindex's.
constexpr size_t kParallelAdvanceMin = 16;
}  // namespace

Simulator::Simulator(core::PTRider& system, SimulatorOptions options)
    : system_(&system), options_(options), rng_(options.seed) {}

vehicle::Request Simulator::BuildRequest(const Trip& t) {
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
  // submit-delay accounting measures dispatch lag from the same epoch
  // in both submission modes.
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

util::Status Simulator::SubmitDueRequests(const std::vector<Trip>& trips,
                                          size_t& next_trip, double now,
                                          SimulationReport& report) {
  while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
    const vehicle::Request r = BuildRequest(trips[next_trip++]);
    auto match = system_->SubmitRequest(r, now);
    PTRIDER_RETURN_IF_ERROR(match.status());
    const std::optional<size_t> pick = PickOption(r, *match, now);
    const core::Option* chosen =
        pick.has_value() ? &match->options[*pick] : nullptr;
    if (chosen != nullptr) {
      PTRIDER_RETURN_IF_ERROR(system_->ChooseOption(r, *chosen, now));
    }
    PTRIDER_RETURN_IF_ERROR(RecordOutcome(r, *match, chosen, now, report));
  }
  return util::Status::Ok();
}

util::Status Simulator::CollectDueRequests(const std::vector<Trip>& trips,
                                           size_t& next_trip, double now) {
  while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
    const vehicle::Request r = BuildRequest(trips[next_trip++]);
    // Reject bad trips here, as the per-request path does via
    // SubmitRequest — folding them into the batch would instead skew
    // the report with zero-valued never-matched samples.
    PTRIDER_RETURN_IF_ERROR(system_->ValidateRequest(r));
    pending_.push_back(r);
  }
  return util::Status::Ok();
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
    SimulationReport& report, core::Dispatcher* dispatcher) {
  if (dispatcher == nullptr) dispatcher = dispatcher_.get();
  if (dispatcher == nullptr) {
    return util::Status::FailedPrecondition(
        "DispatchBatch needs BeginStepping (or a batched Run) first");
  }
  if (batch.empty()) return std::vector<core::BatchItem>{};
  // The chooser runs in the dispatcher's sequential commit phase, in
  // (submit_time, id) order — rng_ consumption is identical for every
  // dispatch strategy, which is what makes sequential and parallel runs
  // report-identical.
  const core::BatchChooser chooser =
      [this, now](const vehicle::Request& r,
                  const core::MatchResult& match) {
        return PickOption(r, match, now);
      };
  auto items = dispatcher->Dispatch(std::move(batch), now, chooser);
  PTRIDER_RETURN_IF_ERROR(items.status());
  for (const core::BatchItem& item : *items) {
    PTRIDER_RETURN_IF_ERROR(RecordOutcome(
        item.request, item.match, item.assigned ? &item.chosen : nullptr,
        now, report));
  }
  return items;
}

util::Status Simulator::DispatchPending(double now,
                                        SimulationReport& report) {
  if (pending_.empty()) return util::Status::Ok();
  auto items = DispatchBatch(std::move(pending_), now, report);
  pending_.clear();
  return items.status();
}

util::Status Simulator::BeginStepping() {
  if (options_.tick_s <= 0.0) {
    return util::Status::InvalidArgument("tick must be positive");
  }
  if (system_->fleet().empty()) {
    return util::Status::FailedPrecondition("fleet is empty");
  }
  if (dispatcher_ == nullptr) {
    dispatcher_ = dispatch::CreateDispatcher(*system_);
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
    SimulationReport& report, core::Dispatcher* route) {
  if (now < prev) {
    return util::Status::InvalidArgument("ticks must move forward");
  }
  util::WallTimer phase_timer;
  auto items = DispatchBatch(std::move(batch), now, report, route);
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
  advances_.resize(system_->fleet().size());
  const size_t events = serving_events_.size();
  if (move_pool_ != nullptr && events >= kParallelAdvanceMin) {
    // Contiguous shards: id-adjacent vehicles were placed together at
    // fleet init and drift slowly, so their routes tend to share each
    // worker's distance cache.
    const size_t chunk =
        std::max<size_t>(1, events / (4 * move_pool_->num_threads()));
    move_pool_->ParallelFor(
        events,
        [&](size_t k, dispatch::WorkerContext& context) {
          const vehicle::VehicleId id = serving_events_[k];
          const auto i = static_cast<size_t>(id);
          advances_[i] = AdvanceVehicle(*system_, id, motions_[i], now,
                                        budget, context.oracle());
        },
        chunk);
  } else {
    for (const vehicle::VehicleId id : serving_events_) {
      const auto i = static_cast<size_t>(id);
      advances_[i] = AdvanceVehicle(*system_, id, motions_[i], now, budget,
                                    system_->oracle());
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
  for (const vehicle::VehicleId id : events_) {
    if (!commit_status.ok()) break;
    const auto i = static_cast<size_t>(id);
    if (system_->fleet().at(id).tree().empty()) {
      commit_status = MoveIdleVehicle(id, now, budget, /*hops=*/0);
      continue;
    }
    MovementOutcome& a = advances_[i];
    commit_status = a.status;
    if (!commit_status.ok()) break;
    if (a.vehicle.has_value()) {
      commit_status = system_->CommitAdvancedVehicle(
          id, *std::move(a.vehicle), a.stops, /*reindex=*/false);
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
  // One end-of-tick registration per moved vehicle, prepared in
  // vehicle-id order (the per-shard application order) and applied
  // across shards — concurrently on the movement pool when the tick
  // moved enough vehicles to pay the fan-out. Bit-identical lists at
  // every move_jobs x index_shards setting (DESIGN.md section 10).
  util::WallTimer timer;
  vehicle::VehicleIndex& index = system_->vehicle_index();
  for (const vehicle::VehicleId id : moved_) {
    pending_reindex_.push_back(index.Prepare(system_->fleet().at(id)));
  }
  dispatch::ApplyReindex(index, pending_reindex_, move_pool_.get());
  pending_reindex_.clear();
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

util::Result<SimulationReport> Simulator::Run(
    const std::vector<Trip>& trips) {
  if (options_.tick_s <= 0.0) {
    return util::Status::InvalidArgument("tick must be positive");
  }
  if (options_.batch_window_s < 0.0) {
    return util::Status::InvalidArgument("batch window must be >= 0");
  }
  const bool batched = options_.batch_window_s > 0.0;
  if (batched && dispatcher_ == nullptr) {
    dispatcher_ = dispatch::CreateDispatcher(*system_);
  }
  if (options_.move_jobs > 1 && move_pool_ == nullptr) {
    move_pool_ = std::make_unique<dispatch::WorkerPool>(
        *system_, static_cast<size_t>(options_.move_jobs));
  }
  for (size_t i = 1; i < trips.size(); ++i) {
    if (trips[i].time_s < trips[i - 1].time_s) {
      return util::Status::InvalidArgument("trips must be time-sorted");
    }
  }
  if (system_->fleet().empty()) {
    return util::Status::FailedPrecondition("fleet is empty");
  }

  util::WallTimer timer;
  SimulationReport report;
  motions_.assign(system_->fleet().size(), Motion{});

  const double last_trip =
      trips.empty() ? 0.0 : trips.back().time_s;
  const double end_time = options_.end_time_s > 0.0
                              ? options_.end_time_s
                              : last_trip + options_.drain_s;

  size_t next_trip = 0;
  double now = 0.0;
  double next_progress_log = 3600.0;
  // Flush boundaries derive from an integer window index for the same
  // reason tick times do below: accumulating `+= batch_window_s` drifts
  // on non-representable windows until a flush slips past a tick.
  int64_t next_window = 1;
  util::WallTimer phase_timer;
  // Tick times derive from an integer tick index: accumulating
  // `now += tick_s` drifts over long horizons (86k+ ticks at day scale)
  // and overshoots end_time by up to one tick. The final tick is clamped
  // to land exactly on end_time, its driving budget shortened pro rata.
  const int64_t total_ticks =
      static_cast<int64_t>(std::ceil(end_time / options_.tick_s));
  for (int64_t tick = 1; tick <= total_ticks; ++tick) {
    const double prev = now;
    now = std::min(static_cast<double>(tick) * options_.tick_s, end_time);
    if (batched) {
      phase_timer.Restart();
      PTRIDER_RETURN_IF_ERROR(CollectDueRequests(trips, next_trip, now));
      report.match_phase_seconds += phase_timer.ElapsedSeconds();
      if (now + 1e-9 >= static_cast<double>(next_window) *
                            options_.batch_window_s) {
        // Window boundary: dispatch, then the boundary tick.
        std::vector<vehicle::Request> batch = std::move(pending_);
        pending_.clear();
        PTRIDER_RETURN_IF_ERROR(
            StepWindow(std::move(batch), prev, now, report).status());
        while (static_cast<double>(next_window) *
                   options_.batch_window_s <=
               now + 1e-9) {
          ++next_window;
        }
      } else {
        PTRIDER_RETURN_IF_ERROR(AdvanceTick(prev, now, report));
      }
    } else {
      phase_timer.Restart();
      PTRIDER_RETURN_IF_ERROR(
          SubmitDueRequests(trips, next_trip, now, report));
      report.match_phase_seconds += phase_timer.ElapsedSeconds();
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

  if (batched) {
    // Trips due in the final partial window (end_time_s cut short of the
    // next flush) still get dispatched once.
    phase_timer.Restart();
    PTRIDER_RETURN_IF_ERROR(CollectDueRequests(trips, next_trip, now));
    PTRIDER_RETURN_IF_ERROR(DispatchPending(now, report));
    report.match_phase_seconds += phase_timer.ElapsedSeconds();
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
