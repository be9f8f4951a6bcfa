#include "service/dispatch_service.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dispatch/parallel_dispatcher.h"
#include "service/clock.h"
#include "service/fault_injector.h"
#include "service/mpsc_queue.h"
#include "service/workload_driver.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ptrider::service {

namespace {

/// Virtual-clock model of what each ladder rung buys: the modeled
/// assign/quote cost is multiplied by the active rung's factor
/// (wall-clock mode measures the real savings instead). Index = rung.
constexpr std::array<double, kNumRungs> kDegradeCostFactors = {1.0, 0.7,
                                                               0.45, 0.25};

sim::SimulatorOptions MakeSimOptions(const ServiceOptions& o) {
  sim::SimulatorOptions s;
  s.tick_s = o.tick_s;
  s.batch_window_s = o.batch_window_s;
  s.seed = o.seed;
  s.choice = o.choice;
  s.move_jobs = o.move_jobs;
  s.verbose = false;  // The service emits its own progress lines.
  return s;
}

}  // namespace

struct DispatchService::Impl {
  Impl(core::PTRider& sys, ServiceOptions opts)
      : system(&sys), options(opts), sim(sys, MakeSimOptions(opts)) {}

  core::PTRider* system;
  ServiceOptions options;
  sim::Simulator sim;
  bool ran = false;
};

DispatchService::DispatchService(core::PTRider& system, ServiceOptions options)
    : impl_(std::make_unique<Impl>(system, options)) {}

DispatchService::~DispatchService() = default;

util::Result<core::MatchResult> DispatchService::Quote(const sim::Trip& trip,
                                                       double now_s) {
  const core::Config& cfg = impl_->system->config();
  vehicle::Request r;
  // Quote requests never commit, so they consume no request id — the
  // assignment id sequence (and with it dispatch order) is unaffected by
  // how many price probes interleave.
  r.id = 0;
  r.start = trip.origin;
  r.destination = trip.destination;
  r.num_riders = trip.num_riders;
  r.max_wait_s = cfg.default_max_wait_s;
  r.service_sigma = cfg.default_service_sigma;
  r.submit_time_s = now_s;
  return impl_->system->QuoteRequest(r, now_s);
}

util::Result<ServiceReport> DispatchService::Run(ArrivalProcess& process) {
  if (impl_->ran) {
    return util::Status::FailedPrecondition(
        "DispatchService::Run is one-shot; construct a new service");
  }
  impl_->ran = true;
  const ServiceOptions& opt = impl_->options;
  // NaN fails every comparison, so each check asks for the valid range.
  if (!(std::isfinite(opt.batch_window_s) && opt.batch_window_s > 0.0)) {
    return util::Status::InvalidArgument(
        "batch window must be finite and positive");
  }
  if (!(std::isfinite(opt.drain_s) && opt.drain_s >= 0.0)) {
    return util::Status::InvalidArgument("drain must be finite and >= 0");
  }
  if (opt.assign_cost_s < 0.0 || opt.quote_cost_s < 0.0) {
    return util::Status::InvalidArgument("service costs must be >= 0");
  }
  sim::Simulator& sim = impl_->sim;
  PTRIDER_RETURN_IF_ERROR(sim.BeginStepping());

  util::WallTimer run_timer;
  ServiceReport report;
  ServiceStats& stats = report.service;
  stats.horizon_s = process.end_time_s();
  const double end_time = stats.horizon_s + opt.drain_s;
  // Same integer tick/window grid as Simulator::Run (drift-free over
  // day-scale horizons; final tick clamped to end_time).
  PTRIDER_ASSIGN_OR_RETURN(const int64_t total_ticks,
                           sim::TickCount(end_time, opt.tick_s));

  RequestQueue queue(opt.queue_capacity);
  WorkloadDriver driver(process, queue, opt.ingest_retry);
  FaultInjector* injector = opt.fault_injector;

  // Zone partition: contiguous grid-cell ranges (bands of neighboring
  // rows), so one hot neighborhood maps to one zone.
  const roadnet::GridIndex& grid = impl_->system->grid();
  const size_t num_cells = grid.NumCells();
  const size_t zones =
      num_cells > 0 ? std::min(opt.zone_admission.zones, num_cells) : 0;
  ZoneAdmissionOptions zone_opt = opt.zone_admission;
  zone_opt.zones = zones;
  if (zones > 0) stats.shed_by_zone.assign(zones, 0);
  const auto zone_of = [&](roadnet::VertexId origin) -> size_t {
    if (zones == 0) return 0;
    return static_cast<size_t>(grid.CellOfVertex(origin)) * zones /
           num_cells;
  };

  AdaptiveAdmission admission(opt.shed_deadline_s, opt.ladder, zone_opt);

  // The one batch dispatcher serves every rung: the ladder sets the rung
  // on it before each batch (full effort at rung 0).
  dispatch::ParallelDispatcher& dispatcher = *sim.dispatcher();

  const bool virt = opt.virtual_clock;
  std::unique_ptr<ServiceClock> clock;
  if (virt) {
    clock = std::make_unique<VirtualClock>();
  } else {
    clock = std::make_unique<WallClock>(opt.wall_time_scale);
  }

  // Wall-clock mode measures quote latency where it actually becomes
  // available: at the first phase-1 match, inside whichever dispatch
  // worker ran it. One recorder per worker slot, no locks; merged below.
  // The observer reads `ingest_time` (written only between dispatches,
  // by this thread) and the shared clock — both safe during phase 1.
  // Virtual mode records from the service-time model instead, on this
  // thread, keeping the latency distribution deterministic.
  std::unordered_map<vehicle::RequestId, double> ingest_time;
  std::vector<util::Percentiles> worker_quotes(dispatcher.num_threads());
  if (!virt) {
    ServiceClock* clk = clock.get();
    dispatcher.SetMatchObserver(
        [&ingest_time, &worker_quotes, clk](size_t worker,
                                            const vehicle::Request& r,
                                            const core::MatchResult&) {
          auto it = ingest_time.find(r.id);
          if (it == ingest_time.end()) return;
          worker_quotes[worker % worker_quotes.size()].Add(clk->NowS() -
                                                           it->second);
        });
  }

  // Wall-clock mode: the open-loop producer runs on its own thread,
  // pushing arrivals as their instants pass on the shared clock.
  std::unique_ptr<ProducerThread> producer;
  if (!virt) {
    producer = std::make_unique<ProducerThread>(driver, *clock);
  }

  // Virtual-clock service-time model: a single modeled server drains
  // `assign_cost_s` of work per dispatched request. `backlog_s` is the
  // work still owed at the last drain instant; elapsed simulated time
  // pays it down, each admitted request adds to it. A request drained
  // behind a backlog starts that much later — its start delay, which the
  // deadline shedder and the latency percentiles both see. Offered rate
  // above 1/assign_cost_s makes the backlog grow without bound: the
  // knee. Fault windows modulate the model: cost spikes multiply the
  // per-request cost, stall windows suspend the pay-down; the ladder
  // divides the cost by its rung's factor.
  double backlog_s = 0.0;
  double last_drain_s = 0.0;
  // Stage-1 rejections of fault-injected arrivals (the injector pushes
  // once, no retry): a funnel term the driver cannot see.
  uint64_t injected_rejected = 0;

  std::vector<IngestedTrip> staged;
  std::vector<vehicle::Request> batch;
  std::vector<double> delays;
  std::vector<size_t> staged_zone;
  std::vector<char> zone_seen(zones > 0 ? zones : 1, 0);
  std::vector<InjectedArrival> injected_due;

  // FaultPoint::kIngress, once per tick: capacity squeeze (before any
  // push of the tick sees it), then injected arrivals after the driver
  // pump — a fixed interleave, so the ingestion order is reproducible.
  const auto ingress_faults = [&](double now_s) {
    if (injector == nullptr) return;
    injected_due.clear();
    injector->ArrivalsDue(now_s, injected_due);
    for (const InjectedArrival& a : injected_due) {
      const double stamp =
          (virt ? a.trip.time_s : clock->NowS()) + a.ingest_offset_s;
      if (!queue.TryPush(IngestedTrip{a.trip, stamp})) ++injected_rejected;
    }
    injector->WindowsEndedBy(now_s);
  };

  double now = 0.0;
  int64_t next_window = 1;
  double next_progress_log = 3600.0;

  // One batch-window drain at simulated instant `now_s`: admission,
  // latency stamping, dispatch, outcome accounting. `with_tick` then
  // runs the boundary movement tick from `prev_s` (Simulator::
  // StepWindow); without it the batch dispatches alone (the epilogue's
  // final partial window, which has no tick left to pair with).
  auto drain_and_dispatch = [&](double prev_s, double now_s,
                                bool with_tick) -> util::Status {
    util::WallTimer phase_timer;
    stats.queue_depth.Add(static_cast<double>(queue.size()));
    staged.clear();
    const size_t drained = queue.DrainTo(staged);

    // FaultPoint::kDrain: cost spikes scale the modeled per-request
    // cost; stall windows suspend the backlog pay-down.
    const double elapsed = std::max(0.0, now_s - last_drain_s);
    double fault_cost_factor = 1.0;
    if (injector != nullptr) {
      fault_cost_factor = injector->CostFactorAt(now_s);
      const double stalled = injector->StallSecondsIn(last_drain_s, now_s);
      stats.fault_stall_s += stalled;
      if (virt) backlog_s += stalled;  // undone by the pay-down below
    }
    if (virt) backlog_s = std::max(0.0, backlog_s - elapsed);
    last_drain_s = now_s;

    // First pass: ingestion waits and zones, for the window-level
    // admission update (standing-delay minimum, zones present).
    staged_zone.clear();
    std::fill(zone_seen.begin(), zone_seen.end(), 0);
    size_t zones_in_drain = 0;
    double min_wait = 0.0;
    for (size_t i = 0; i < staged.size(); ++i) {
      const double wait = std::max(0.0, now_s - staged[i].ingest_time_s);
      if (i == 0 || wait < min_wait) min_wait = wait;
      const size_t z = zone_of(staged[i].trip.origin);
      staged_zone.push_back(z);
      if (zones > 0 && !zone_seen[z]) {
        zone_seen[z] = 1;
        ++zones_in_drain;
      }
    }
    const double min_delay = min_wait + (virt ? backlog_s : 0.0);
    // Zone fair shares are quoted against nominal (rung-0) capacity so
    // the quota does not widen as the ladder cheapens requests.
    const double nominal_cost = opt.assign_cost_s * fault_cost_factor;
    const double capacity_requests =
        virt && nominal_cost > 0.0 ? elapsed / nominal_cost : 0.0;

    // Attribute the elapsed span to the rung that was active across it,
    // then let the controller move.
    stats.time_in_rung_s[static_cast<size_t>(admission.rung())] += elapsed;
    admission.BeginDrain(now_s, drained, min_delay, zones_in_drain,
                         capacity_requests);
    const int rung = admission.rung();
    const double rung_factor = kDegradeCostFactors[static_cast<size_t>(rung)];
    const double cost_eff = nominal_cost * rung_factor;
    const double quote_eff =
        opt.quote_cost_s * fault_cost_factor * rung_factor;

    if (drained == 0) {
      report.sim.match_phase_seconds += phase_timer.ElapsedSeconds();
      if (with_tick) return sim.AdvanceTick(prev_s, now_s, report.sim);
      return util::Status::Ok();
    }

    batch.clear();
    delays.clear();
    for (size_t i = 0; i < staged.size(); ++i) {
      const IngestedTrip& in = staged[i];
      const double queue_wait = std::max(0.0, now_s - in.ingest_time_s);
      const double delay = virt ? queue_wait + backlog_s : queue_wait;
      const ShedReason verdict = admission.Admit(delay, staged_zone[i]);
      if (verdict != ShedReason::kAdmit) {
        ++stats.shed;
        if (verdict == ShedReason::kDeadline) {
          ++stats.shed_deadline;
        } else {
          ++stats.shed_zone;
        }
        if (zones > 0) ++stats.shed_by_zone[staged_zone[i]];
        continue;
      }
      vehicle::Request r = sim.MakeRequest(in.trip);
      // Robustness: an invalid request (e.g. an injected malformed
      // fault) is absorbed — counted, skipped — never allowed to abort
      // the service loop.
      const util::Status valid = impl_->system->ValidateRequest(r);
      if (!valid.ok()) {
        ++stats.malformed;
        ++stats.faults_absorbed;
        continue;
      }
      if (virt) {
        backlog_s += cost_eff;
        stats.quote_latency_s.Add(delay + quote_eff);
      } else {
        ingest_time[r.id] = in.ingest_time_s;
      }
      batch.push_back(r);
      delays.push_back(delay);
    }

    dispatcher.SetDegrade(DegradeForRung(rung, opt.ladder));
    if (rung > 0 && !batch.empty()) ++stats.degraded_batches;

    // Admission/staging span only: the dispatch below times itself into
    // match_phase_seconds through StepWindow (double counting it here
    // would overstate the phase).
    report.sim.match_phase_seconds += phase_timer.ElapsedSeconds();

    // Ids were issued in staged (time) order and ingest stamps are
    // nondecreasing, so the dispatcher's (submit_time, id) commit order
    // is the staged order: items[i] pairs with delays[i].
    util::Result<std::vector<core::BatchItem>> items = [&] {
      if (with_tick) {
        return sim.StepWindow(std::move(batch), prev_s, now_s, report.sim);
      }
      util::WallTimer dispatch_timer;
      auto dispatched = sim.DispatchBatch(std::move(batch), now_s, report.sim);
      report.sim.match_phase_seconds += dispatch_timer.ElapsedSeconds();
      return dispatched;
    }();
    PTRIDER_RETURN_IF_ERROR(items.status());
    phase_timer.Restart();  // the trailing add covers just the stamping
    stats.dispatched += items->size();
    const double done_s = virt ? 0.0 : clock->NowS();
    for (size_t i = 0; i < items->size(); ++i) {
      const core::BatchItem& item = (*items)[i];
      if (!virt) ingest_time.erase(item.request.id);
      if (!item.assigned) continue;
      ++stats.assigned;
      if (virt) {
        stats.assign_latency_s.Add(delays[i] + cost_eff);
      } else {
        // delays[i] is the queue wait, so now_s - delays[i] recovers the
        // ingestion instant; done_s is the post-dispatch clock read.
        stats.assign_latency_s.Add(done_s - (now_s - delays[i]));
      }
    }
    report.sim.match_phase_seconds += phase_timer.ElapsedSeconds();
    return util::Status::Ok();
  };

  for (int64_t tick = 1; tick <= total_ticks; ++tick) {
    const double prev = now;
    now = std::min(static_cast<double>(tick) * opt.tick_s, end_time);
    if (injector != nullptr) {
      // Capacity squeeze applies before any push of this tick.
      const double cap_factor = injector->CapacityFactorAt(now);
      queue.SetCapacityLimit(
          cap_factor < 1.0
              ? std::max<size_t>(
                    1, static_cast<size_t>(
                           static_cast<double>(opt.queue_capacity) *
                           cap_factor))
              : 0);
    }
    if (virt) {
      driver.PumpUntil(now);
    } else {
      clock->SleepUntilS(now);
    }
    ingress_faults(now);
    if (now + 1e-9 >= static_cast<double>(next_window) * opt.batch_window_s) {
      // Boundary: dispatch the window, then the movement tick.
      PTRIDER_RETURN_IF_ERROR(drain_and_dispatch(prev, now,
                                                 /*with_tick=*/true));
      while (static_cast<double>(next_window) * opt.batch_window_s <=
             now + 1e-9) {
        ++next_window;
      }
    } else {
      PTRIDER_RETURN_IF_ERROR(sim.AdvanceTick(prev, now, report.sim));
    }
    if (opt.verbose && now >= next_progress_log) {
      const RequestQueue::Counters qc = queue.counters();
      PTRIDER_LOG(kInfo) << util::StrFormat(
          "t=%.1fh offered=%llu shed=%llu assigned=%llu depth=%zu rung=%d",
          now / 3600.0, static_cast<unsigned long long>(qc.pushed + qc.rejected),
          static_cast<unsigned long long>(stats.rejected + stats.shed),
          static_cast<unsigned long long>(stats.assigned), qc.size,
          admission.rung());
      next_progress_log += 3600.0;
    }
  }

  if (producer != nullptr) producer->Join();
  // Final partial window: anything still queued (arrivals between the
  // last flush and end_time) gets one last dispatch, with no tick left to
  // pair with. Pending ingestion retries are declared failed first — the
  // run is over, their arrivals never made it in.
  if (virt) driver.PumpUntil(end_time);
  ingress_faults(end_time);
  driver.GiveUpPending();
  PTRIDER_RETURN_IF_ERROR(drain_and_dispatch(now, now,
                                             /*with_tick=*/false));

  if (!virt) {
    for (const util::Percentiles& p : worker_quotes) {
      stats.quote_latency_s.Merge(p);
    }
  }
  // The producer (if any) has joined: one consistent counter snapshot.
  const RequestQueue::Counters qc = queue.counters();
  stats.offered = driver.offered();
  stats.ingested = qc.pushed;
  // Raw queue rejections double-count retried pushes; the funnel terms
  // are the arrivals that finally gave up plus rejected injections:
  // offered + faults_injected == ingested + rejected.
  stats.rejected = driver.gave_up() + injected_rejected;
  stats.retried = driver.retried();
  stats.retry_gave_up = driver.gave_up();
  stats.max_queue_depth = qc.max_depth;
  stats.ladder_escalations = admission.escalations();
  stats.max_rung = admission.max_rung_reached();
  if (injector != nullptr) {
    stats.faults_injected = injector->stats().arrivals_offered;
    stats.faults_absorbed += injector->stats().windows_crossed;
  }

  for (const vehicle::Vehicle& v : impl_->system->fleet().vehicles()) {
    report.sim.fleet_total_distance_m += v.total_distance_m();
    report.sim.fleet_occupied_distance_m += v.occupied_distance_m();
    report.sim.fleet_shared_distance_m += v.shared_distance_m();
  }
  report.sim.simulated_seconds = now;
  report.sim.wall_clock_seconds = run_timer.ElapsedSeconds();
  stats.wall_clock_seconds = run_timer.ElapsedSeconds();
  return report;
}

}  // namespace ptrider::service
