// PTRider benchmark: one repetition of one workload per process.
//
// run.py (README.md) schedules repetitions — a discarded warm-up, then
// repetitions in fresh processes so peak RSS and allocator state stay
// per repetition — and aggregates their records into the end-to-end and
// per-layer metrics. This binary runs exactly one repetition and prints
// its record as one JSON line on stdout.
//
// Usage: bench_ptrider --workload city_peak|fleet_idle|service_open
//                      --seed N [--traced] [--smoke] [--trace-file FILE]
//
// An untraced repetition times the public entry points end to end:
// Simulator::Run over the workload's trips and, on service_open,
// DispatchService::Run in wall-clock mode at the nominal arrival rate. A
// traced repetition runs one closed-loop trip list twice on fresh
// systems: untraced through Run, then through the stepping API
// (BeginStepping, StepWindow, AdvanceTick, FinishStepping) with a span
// around every call and, every few windows, read-only probes of each
// layer against the state frozen between windows. The two report
// signatures must match, which shows the probes changed nothing. On
// service_open the traced repetition also sweeps the open-loop arrival
// rate across the throughput knee.
//
// Every knob is the library default except the ones a deployment sets to
// use the cores (the configuration rule in README.md): batch window 2 s,
// 2 dispatch threads, 4 index shards and 2 movement threads (1 on
// service_open, whose open-loop producer takes the fourth core).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/matcher.h"
#include "core/ptrider.h"
#include "dispatch/parallel_dispatcher.h"
#include "harness.h"
#include "roadnet/ch.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "roadnet/grid_index.h"
#include "service/dispatch_service.h"
#include "service/workload_driver.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "util/random.h"

namespace {

using namespace ptrider;
using bench::Clock;
using bench::JsonObject;
using bench::SecondsSince;
using bench::SpanRecorder;

// --- Configuration rule ------------------------------------------------------

constexpr double kBatchWindowS = 2.0;
constexpr int kDispatchThreads = 2;
constexpr int kIndexShards = 4;
/// service_open: simulated seconds per wall second, so a 2 s window is
/// 200 ms of wall time.
constexpr double kWallTimeScale = 10.0;
/// service_open: a quote later than this (wall) misses the latency limit.
constexpr double kQuoteLimitWallS = 0.5;
/// service_open: the open-loop sweep's steps, arrivals per simulated
/// second (80 to 200 per wall second), across the throughput knee.
constexpr std::array<double, 4> kSweepRates = {8.0, 12.0, 16.0, 20.0};

core::Config MakeConfig() {
  core::Config cfg;
  cfg.dispatch_threads = kDispatchThreads;
  cfg.index_shards = kIndexShards;
  return cfg;
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  bool open_loop = false;
  int city_size = 40;  // rows = cols, 250 m spacing
  size_t taxis = 0;
  int move_jobs = 2;
  /// Closed loop: hotspot trips over `arrival_s`. Open loop: Poisson
  /// arrivals per rate step over `arrival_s`.
  size_t trips = 0;
  double arrival_s = 0.0;
  /// Open loop: arrivals per simulated second; the sweep's steps.
  double nominal_rate = 0.0;
  std::vector<double> sweep_rates;
  double service_drain_s = 0.0;
  /// Traced repetitions probe every this many windows.
  int probe_every = 15;
};

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "city_peak") {
    // Busy kinetic trees under a hotspot peak: matching does the work.
    w.taxis = smoke ? 100 : 600;
    w.trips = smoke ? 150 : 1000;
    w.arrival_s = smoke ? 300.0 : 900.0;
  } else if (name == "fleet_idle") {
    // A large, mostly idle fleet: movement and index writes do the work.
    w.taxis = smoke ? 1000 : 8000;
    w.trips = smoke ? 40 : 250;
    w.arrival_s = smoke ? 300.0 : 900.0;
  } else if (name == "service_open") {
    // Open-loop arrivals: match cost becomes a rider's queueing delay.
    w.open_loop = true;
    w.city_size = 30;
    w.taxis = smoke ? 60 : 300;
    w.move_jobs = 1;
    w.nominal_rate = smoke ? 8.0 : 12.0;
    w.sweep_rates = smoke ? std::vector<double>{8.0}
                          : std::vector<double>(kSweepRates.begin(),
                                                kSweepRates.end());
    w.arrival_s = smoke ? 10.0 : 45.0;
    w.service_drain_s = 5.0;
    w.probe_every = 1;  // its closed-loop pass spans few windows
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.city_size = w.open_loop ? 15 : 20;
    w.probe_every = std::min(w.probe_every, 5);
  }
  return w;
}

// --- Inputs from --seed ------------------------------------------------------

/// The city and the hotspot layout are part of a workload's definition;
/// --seed draws the fleet, the trips and the arrivals on them.
constexpr uint64_t kCitySeed = 20090529;
constexpr uint64_t kDemandSeed = 2009;
constexpr size_t kTripPoolFactor = 8;

enum SeedStream : uint64_t {
  kFleetStream = 1,
  kTripStream,
  kSimStream,
  kArrivalStream,
  kSecondPassStream,
};

uint64_t SubSeed(uint64_t seed, SeedStream stream) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return util::SplitMix64(state);
}

service::PoissonArrivalOptions MakeArrivals(const Workload& w, uint64_t seed,
                                            double rate) {
  service::PoissonArrivalOptions a;
  a.rate_per_s = rate;
  a.duration_s = w.arrival_s;
  a.seed = SubSeed(seed, kArrivalStream);
  return a;
}

/// The arrivals PoissonArrivals would offer, as a time-sorted trip list.
std::vector<sim::Trip> ArrivalTrips(const roadnet::RoadNetwork& graph,
                                    const Workload& w, uint64_t seed,
                                    double rate) {
  service::PoissonArrivals arrivals(graph, MakeArrivals(w, seed, rate));
  std::vector<sim::Trip> trips;
  while (std::optional<sim::Trip> t = arrivals.Next()) trips.push_back(*t);
  return trips;
}

/// A ready-to-serve system: road network, PTRider (grid index, vehicle
/// index, fleet) and its trips (open loop: the nominal-rate arrivals).
struct Setup {
  std::unique_ptr<roadnet::RoadNetwork> graph;
  std::unique_ptr<core::PTRider> system;
  std::vector<sim::Trip> trips;
  double seconds = 0.0;
};

util::Result<Setup> MakeSetup(const Workload& w, uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Setup s;
  roadnet::CityGridOptions city;
  city.rows = w.city_size;
  city.cols = w.city_size;
  city.spacing_m = 250.0;
  city.seed = kCitySeed;
  PTRIDER_ASSIGN_OR_RETURN(roadnet::RoadNetwork graph,
                           roadnet::MakeCityGrid(city));
  s.graph = std::make_unique<roadnet::RoadNetwork>(std::move(graph));
  PTRIDER_ASSIGN_OR_RETURN(s.system,
                           core::PTRider::Create(*s.graph, MakeConfig()));
  PTRIDER_RETURN_IF_ERROR(
      s.system->InitFleetUniform(w.taxis, SubSeed(seed, kFleetStream)));
  if (w.open_loop) {
    s.trips = ArrivalTrips(*s.graph, w, seed, w.nominal_rate);
  } else {
    // The hotspot layout is fixed like the city; the seed draws which of
    // the pool's trips occur.
    sim::HotspotWorkloadOptions demand;
    demand.num_trips = w.trips * kTripPoolFactor;
    demand.duration_s = w.arrival_s;
    demand.seed = kDemandSeed;
    PTRIDER_ASSIGN_OR_RETURN(std::vector<sim::Trip> pool,
                             sim::GenerateHotspotTrips(*s.graph, demand));
    util::Rng rng(SubSeed(seed, kTripStream));
    for (size_t i = 0; i < w.trips; ++i) {
      const auto j = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(i),
                         static_cast<int64_t>(pool.size()) - 1));
      std::swap(pool[i], pool[j]);
      s.trips.push_back(pool[i]);
    }
    std::sort(s.trips.begin(), s.trips.end(),
              [](const sim::Trip& a, const sim::Trip& b) {
                return a.time_s < b.time_s;
              });
  }
  s.seconds = SecondsSince(start);
  return s;
}

sim::SimulatorOptions MakeSimOptions(const Workload& w, uint64_t seed) {
  sim::SimulatorOptions o;
  o.batch_window_s = kBatchWindowS;
  o.move_jobs = w.move_jobs;
  o.seed = SubSeed(seed, kSimStream);
  return o;
}

// --- Checks ------------------------------------------------------------------

/// Correctness checks of one repetition; each failure is a failed
/// operation in the benchmark's result.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) failures_.push_back(what);
  }
  int run() const { return run_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int run_ = 0;
  std::vector<std::string> failures_;
};

void CheckReport(const sim::SimulationReport& r, const std::string& label,
                 Checks& checks) {
  checks.Expect(r.requests_assigned + r.requests_unserved +
                        r.requests_declined ==
                    r.requests_submitted,
                label + ": assigned + unserved + declined == submitted");
  checks.Expect(r.requests_completed <= r.requests_assigned,
                label + ": completed <= assigned");
}

double MatchFrac(const sim::SimulationReport& r) {
  return r.match_phase_seconds / r.wall_clock_seconds;
}

double MovementFrac(const sim::SimulationReport& r) {
  return (r.move_advance_seconds + r.move_commit_seconds +
          r.index_update_seconds) /
         r.wall_clock_seconds;
}

/// Workload-shape self-check: does the workload still isolate the layer
/// it exists for? A failure is reported, not counted as a failed
/// operation — a faster layer may legitimately shift the split.
std::string ShapeProblem(const Workload& w, const sim::SimulationReport& r) {
  char buf[160];
  if (w.name == "city_peak" && MatchFrac(r) < 0.70) {
    std::snprintf(buf, sizeof(buf),
                  "match phase is %.0f%% of wall (< 70%%)", 100 * MatchFrac(r));
    return buf;
  }
  if (w.name == "fleet_idle" &&
      (MovementFrac(r) < 0.70 || MatchFrac(r) > 0.20)) {
    std::snprintf(buf, sizeof(buf),
                  "movement is %.0f%% (< 70%%) or match %.0f%% (> 20%%) of "
                  "wall",
                  100 * MovementFrac(r), 100 * MatchFrac(r));
    return buf;
  }
  return "";
}

std::vector<double> Scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

// --- Open-loop producer lateness ---------------------------------------------

/// Wraps the arrival process the service's producer thread pulls from.
/// The producer asks for arrival k+1 right after pushing arrival k, so the
/// wall instant of each Next() call minus arrival k's due instant is how
/// late arrival k was offered. Latency numbers are valid only while this
/// stays under one batch window. Read max_late_s() after the service run
/// returned (it joins the producer).
class LatenessProbe : public service::ArrivalProcess {
 public:
  explicit LatenessProbe(service::ArrivalProcess& inner) : inner_(&inner) {}

  const char* name() const override { return inner_->name(); }
  double end_time_s() const override { return inner_->end_time_s(); }

  std::optional<sim::Trip> Next() override {
    const Clock::time_point now = Clock::now();
    if (!started_) {
      started_ = true;
      origin_ = now;
    } else if (prev_due_s_ >= 0.0) {
      const double wall_s =
          std::chrono::duration<double>(now - origin_).count();
      max_late_s_ =
          std::max(max_late_s_, wall_s - prev_due_s_ / kWallTimeScale);
    }
    std::optional<sim::Trip> trip = inner_->Next();
    prev_due_s_ = trip ? trip->time_s : -1.0;
    return trip;
  }

  double max_late_s() const { return max_late_s_; }

 private:
  service::ArrivalProcess* inner_;
  bool started_ = false;
  Clock::time_point origin_;
  double prev_due_s_ = -1.0;
  double max_late_s_ = 0.0;
};

struct ServiceRun {
  service::ServiceReport report;
  double max_late_s = 0.0;
};

/// One wall-clock DispatchService run on `setup`'s system at `rate`
/// arrivals per simulated second.
util::Result<ServiceRun> RunService(const Workload& w, const Setup& setup,
                                    uint64_t seed, double rate) {
  service::ServiceOptions opts;
  opts.batch_window_s = kBatchWindowS;
  opts.drain_s = w.service_drain_s;
  opts.virtual_clock = false;
  opts.wall_time_scale = kWallTimeScale;
  opts.move_jobs = w.move_jobs;
  opts.seed = SubSeed(seed, kSimStream);
  service::PoissonArrivals arrivals(*setup.graph, MakeArrivals(w, seed, rate));
  LatenessProbe probe(arrivals);
  service::DispatchService server(*setup.system, opts);
  PTRIDER_ASSIGN_OR_RETURN(service::ServiceReport report, server.Run(probe));
  return ServiceRun{std::move(report), probe.max_late_s()};
}

double BusySeconds(const sim::SimulationReport& r) {
  return r.match_phase_seconds + r.move_advance_seconds +
         r.move_commit_seconds + r.index_update_seconds;
}

void CheckService(const service::ServiceReport& r, Checks& checks) {
  const service::ServiceStats& s = r.service;
  checks.Expect(s.offered + s.faults_injected == s.ingested + s.rejected,
                "funnel: offered + faults_injected == ingested + rejected");
  checks.Expect(s.ingested == s.malformed + s.shed + s.dispatched,
                "funnel: ingested == malformed + shed + dispatched");
  checks.Expect(
      s.dispatched == static_cast<uint64_t>(r.sim.requests_submitted),
      "service: dispatched == submitted");
  CheckReport(r.sim, "service", checks);
}

/// One repetition's record: what run.py aggregates.
struct Record {
  JsonObject metrics;  // one value per metric
  JsonObject samples;  // pooled across repetitions by run.py
  JsonObject counts;   // summed across repetitions into ratios by run.py
  JsonObject detail;   // informational, not a benchmark metric
  Checks checks;
  std::string signature;
  std::string shape_problem;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// --- Traced pass: stepping API, spans and read-only probes -------------------

/// Pending requests 0, 1, 2 and >= 3: a vehicle with four or more is too
/// rare on fleet_idle to time every repetition.
constexpr size_t kOccupancyBuckets = 4;
constexpr const char* kTrialInsertSpan[kOccupancyBuckets] = {
    "vehicle.trial_insert.occ0", "vehicle.trial_insert.occ1",
    "vehicle.trial_insert.occ2", "vehicle.trial_insert.occ3plus"};
/// Upcoming trips matched per probe, and the first few of them probed
/// layer by layer (candidates per occupancy bucket, nearest first).
constexpr size_t kMatchProbes = 8;
constexpr size_t kLayerProbes = 2;
constexpr size_t kVehiclesPerBucket = 8;
constexpr int kPriceRepeats = 32;
constexpr vehicle::RequestId kProbeIdBase = vehicle::RequestId{1} << 40;

/// Grid bounds plus a harness oracle, like core::IndexedDistanceProvider,
/// with a span around every exact distance so TrialInsert's self time
/// excludes shortest-path work.
class SpannedDistanceProvider : public vehicle::DistanceProvider {
 public:
  SpannedDistanceProvider(roadnet::DistanceOracle& oracle,
                          const roadnet::GridIndex& grid, SpanRecorder& spans)
      : oracle_(&oracle), grid_(&grid), spans_(&spans) {}

  roadnet::Weight Exact(roadnet::VertexId u, roadnet::VertexId v) override {
    SpanRecorder::Scope span(*spans_, "vehicle.exact");
    return oracle_->Distance(u, v);
  }
  roadnet::Weight Lower(roadnet::VertexId u, roadnet::VertexId v) override {
    return grid_->LowerBound(u, v);
  }
  roadnet::Weight Upper(roadnet::VertexId u, roadnet::VertexId v) override {
    return grid_->UpperBound(u, v);
  }

 private:
  roadnet::DistanceOracle* oracle_;
  const roadnet::GridIndex* grid_;
  SpanRecorder* spans_;
};

/// Phase-1 match counters, one slot per dispatch worker (the observer's
/// worker index is private to one thread per Dispatch call), merged at
/// the end.
struct MatchSums {
  uint64_t matches = 0;
  uint64_t examined = 0;
  uint64_t pruned = 0;
  uint64_t cells = 0;
  uint64_t options = 0;
  uint64_t computed = 0;
  vehicle::InsertionStats insertion;

  void Add(const core::MatchResult& m) {
    ++matches;
    examined += m.vehicles_examined;
    pruned += m.vehicles_pruned;
    cells += m.cells_visited;
    options += m.options.size();
    computed += m.distance_computations;
    insertion.Merge(m.insertion);
  }
  void Merge(const MatchSums& o) {
    matches += o.matches;
    examined += o.examined;
    pruned += o.pruned;
    cells += o.cells;
    options += o.options;
    computed += o.computed;
    insertion.Merge(o.insertion);
  }
};

/// Per-layer probe state of one traced pass. The oracles are the
/// harness's own clones, so probing never touches the system's caches.
struct Prober {
  Prober(core::PTRider& pt, SpanRecorder& recorder)
      : system(&pt),
        spans(&recorder),
        match_oracle(pt.oracle().Clone()),
        exact_oracle(pt.oracle().CloneWith([&pt] {
          roadnet::DistanceOracleOptions o;
          o.algorithm = pt.config().sp_algorithm;
          o.cache_capacity = 0;
          return o;
        }())) {}

  core::PTRider* system;
  SpanRecorder* spans;
  roadnet::DistanceOracle match_oracle;  // like a dispatch worker's
  roadnet::DistanceOracle exact_oracle;  // no cache: every query searches
  vehicle::RequestId next_id = kProbeIdBase;

  uint64_t distance_queries = 0;
  uint64_t distance_heap_pops = 0;
  std::vector<double> lower_bound_ns;
  std::array<uint64_t, kOccupancyBuckets> insert_calls{};
  std::array<vehicle::InsertionStats, kOccupancyBuckets> insert_stats{};
  util::RunningStats branches;
  std::vector<double> prepare_ns;
  std::vector<double> price_ns;
  std::vector<double> detour_bound_ns;
  double sink = 0.0;

  vehicle::Request MakeRequest(const sim::Trip& t, double now) {
    const core::Config& cfg = system->config();
    vehicle::Request r;
    r.id = next_id++;
    r.start = t.origin;
    r.destination = t.destination;
    r.num_riders = t.num_riders;
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    r.submit_time_s = now;
    return r;
  }

  roadnet::Weight Distance(roadnet::VertexId u, roadnet::VertexId v) {
    const uint64_t pops = exact_oracle.heap_pops();
    roadnet::Weight d = 0.0;
    {
      SpanRecorder::Scope span(*spans, "roadnet.distance");
      d = exact_oracle.Distance(u, v);
    }
    ++distance_queries;
    distance_heap_pops += exact_oracle.heap_pops() - pops;
    return d;
  }

  /// Matches the next upcoming trips as if they arrived now, then probes
  /// the first few layer by layer. Read-only against the system: const
  /// accessors, harness-owned oracles, fresh request ids.
  void Probe(const std::vector<sim::Trip>& trips, size_t next_trip,
             double now) {
    SpanRecorder::Scope probe(*spans, "probe");
    const core::SnapshotView view = system->Frozen();
    for (size_t k = 0; k < kMatchProbes && next_trip + k < trips.size();
         ++k) {
      const vehicle::Request r = MakeRequest(trips[next_trip + k], now);
      SpanRecorder::Scope span(*spans, "core.match");
      const core::MatchResult m = view.MatchReadOnly(r, now, match_oracle);
      bench::DoNotOptimize(m.options.size());
    }
    for (size_t k = 0; k < kLayerProbes && next_trip + k < trips.size();
         ++k) {
      ProbeLayers(MakeRequest(trips[next_trip + k], now), now);
    }
  }

  void ProbeLayers(const vehicle::Request& r, double now) {
    SpanRecorder::Scope probe(*spans, "probe.layers");
    const core::PTRider& pt = *system;
    const roadnet::GridIndex& grid = pt.grid();
    const std::vector<vehicle::Vehicle>& fleet = pt.fleet().vehicles();
    const pricing::PricingPolicy& policy = pt.pricing_policy();
    const vehicle::ScheduleContext ctx = pt.MakeScheduleContext(now);
    const roadnet::Weight radius = pt.config().MaxPickupRadiusM();
    const roadnet::Weight direct = Distance(r.start, r.destination);

    // Grid lower bounds: the admission scan every match starts with.
    Clock::time_point t0 = Clock::now();
    roadnet::Weight lb_sum = 0.0;
    for (const vehicle::Vehicle& v : fleet) {
      lb_sum += grid.LowerBound(v.location(), r.start);
    }
    bench::DoNotOptimize(lb_sum);
    lower_bound_ns.push_back(SecondsSince(t0) * 1e9 /
                             static_cast<double>(fleet.size()));

    // Vehicles the pick-up time lemma admits, nearest first per bucket.
    std::array<std::vector<std::pair<roadnet::Weight, vehicle::VehicleId>>,
               kOccupancyBuckets>
        admitted;
    for (const vehicle::Vehicle& v : fleet) {
      const roadnet::Weight lb =
          core::VehiclePickupLowerBound(grid, v, r.start);
      if (lb > radius) continue;
      const size_t bucket = std::min<size_t>(v.tree().NumPendingRequests(),
                                             kOccupancyBuckets - 1);
      admitted[bucket].emplace_back(lb, v.id());
    }

    SpannedDistanceProvider provider(exact_oracle, grid, *spans);
    std::vector<pricing::QuoteInputs> quotes;
    std::vector<roadnet::Weight> detour_lbs;
    std::vector<vehicle::VehicleId> probed;
    for (size_t b = 0; b < kOccupancyBuckets; ++b) {
      auto& list = admitted[b];
      const size_t take = std::min(kVehiclesPerBucket, list.size());
      std::partial_sort(list.begin(), list.begin() + static_cast<long>(take),
                        list.end());
      for (size_t i = 0; i < take; ++i) {
        const vehicle::Vehicle& v = pt.fleet().at(list[i].second);
        Distance(v.location(), r.start);
        std::vector<vehicle::InsertionCandidate> candidates;
        {
          SpanRecorder::Scope span(*spans, kTrialInsertSpan[b]);
          candidates =
              v.tree().TrialInsert(r, ctx, provider, &insert_stats[b]);
        }
        ++insert_calls[b];
        branches.Add(static_cast<double>(v.tree().NumBranches()));
        for (const vehicle::InsertionCandidate& c : candidates) {
          pricing::QuoteInputs q;
          q.num_riders = r.num_riders;
          q.committed_riders = v.tree().RidersCommitted();
          q.new_total = c.total_distance;
          q.current_total = v.tree().BestTotalDistance();
          q.direct = direct;
          quotes.push_back(q);
        }
        detour_lbs.push_back(
            core::VehicleDetourLowerBound(grid, v, r, direct));
        probed.push_back(v.id());
      }
    }
    if (probed.empty()) return;

    // Index registration of the probed vehicles (Prepare is pure).
    const vehicle::VehicleIndex& index = system->vehicle_index();
    t0 = Clock::now();
    for (const vehicle::VehicleId id : probed) {
      const vehicle::PendingUpdate u = index.Prepare(pt.fleet().at(id));
      bench::DoNotOptimize(u.cells.size());
    }
    prepare_ns.push_back(SecondsSince(t0) * 1e9 /
                         static_cast<double>(probed.size()));

    // Quotes and detour bounds over the probe's candidates, repeated so
    // one sample spans many clock ticks.
    if (!quotes.empty()) {
      t0 = Clock::now();
      for (int rep = 0; rep < kPriceRepeats; ++rep) {
        for (const pricing::QuoteInputs& q : quotes) sink += policy.Price(q);
      }
      price_ns.push_back(SecondsSince(t0) * 1e9 /
                         static_cast<double>(kPriceRepeats * quotes.size()));
    }
    t0 = Clock::now();
    for (int rep = 0; rep < kPriceRepeats; ++rep) {
      for (const roadnet::Weight lb : detour_lbs) {
        sink += policy.PriceWithDetourLb(r.num_riders, lb, direct);
      }
    }
    detour_bound_ns.push_back(
        SecondsSince(t0) * 1e9 /
        static_cast<double>(kPriceRepeats * detour_lbs.size()));
    bench::DoNotOptimize(sink);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs `trips` through the stepping API exactly as Simulator::Run's
/// batched loop does, with spans around every call and a probe every
/// `w.probe_every` windows while trips remain. Adds the per-layer metrics
/// and samples to `rec`; returns the report.
util::Result<sim::SimulationReport> SteppedPass(const Workload& w,
                                                uint64_t seed, Setup& setup,
                                                SpanRecorder& spans,
                                                Record& rec) {
  JsonObject& metrics = rec.metrics;
  JsonObject& samples = rec.samples;
  core::PTRider& pt = *setup.system;
  const std::vector<sim::Trip>& trips = setup.trips;
  const sim::SimulatorOptions sopts = MakeSimOptions(w, seed);
  std::vector<MatchSums> per_worker(kDispatchThreads);
  sim::Simulator sim(pt, sopts);
  PTRIDER_RETURN_IF_ERROR(sim.BeginStepping());
  sim.dispatcher()->SetMatchObserver(
      [&per_worker](size_t worker, const vehicle::Request&,
                    const core::MatchResult& m) {
        per_worker[worker % per_worker.size()].Add(m);
      });
  Prober prober(pt, spans);

  const Clock::time_point start = Clock::now();
  sim::SimulationReport report;
  const double end_time =
      (trips.empty() ? 0.0 : trips.back().time_s) + sopts.drain_s;
  const auto total_ticks =
      static_cast<int64_t>(std::ceil(end_time / sopts.tick_s));
  std::vector<vehicle::Request> pending;
  size_t next_trip = 0;
  double now = 0.0;
  int64_t next_window = 1;
  int64_t windows = 0;
  for (int64_t tick = 1; tick <= total_ticks; ++tick) {
    const double prev = now;
    now = std::min(static_cast<double>(tick) * sopts.tick_s, end_time);
    while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
      const vehicle::Request r = sim.MakeRequest(trips[next_trip++]);
      PTRIDER_RETURN_IF_ERROR(pt.ValidateRequest(r));
      pending.push_back(r);
    }
    if (now + 1e-9 >=
        static_cast<double>(next_window) * sopts.batch_window_s) {
      std::vector<vehicle::Request> batch;
      batch.swap(pending);
      {
        SpanRecorder::Scope span(spans, "sim.step_window");
        PTRIDER_RETURN_IF_ERROR(
            sim.StepWindow(std::move(batch), prev, now, report).status());
      }
      while (static_cast<double>(next_window) * sopts.batch_window_s <=
             now + 1e-9) {
        ++next_window;
      }
      if (++windows % w.probe_every == 0 && next_trip < trips.size()) {
        prober.Probe(trips, next_trip, now);
      }
    } else {
      SpanRecorder::Scope span(spans, "sim.advance_tick");
      PTRIDER_RETURN_IF_ERROR(sim.AdvanceTick(prev, now, report));
    }
  }
  PTRIDER_RETURN_IF_ERROR(sim.FinishStepping(report));
  rec.checks.Expect(pending.empty() && next_trip == trips.size(),
                "stepping: every trip dispatched, no pending batch at end");
  for (const vehicle::Vehicle& v : pt.fleet().vehicles()) {
    report.fleet_total_distance_m += v.total_distance_m();
    report.fleet_occupied_distance_m += v.occupied_distance_m();
    report.fleet_shared_distance_m += v.shared_distance_m();
  }
  report.simulated_seconds = now;
  report.wall_clock_seconds = SecondsSince(start);

  // roadnet
  samples.Array("roadnet.distance_us",
                Scaled(spans.Durations("roadnet.distance"), 1e6));
  metrics.Num("roadnet.heap_pops_per_query",
              Ratio(static_cast<double>(prober.distance_heap_pops),
                    static_cast<double>(prober.distance_queries)));
  metrics.Num("roadnet.grid_lb_ns",
              bench::Quantile(prober.lower_bound_ns, 0.5));
  MatchSums sums;
  for (const MatchSums& s : per_worker) sums.Merge(s);
  const auto matches = static_cast<double>(sums.matches);
  metrics.Num("roadnet.computed_per_match",
              Ratio(static_cast<double>(sums.computed), matches));

  // vehicle
  vehicle::InsertionStats probe_total;
  for (size_t b = 0; b < kOccupancyBuckets; ++b) {
    const auto calls = static_cast<double>(prober.insert_calls[b]);
    const vehicle::InsertionStats& st = prober.insert_stats[b];
    const std::string occ =
        b + 1 < kOccupancyBuckets ? "occ" + std::to_string(b) : "occ3plus";
    metrics.Num("vehicle.trial_insert_us." + occ,
                Ratio(spans.SelfSeconds(kTrialInsertSpan[b]) * 1e6, calls));
    metrics.Num("vehicle.trial_insert.seq." + occ,
                Ratio(static_cast<double>(st.sequences_generated), calls));
    rec.detail.Num("vehicle.trial_insert.calls." + occ, calls);
    probe_total.Merge(st);
  }
  const auto seqs = static_cast<double>(probe_total.sequences_generated);
  metrics.Num("vehicle.trial_insert.exact_ratio",
              Ratio(static_cast<double>(probe_total.exact_validated), seqs));
  metrics.Num("vehicle.trial_insert.accept_ratio",
              Ratio(static_cast<double>(probe_total.accepted), seqs));
  metrics.Num("vehicle.tree_branches.mean", prober.branches.mean());
  metrics.Num("vehicle.tree_branches.max", prober.branches.max());
  metrics.Num("vehicle.index.prepare_ns",
              bench::Quantile(prober.prepare_ns, 0.5));
  metrics.Num("vehicle.index.updates",
              static_cast<double>(pt.vehicle_index().update_count()));
  metrics.Num("vehicle.index.rebalances",
              static_cast<double>(pt.vehicle_index().rebalance_count()));

  // pricing
  metrics.Num("pricing.price_ns", bench::Quantile(prober.price_ns, 0.5));
  metrics.Num("pricing.detour_bound_ns",
              bench::Quantile(prober.detour_bound_ns, 0.5));

  // core
  const auto examined = static_cast<double>(sums.examined);
  const auto pruned = static_cast<double>(sums.pruned);
  metrics.Num("core.vehicles_examined_per_match", Ratio(examined, matches));
  metrics.Num("core.vehicles_pruned_per_match", Ratio(pruned, matches));
  metrics.Num("core.prune_ratio", Ratio(pruned, examined + pruned));
  metrics.Num("core.cells_visited_per_match",
              Ratio(static_cast<double>(sums.cells), matches));
  metrics.Num("core.options_per_match",
              Ratio(static_cast<double>(sums.options), matches));
  metrics.Num("core.insertion.sequences_per_match",
              Ratio(static_cast<double>(sums.insertion.sequences_generated),
                    matches));
  metrics.Num("core.insertion.bound_pruned_per_match",
              Ratio(static_cast<double>(sums.insertion.bound_pruned), matches));
  metrics.Num("core.insertion.exact_per_match",
              Ratio(static_cast<double>(sums.insertion.exact_validated),
                    matches));
  metrics.Num("core.insertion.accepted_per_match",
              Ratio(static_cast<double>(sums.insertion.accepted), matches));
  samples.Array("core.match_us", Scaled(spans.Durations("core.match"), 1e6));

  // dispatch
  const auto* parallel =
      dynamic_cast<const dispatch::ParallelDispatcher*>(sim.dispatcher());
  rec.checks.Expect(parallel != nullptr,
                "dispatch: dispatch_threads selects the ParallelDispatcher");
  if (parallel != nullptr) {
    metrics.Num("dispatch.match_phase_s", parallel->match_phase_seconds());
    metrics.Num("dispatch.commit_phase_s", parallel->commit_phase_seconds());
    metrics.Num("dispatch.rematches",
                static_cast<double>(parallel->rematch_count()));
    metrics.Num("dispatch.reprobes",
                static_cast<double>(parallel->reprobe_count()));
    metrics.Num("dispatch.wavefronts",
                static_cast<double>(parallel->wavefront_batches()));
    metrics.Num("dispatch.fallbacks",
                static_cast<double>(parallel->sequential_fallbacks()));
    metrics.Num("dispatch.rematch_ratio",
                Ratio(static_cast<double>(parallel->rematch_count()),
                      static_cast<double>(report.requests_submitted)));
  }

  // sim
  metrics.Num("sim.match_phase_s", report.match_phase_seconds);
  metrics.Num("sim.move_advance_s", report.move_advance_seconds);
  metrics.Num("sim.move_commit_s", report.move_commit_seconds);
  metrics.Num("sim.index_update_s", report.index_update_seconds);
  metrics.Num("sim.pipeline_stall_frac",
              Ratio(report.pipeline_stall_seconds, report.wall_clock_seconds));
  samples.Array("sim.step_window_ms",
                Scaled(spans.Durations("sim.step_window"), 1e3));
  samples.Array("sim.advance_tick_ms",
                Scaled(spans.Durations("sim.advance_tick"), 1e3));
  return report;
}

// --- Repetitions -------------------------------------------------------------

/// Simulator::Run over `setup`'s trips — the closed-loop pass every
/// workload has — with the report checks.
util::Result<sim::SimulationReport> ClosedLoop(const Workload& w,
                                               uint64_t seed, Setup& setup,
                                               Checks& checks) {
  sim::Simulator simulator(*setup.system, MakeSimOptions(w, seed));
  PTRIDER_ASSIGN_OR_RETURN(sim::SimulationReport r,
                           simulator.Run(setup.trips));
  CheckReport(r, "run", checks);
  checks.Expect(r.requests_submitted ==
                    static_cast<int64_t>(setup.trips.size()),
                "run: every trip submitted");
  return r;
}

/// Folds closed-loop reports into `rec`: throughput over all of them (the
/// work-weighted simulated seconds per wall second), the summed outcome
/// counts and one signature over every report.
void RecordClosedLoop(const std::vector<sim::SimulationReport>& reports,
                      Record& rec) {
  double sim_s = 0.0;
  double wall_s = 0.0;
  int64_t submitted = 0, assigned = 0, completed = 0, shared = 0;
  uint64_t signature = 0;
  for (const sim::SimulationReport& r : reports) {
    sim_s += r.simulated_seconds;
    wall_s += r.wall_clock_seconds;
    submitted += r.requests_submitted;
    assigned += r.requests_assigned;
    completed += r.requests_completed;
    shared += r.requests_shared;
    signature = bench::HashCombine(signature, bench::ReportSignature(r));
  }
  rec.metrics.Num("realtime_factor", sim_s / wall_s);
  rec.counts.Int("submitted", submitted)
      .Int("assigned", assigned)
      .Int("completed", completed)
      .Int("shared", shared);
  rec.signature = bench::Hex(signature);
}

util::Status UntracedCity(const Workload& w, uint64_t seed, Record& rec) {
  PTRIDER_ASSIGN_OR_RETURN(Setup setup, MakeSetup(w, seed));
  PTRIDER_ASSIGN_OR_RETURN(sim::SimulationReport r,
                           ClosedLoop(w, seed, setup, rec.checks));
  RecordClosedLoop({r}, rec);
  rec.metrics.Num("setup_s", setup.seconds)
      .Num("rss_mb", bench::PeakRssMiB());
  rec.samples.Array("response_ms",
                    Scaled(bench::HeldSamples(r.response_percentiles_s), 1e3));
  rec.detail.Num("wall_s", r.wall_clock_seconds)
      .Num("match_frac", MatchFrac(r))
      .Num("movement_frac", MovementFrac(r));
  rec.shape_problem = ShapeProblem(w, r);
  rec.attempted = r.requests_submitted;
  return util::Status::Ok();
}

/// service_open: the wall-clock service at the nominal rate gives the
/// rider-facing latency. Its wall time is set by the clock and trips
/// cannot complete within its short drain, so throughput and the outcome
/// metrics come from closed-loop passes: over the same arrivals and over
/// a second input, since one pass is too short to average out its input.
util::Status UntracedService(const Workload& w, uint64_t seed, Record& rec) {
  {
    PTRIDER_ASSIGN_OR_RETURN(Setup setup, MakeSetup(w, seed));
    PTRIDER_ASSIGN_OR_RETURN(ServiceRun run,
                             RunService(w, setup, seed, w.nominal_rate));
    const service::ServiceReport& r = run.report;
    const service::ServiceStats& s = r.service;
    CheckService(r, rec.checks);
    // Latencies are measured from the producer's push; they describe the
    // arrival schedule only while the producer keeps up with it.
    rec.checks.Expect(run.max_late_s * kWallTimeScale < kBatchWindowS,
                      "open loop: producer lateness stays under one window");
    const double to_wall_ms = 1e3 / kWallTimeScale;
    rec.metrics.Num("setup_s", setup.seconds);
    rec.samples.Array(
        "response_ms",
        Scaled(bench::HeldSamples(s.quote_latency_s), to_wall_ms));
    rec.detail.Num("wall_s", s.wall_clock_seconds)
        .Num("busy_frac", BusySeconds(r.sim) / s.wall_clock_seconds)
        .Num("assign_p99_ms", s.assign_latency_s.Value(99.0) * to_wall_ms)
        .Num("generator_late_ms", run.max_late_s * 1e3)
        .Int("max_queue_depth", static_cast<int64_t>(s.max_queue_depth));
    rec.attempted = static_cast<int64_t>(s.offered);
    rec.failed = static_cast<int64_t>(s.rejected + s.shed + s.malformed);
  }
  std::vector<sim::SimulationReport> reports;
  for (const uint64_t input : {seed, SubSeed(seed, kSecondPassStream)}) {
    PTRIDER_ASSIGN_OR_RETURN(Setup setup, MakeSetup(w, input));
    PTRIDER_ASSIGN_OR_RETURN(sim::SimulationReport r,
                             ClosedLoop(w, input, setup, rec.checks));
    reports.push_back(std::move(r));
  }
  RecordClosedLoop(reports, rec);
  rec.metrics.Num("rss_mb", bench::PeakRssMiB());
  return util::Status::Ok();
}

std::string QuoteOkName(double rate) {
  char name[48];
  std::snprintf(name, sizeof(name), "service.quote_ok_frac.r%02d",
                static_cast<int>(rate));
  return name;
}

/// The open-loop rate sweep: one wall-clock service run per step. A step
/// is ok when >= 99% of offered requests got a quote within the limit
/// (rejected and shed requests count as misses) and the queue found at
/// each drain stays within two windows of arrivals (it is not growing).
util::Status ServiceSweep(const Workload& w, uint64_t seed, Record& rec,
                          SpanRecorder& spans) {
  double max_ok_rps = 0.0;
  std::string steps = "[";
  for (const double rate : w.sweep_rates) {
    std::optional<ServiceRun> run;
    {
      SpanRecorder::Scope span(spans, "service.step");
      PTRIDER_ASSIGN_OR_RETURN(Setup setup, MakeSetup(w, seed));
      PTRIDER_ASSIGN_OR_RETURN(run, RunService(w, setup, seed, rate));
    }
    const service::ServiceReport& r = run->report;
    const service::ServiceStats& s = r.service;
    CheckService(r, rec.checks);
    const double limit_s = kQuoteLimitWallS * kWallTimeScale;
    size_t quoted_ok = 0;
    for (const double q : bench::HeldSamples(s.quote_latency_s)) {
      if (q <= limit_s) ++quoted_ok;
    }
    const double ok_frac = Ratio(static_cast<double>(quoted_ok),
                                 static_cast<double>(s.offered));
    const bool queue_ok =
        s.queue_depth.Value(99.0) <= 2.0 * rate * kBatchWindowS;
    const double wall_rps = rate * kWallTimeScale;
    if (ok_frac >= 0.99 && queue_ok) {
      max_ok_rps = std::max(max_ok_rps, wall_rps);
    }
    rec.metrics.Num(QuoteOkName(rate), ok_frac);
    const double to_wall_ms = 1e3 / kWallTimeScale;
    JsonObject step;
    step.Num("wall_rps", wall_rps)
        .Num("quote_ok_frac", ok_frac)
        .Bool("queue_ok", queue_ok)
        .Num("quote_p50_ms", s.quote_latency_s.Value(50.0) * to_wall_ms)
        .Num("quote_p99_ms", s.quote_latency_s.Value(99.0) * to_wall_ms)
        .Num("assign_p99_ms", s.assign_latency_s.Value(99.0) * to_wall_ms)
        .Num("queue_depth_p99", s.queue_depth.Value(99.0))
        .Num("busy_frac", BusySeconds(r.sim) / s.wall_clock_seconds)
        .Num("generator_late_ms", run->max_late_s * 1e3);
    if (steps.size() > 1) steps += ",";
    steps += step.str();
    if (rate != w.nominal_rate) continue;
    rec.metrics
        .Num("service.busy_frac", BusySeconds(r.sim) / s.wall_clock_seconds)
        .Num("service.queue_depth.p99", s.queue_depth.Value(99.0))
        .Num("service.max_queue_depth", static_cast<double>(s.max_queue_depth))
        .Num("service.rejected", static_cast<double>(s.rejected))
        .Num("service.shed", static_cast<double>(s.shed))
        .Num("service.failed_frac",
             Ratio(static_cast<double>(s.rejected + s.shed + s.malformed),
                   static_cast<double>(s.offered)))
        .Num("service.goodput_rps",
             static_cast<double>(s.assigned) /
                 (s.horizon_s / kWallTimeScale))
        .Num("service.generator_late_frac",
             run->max_late_s * kWallTimeScale / kBatchWindowS);
  }
  rec.metrics.Num("service.max_ok_rps", max_ok_rps);
  rec.detail.Raw("sweep", steps + "]");
  if (w.sweep_rates.size() > 1 &&
      max_ok_rps >= w.sweep_rates.back() * kWallTimeScale) {
    rec.shape_problem = "the rate sweep never crossed the throughput knee";
  }
  return util::Status::Ok();
}

/// The traced repetition: the closed-loop trips untraced through Run, then
/// traced through the stepping API on a fresh system — their signatures
/// must match — plus, on service_open, the rate sweep. service_open's
/// closed-loop trips are its nominal-rate arrivals.
util::Status Traced(const Workload& w, uint64_t seed,
                    const std::string& trace_file, Record& rec) {
  sim::SimulationReport run;
  {
    PTRIDER_ASSIGN_OR_RETURN(Setup untraced, MakeSetup(w, seed));
    PTRIDER_ASSIGN_OR_RETURN(run, ClosedLoop(w, seed, untraced, rec.checks));
  }
  PTRIDER_ASSIGN_OR_RETURN(Setup traced, MakeSetup(w, seed));

  SpanRecorder spans;
  PTRIDER_ASSIGN_OR_RETURN(sim::SimulationReport stepped,
                           SteppedPass(w, seed, traced, spans, rec));
  CheckReport(stepped, "stepping", rec.checks);
  const uint64_t run_sig = bench::ReportSignature(run);
  const uint64_t step_sig = bench::ReportSignature(stepped);
  rec.checks.Expect(run_sig == step_sig,
                    "traced: stepping-API signature equals Run's (probes "
                    "are read-only)");
  rec.signature = bench::Hex(step_sig);
  rec.attempted = stepped.requests_submitted;

  // Set-up cost of the two road-network indexes, built by the harness.
  Clock::time_point t0 = Clock::now();
  PTRIDER_ASSIGN_OR_RETURN(roadnet::GridIndex grid,
                           roadnet::GridIndex::Build(*traced.graph));
  rec.metrics.Num("roadnet.grid_build_s", SecondsSince(t0));
  bench::DoNotOptimize(grid.NumCells());
  t0 = Clock::now();
  const roadnet::CHIndex ch = roadnet::CHIndex::Build(*traced.graph);
  rec.metrics.Num("roadnet.ch_build_s", SecondsSince(t0));
  bench::DoNotOptimize(ch.num_shortcuts());

  // Tracing overhead: the stepped loop without its probes against Run.
  const double loop_wall_s =
      stepped.wall_clock_seconds - spans.TotalSeconds("probe");
  rec.metrics.Num("trace.overhead_frac",
                  loop_wall_s / run.wall_clock_seconds - 1.0);
  rec.detail.Num("run_wall_s", run.wall_clock_seconds)
      .Num("stepped_wall_s", stepped.wall_clock_seconds)
      .Num("probe_s", spans.TotalSeconds("probe"));

  if (w.open_loop) {
    PTRIDER_RETURN_IF_ERROR(ServiceSweep(w, seed, rec, spans));
  } else {
    for (const char* name :
         {"service.busy_frac", "service.queue_depth.p99",
          "service.max_queue_depth", "service.rejected", "service.shed",
          "service.failed_frac", "service.goodput_rps",
          "service.generator_late_frac", "service.max_ok_rps"}) {
      rec.metrics.Num(name, 0.0);
    }
    for (const double rate : kSweepRates) {
      rec.metrics.Num(QuoteOkName(rate), 0.0);
    }
  }
  if (!trace_file.empty() && !spans.WriteChromeTrace(trace_file)) {
    return util::Status::Internal("cannot write trace file " + trace_file);
  }
  return util::Status::Ok();
}

std::string HostJson(const bench::HostFacts& h) {
  JsonObject o;
  o.Int("hardware_threads", h.hardware_threads)
      .Str("cpu_model", h.cpu_model)
      .Str("build_type", h.build_type)
      .Str("compiler", h.compiler);
  return o.str();
}

std::string KnobsJson(const Workload& w) {
  const core::Config cfg = MakeConfig();
  const sim::SimulatorOptions sopts;
  JsonObject o;
  o.Num("batch_window_s", kBatchWindowS)
      .Int("dispatch_threads", cfg.dispatch_threads)
      .Int("index_shards", cfg.index_shards)
      .Int("move_jobs", w.move_jobs)
      .Int("pipeline_depth", sopts.pipeline_depth)
      .Str("sp_algorithm", roadnet::SpAlgorithmName(cfg.sp_algorithm))
      .Str("matcher", core::MatcherAlgorithmName(cfg.matcher))
      .Str("pricing", core::PricingPolicyKindName(cfg.pricing_policy))
      .Num("max_planned_pickup_s", cfg.max_planned_pickup_s)
      .Num("tick_s", sopts.tick_s)
      .Num("drain_s", w.open_loop ? w.service_drain_s : sopts.drain_s)
      .Int("city_rows", w.city_size)
      .Int("city_cols", w.city_size)
      .Int("taxis", static_cast<int64_t>(w.taxis))
      .Int("trips", static_cast<int64_t>(w.trips))
      .Num("arrival_s", w.arrival_s);
  if (w.open_loop) {
    o.Num("nominal_rate_wall_rps", w.nominal_rate * kWallTimeScale)
        .Num("wall_time_scale", kWallTimeScale)
        .Num("quote_limit_wall_ms", kQuoteLimitWallS * 1e3);
  }
  return o.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_ptrider --workload city_peak|fleet_idle|"
               "service_open --seed N [--traced] [--smoke] "
               "[--trace-file FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_file;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != argv[i] && *end == '\0';
    } else if (arg == "--trace-file" && has_value) {
      trace_file = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  const std::optional<Workload> w = FindWorkload(workload_name, smoke);
  if (!w || !have_seed) return Usage();

  Record rec;
  util::Status status;
  if (traced) {
    status = Traced(*w, seed, trace_file, rec);
  } else if (w->open_loop) {
    status = UntracedService(*w, seed, rec);
  } else {
    status = UntracedCity(*w, seed, rec);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bench_ptrider: %s\n", status.ToString().c_str());
    return 1;
  }

  std::string failures = "[";
  for (const std::string& f : rec.checks.failures()) {
    if (failures.size() > 1) failures += ",";
    failures += bench::JsonString(f);
  }
  JsonObject out;
  out.Str("workload", w->name)
      .Str("seed", std::to_string(seed))
      .Bool("traced", traced)
      .Bool("smoke", smoke)
      .Raw("host", HostJson(bench::ReadHostFacts()))
      .Raw("knobs", KnobsJson(*w))
      .Int("checks_run", rec.checks.run())
      .Raw("check_failures", failures + "]")
      .Str("signature", rec.signature)
      .Str("shape_problem", rec.shape_problem)
      .Int("attempted", rec.attempted)
      .Int("failed", rec.failed +
                         static_cast<int64_t>(rec.checks.failures().size()))
      .Raw("metrics", rec.metrics.str())
      .Raw("samples", rec.samples.str())
      .Raw("counts", rec.counts.str())
      .Raw("detail", rec.detail.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}
