// E11 — Section 3.2: real-time index maintenance.
//
// The demo's vehicles "update their locations periodically, and update
// their trip schedules when they pick up or drop off riders", so the
// index modules must absorb a high update rate. Measures vehicle-index
// update throughput for location updates (empty and loaded vehicles)
// and for pickup/dropoff schedule changes.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "util/random.h"

namespace {

using namespace ptrider;

struct UpdateScenario {
  roadnet::RoadNetwork graph;
  std::unique_ptr<core::PTRider> sys;
  std::vector<sim::Trip> trips;
};

UpdateScenario* MakeScenario(bool loaded) {
  auto* s = new UpdateScenario();
  auto g = bench::MakeBenchCity(40, 40);
  if (!g.ok()) std::abort();
  s->graph = std::move(g).value();
  core::Config cfg;
  auto sys = bench::MakeBenchSystem(s->graph, cfg, 2000);
  if (!sys.ok()) std::abort();
  s->sys = std::move(sys).value();
  sim::HotspotWorkloadOptions wopts;
  wopts.num_trips = 2000;
  wopts.duration_s = 3600.0;
  auto trips = sim::GenerateHotspotTrips(s->graph, wopts);
  if (!trips.ok()) std::abort();
  s->trips = std::move(trips).value();
  if (loaded) bench::WarmupAssignments(*s->sys, s->trips, 700, 0.0);
  return s;
}

void BM_LocationUpdate(benchmark::State& state, bool loaded) {
  static UpdateScenario* empty_scenario = MakeScenario(false);
  static UpdateScenario* loaded_scenario = MakeScenario(true);
  UpdateScenario* s = loaded ? loaded_scenario : empty_scenario;
  vehicle::VehicleIndex& index = s->sys->vehicle_index();
  util::Rng rng(4);
  const size_t fleet = s->sys->fleet().size();
  for (auto _ : state) {
    const auto id = static_cast<vehicle::VehicleId>(
        rng.UniformInt(0, static_cast<int64_t>(fleet) - 1));
    // Re-register at current state (the periodic-location-update path).
    index.Update(s->sys->fleet().at(id));
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_LocationUpdateEmptyFleet(benchmark::State& state) {
  BM_LocationUpdate(state, false);
}
void BM_LocationUpdateLoadedFleet(benchmark::State& state) {
  BM_LocationUpdate(state, true);
}

BENCHMARK(BM_LocationUpdateEmptyFleet);
BENCHMARK(BM_LocationUpdateLoadedFleet);

/// A failed per-event update is a bug in the library path this bench
/// drives: report it and abort, so a smoke run fails loudly.
[[noreturn]] void Fail(const char* call, const util::Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", call, status.ToString().c_str());
  std::abort();
}

/// Full pickup/dropoff churn: commit a request, drive the schedule, let
/// the index track every transition.
void BM_AssignServeCycle(benchmark::State& state) {
  static UpdateScenario* s = MakeScenario(false);
  util::Rng rng(9);
  size_t trip_idx = 0;
  vehicle::RequestId next_id = 5000000;
  for (auto _ : state) {
    const sim::Trip& t = s->trips[trip_idx++ % s->trips.size()];
    vehicle::Request r;
    r.id = next_id++;
    r.start = t.origin;
    r.destination = t.destination;
    r.num_riders = 1;
    r.max_wait_s = 1e9;  // keep schedules alive while we teleport
    r.service_sigma = 0.5;
    auto m = s->sys->SubmitRequest(r, 0.0);
    if (!m.ok() || m->options.empty()) continue;
    const core::Option& o = m->options.front();
    if (!s->sys->ChooseOption(r, o, 0.0).ok()) continue;
    // Serve the whole schedule stop by stop (teleport along paths).
    const vehicle::VehicleId vid = o.vehicle;
    while (!s->sys->fleet().at(vid).tree().empty()) {
      const vehicle::Vehicle& v = s->sys->fleet().at(vid);
      const vehicle::Stop stop = v.tree().BestBranch().stops.front();
      const double leg =
          s->sys->oracle().Distance(v.location(), stop.location);
      const util::Status moved = s->sys->UpdateVehicleLocation(
          vid, stop.location, leg, 0.0, v.tree().BestBranch().stops);
      if (!moved.ok()) Fail("UpdateVehicleLocation", moved);
      const auto arrived = s->sys->VehicleArrivedAtStop(vid, 0.0);
      if (!arrived.ok()) Fail("VehicleArrivedAtStop", arrived.status());
    }
  }
  state.counters["index_updates"] = static_cast<double>(
      s->sys->vehicle_index().update_count());
}

BENCHMARK(BM_AssignServeCycle)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  ptrider::bench::PrintHeader(
      "E11", "Section 3.2 index maintenance",
      "vehicle-index update throughput: location updates and full "
      "assign/pickup/dropoff cycles");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "\nShape check: location updates run at millions/s (no-op fast\n"
      "path) and full service cycles at thousands/s — far above the\n"
      "demo's 17k-taxi update workload.\n");
  return 0;
}
