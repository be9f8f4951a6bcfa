// The website interface's admin panel (Fig. 4(c)): the operator sets taxi
// capacity, number of taxis, maximal waiting time, service constraint and
// the matching algorithm, then watches the statistics. This example
// sweeps one parameter at a time around a base scenario and prints the
// panel's key statistics for each setting.
//
// Usage:  ./build/examples/example_admin_sweep [trips]
// Default: 600 trips over one hour on a 25x25 city.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_args.h"
#include "core/ptrider.h"
#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace {

using namespace ptrider;

struct Scenario {
  std::string label;
  core::Config config;
  size_t taxis = 80;
};

int RunScenario(const roadnet::RoadNetwork& graph,
                const std::vector<sim::Trip>& trips, const Scenario& s) {
  auto system = core::PTRider::Create(graph, s.config);
  if (!system.ok()) return 1;
  if (!(*system)->InitFleetUniform(s.taxis, /*seed=*/3).ok()) return 1;
  sim::SimulatorOptions sopts;
  sopts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
  sim::Simulator simulator(**system, sopts);
  auto report = simulator.Run(trips);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", s.label.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("  %-26s %9.3f %9.1f%% %9.1f%% %8.2f %8.1fs\n",
              s.label.c_str(), 1e3 * report->AvgResponseTimeS(),
              100.0 * report->SharingRate(), 100.0 * report->ServiceRate(),
              report->options_per_request.mean(),
              report->pickup_wait_s.mean());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const examples::CliArgs args("usage: example_admin_sweep [trips]\n");
  if (argc > 2) args.Fail("too many arguments");
  const auto trips = static_cast<size_t>(
      argc > 1 ? args.Int("trips", argv[1], 0, 10000000) : 600);

  roadnet::CityGridOptions city;
  city.rows = 25;
  city.cols = 25;
  city.seed = 99;
  auto graph = roadnet::MakeCityGrid(city);
  if (!graph.ok()) return 1;

  sim::HotspotWorkloadOptions wl;
  wl.num_trips = trips;
  wl.duration_s = 3600.0;
  wl.seed = 17;
  auto trace = sim::GenerateHotspotTrips(*graph, wl);
  if (!trace.ok()) return 1;

  std::printf("Admin parameter sweep: %zu trips / 1 h on %zu vertices\n\n",
              trace->size(), graph->NumVertices());
  std::printf("  %-26s %9s %10s %10s %8s %9s\n", "setting",
              "resp(ms)", "sharing", "served", "opts", "wait");

  core::Config base;  // capacity 3, w = 5 min, sigma = 0.2, dual-side

  std::printf("-- matching algorithm --\n");
  for (const auto algo :
       {core::MatcherAlgorithm::kNaive, core::MatcherAlgorithm::kSingleSide,
        core::MatcherAlgorithm::kDualSide}) {
    Scenario s;
    s.config = base;
    s.config.matcher = algo;
    s.label = core::MatcherAlgorithmName(algo);
    if (RunScenario(*graph, *trace, s) != 0) return 1;
  }

  std::printf("-- number of taxis --\n");
  for (const size_t taxis : {40u, 80u, 160u}) {
    Scenario s;
    s.config = base;
    s.taxis = taxis;
    s.label = std::to_string(taxis) + " taxis";
    if (RunScenario(*graph, *trace, s) != 0) return 1;
  }

  std::printf("-- taxi capacity --\n");
  for (const int cap : {2, 3, 4, 6}) {
    Scenario s;
    s.config = base;
    s.config.vehicle_capacity = cap;
    s.label = "capacity " + std::to_string(cap);
    if (RunScenario(*graph, *trace, s) != 0) return 1;
  }

  std::printf("-- maximal waiting time --\n");
  for (const double w : {120.0, 300.0, 600.0}) {
    Scenario s;
    s.config = base;
    s.config.default_max_wait_s = w;
    s.label = "w = " + std::to_string(static_cast<int>(w)) + " s";
    if (RunScenario(*graph, *trace, s) != 0) return 1;
  }

  std::printf("-- service constraint --\n");
  for (const double sigma : {0.1, 0.2, 0.4}) {
    Scenario s;
    s.config = base;
    s.config.default_service_sigma = sigma;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "sigma = %.1f", sigma);
    s.label = buf;
    if (RunScenario(*graph, *trace, s) != 0) return 1;
  }
  return 0;
}
