// Trace tooling: generate a synthetic trip trace, persist it as CSV
// (the schema a real taxi trace — e.g. the paper's Shanghai dataset —
// would be converted into), reload it, and replay it through two
// simulator configurations for an apples-to-apples comparison.
//
// Usage:  ./build/examples/example_trace_tools [trips] [out.csv]
// Default: 400 trips. The road network, and the trace when no path is
// given, go to a private directory under $TMPDIR that is removed at exit.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "cli_args.h"
#include "core/ptrider.h"
#include "roadnet/graph_generator.h"
#include "roadnet/graph_io.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace {

constexpr char kUsage[] = "usage: example_trace_tools [trips] [out.csv]\n";

/// A fresh directory under $TMPDIR (mkdtemp), removed with its contents
/// when the example returns, so concurrent runs never share a file and
/// no run leaves one behind.
class ScratchDir {
 public:
  ScratchDir() {
    std::error_code error;
    std::string dir = (std::filesystem::temp_directory_path(error) /
                       "ptrider_trace_tools.XXXXXX")
                          .string();
    if (!error && mkdtemp(dir.data()) != nullptr) path_ = dir;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Empty when the directory could not be made.
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ptrider;
  const examples::CliArgs args(kUsage);
  if (argc > 3) args.Fail("too many arguments");
  const auto trips = static_cast<size_t>(
      argc > 1 ? args.Int("trips", argv[1], 0, 10000000) : 400);
  const ScratchDir scratch;
  if (scratch.path().empty()) {
    std::perror("example_trace_tools: cannot make a directory under TMPDIR");
    return 1;
  }
  const std::string trace_path =
      argc > 2 ? argv[2] : (scratch.path() / "trace.csv").string();
  const std::string graph_path = (scratch.path() / "network.csv").string();

  // 1. A city and a workload.
  roadnet::CityGridOptions city;
  city.rows = 22;
  city.cols = 22;
  city.seed = 5;
  auto graph = roadnet::MakeCityGrid(city);
  if (!graph.ok()) return 1;

  sim::HotspotWorkloadOptions wl;
  wl.num_trips = trips;
  wl.duration_s = 3600.0;
  wl.seed = 99;
  auto generated = sim::GenerateHotspotTrips(*graph, wl);
  if (!generated.ok()) return 1;

  // 2. Persist both artifacts: the road network and the trip trace.
  if (!roadnet::SaveGraphCsv(*graph, graph_path).ok()) return 1;
  if (!sim::SaveTrips(*generated, trace_path).ok()) return 1;
  std::printf("wrote %s (%zu vertices) and %s (%zu trips)\n",
              graph_path.c_str(), graph->NumVertices(), trace_path.c_str(),
              generated->size());

  // 3. Reload from disk — the same entry point a real trace would use.
  auto reloaded_graph = roadnet::LoadGraphCsv(graph_path);
  if (!reloaded_graph.ok()) {
    std::fprintf(stderr, "%s\n",
                 reloaded_graph.status().ToString().c_str());
    return 1;
  }
  auto reloaded = sim::LoadTrips(*reloaded_graph, trace_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "%s\n", reloaded.status().ToString().c_str());
    return 1;
  }

  // 4. Replay the identical trace under two rider populations.
  std::printf("\nreplaying %zu trips with 70 taxis under two rider "
              "populations:\n\n",
              reloaded->size());
  std::printf("  %-18s %10s %9s %9s %10s %9s\n", "rider model",
              "resp(ms)", "sharing", "served", "price", "wait(s)");
  for (const auto model : {sim::RiderChoiceModel::kEarliestPickup,
                           sim::RiderChoiceModel::kCheapest}) {
    core::Config cfg;
    cfg.matcher = core::MatcherAlgorithm::kDualSide;
    auto sys = core::PTRider::Create(*reloaded_graph, cfg);
    if (!sys.ok()) return 1;
    if (!(*sys)->InitFleetUniform(70, 8).ok()) return 1;
    sim::SimulatorOptions sopts;
    sopts.choice.model = model;
    sim::Simulator simulator(**sys, sopts);
    auto report = simulator.Run(*reloaded);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-18s %10.3f %8.1f%% %8.1f%% %10.2f %9.1f\n",
                sim::RiderChoiceModelName(model),
                1e3 * report->AvgResponseTimeS(),
                100.0 * report->SharingRate(),
                100.0 * report->ServiceRate(),
                report->quoted_price.mean(),
                report->pickup_wait_s.mean());
  }
  std::printf(
      "\nPrice-sensitive riders pay less and wait more than\n"
      "time-sensitive riders on the identical demand — the behavioral\n"
      "spread PTRider's multi-option answers enable.\n");
  return 0;
}
