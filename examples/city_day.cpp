// A day of ridesharing in a synthetic city — the Section-4 demonstration
// at example scale. Generates a Shanghai-like hotspot workload, runs the
// event-driven simulator with the dual-side matcher, and prints the
// website interface's statistics panel (current time, average response
// time, average sharing rate, ...).
//
// Usage:  ./build/examples/example_city_day [taxis] [trips] [hours]
//             [--jobs N] [--batch-window S] [--move-jobs N]
//             [--sp-algo dijkstra|astar|ch]
//             [--snapshot FILE]
// Defaults: 150 taxis, 2000 trips, 4 hours, and the arrivals of each
// one-second tick dispatched together through the batch dispatcher
// (src/dispatch/). `--batch-window S` dispatches the arrivals of every S
// simulated seconds together instead (0, the default, is one window per
// tick); `--jobs N` matches each batch on N threads (1 to 256,
// default 1) and, given without `--batch-window`, implies a 2 s window;
// `--move-jobs N` runs the per-tick vehicle-movement advance on N
// threads (1 to 256); `--sp-algo`
// picks the distance oracle's point-to-point engine (`ch` preprocesses
// a contraction hierarchy once, shared by every worker thread's oracle
// clone). Results are identical for every `--jobs` / `--move-jobs`
// value — only the wall clock moves — and for every `--sp-algo`
// (DESIGN.md section 7.4). `--snapshot FILE` skips
// city generation and all index preprocessing by memory-mapping a file
// written by tools/snapshot_build — same simulation results, startup in
// milliseconds (DESIGN.md section 12).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.h"
#include "core/ptrider.h"
#include "roadnet/graph_generator.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "snapshot/snapshot.h"
#include "snapshot/system.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

constexpr char kUsage[] =
    "usage: example_city_day [taxis] [trips] [hours] [--jobs N] "
    "[--batch-window S]\n"
    "           [--move-jobs N] [--sp-algo dijkstra|astar|ch] "
    "[--snapshot FILE]\n"
    "  --batch-window S: dispatch window, simulated seconds (default 0:\n"
    "                    one per tick; --jobs alone implies 2)\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace ptrider;
  util::SetLogLevel(util::LogLevel::kInfo);
  const examples::CliArgs args(kUsage);

  int jobs = 1;
  bool jobs_given = false;
  int move_jobs = 1;
  double batch_window_s = 0.0;
  std::string snapshot_path;
  roadnet::SpAlgorithm sp_algo = roadnet::SpAlgorithm::kAStar;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--snapshot needs a value\n");
        return 1;
      }
      snapshot_path = argv[++i];
      continue;
    }
    const bool is_jobs = std::strcmp(argv[i], "--jobs") == 0;
    const bool is_move_jobs = std::strcmp(argv[i], "--move-jobs") == 0;
    const bool is_window = std::strcmp(argv[i], "--batch-window") == 0;
    if (std::strcmp(argv[i], "--sp-algo") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--sp-algo needs a value\n");
        return 1;
      }
      if (!roadnet::SpAlgorithmFromName(argv[++i], &sp_algo)) {
        std::fprintf(stderr,
                     "--sp-algo: unknown algorithm '%s' (expected "
                     "dijkstra, astar or ch)\n",
                     argv[i]);
        return 1;
      }
      continue;
    }
    if (is_jobs || is_move_jobs || is_window) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        return 1;
      }
      const char* flag = argv[i];
      const char* value = argv[++i];
      if (is_jobs) {
        jobs = static_cast<int>(args.Int(flag, value, 1, core::kMaxThreads));
        jobs_given = true;
      } else if (is_move_jobs) {
        move_jobs =
            static_cast<int>(args.Int(flag, value, 1, core::kMaxThreads));
      } else {
        batch_window_s = args.Number(flag, value, 0.0, 86400.0);
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() > 3) args.Fail("too many positional arguments");
  const auto taxis = static_cast<size_t>(
      !positional.empty() ? args.Int("taxis", positional[0], 1, 1000000)
                          : 150);
  const auto trips = static_cast<size_t>(
      positional.size() > 1 ? args.Int("trips", positional[1], 0, 10000000)
                            : 2000);
  const double hours =
      positional.size() > 2 ? args.Number("hours", positional[2], 1e-3, 1000.0)
                            : 4.0;
  if (jobs_given && batch_window_s <= 0.0) batch_window_s = 2.0;

  core::Config cfg;  // defaults: 48 km/h, capacity 3, w = 5 min
  cfg.matcher = core::MatcherAlgorithm::kDualSide;
  cfg.dispatch_threads = jobs;
  cfg.sp_algorithm = sp_algo;
  cfg.snapshot_path = snapshot_path;

  // The snapshot (when given) owns the graph and index memory; it must
  // stay alive for the system's whole lifetime.
  std::optional<snapshot::Snapshot> snap;
  util::Result<roadnet::RoadNetwork> generated =
      util::Status::Internal("no in-memory graph");
  const roadnet::RoadNetwork* net = nullptr;
  std::unique_ptr<core::PTRider> system;
  if (!cfg.snapshot_path.empty()) {
    auto loaded = snapshot::Snapshot::Load(cfg.snapshot_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    snap = std::move(*loaded);
    net = &snap->graph();
    std::printf("City: %s\n", net->DebugString().c_str());
    std::printf(
        "Snapshot: '%s' (%.1f MiB) — graph + grid + CH mapped in "
        "%.1f ms\n",
        cfg.snapshot_path.c_str(),
        static_cast<double>(snap->info().file_bytes) / (1024.0 * 1024.0),
        snap->info().load_seconds * 1e3);
    auto created = snapshot::CreateSystem(*snap, cfg);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    system = std::move(*created);
  } else {
    roadnet::CityGridOptions city;
    city.rows = 40;
    city.cols = 40;
    city.spacing_m = 250.0;
    city.seed = 20090529;  // the trace's date, for flavor
    generated = roadnet::MakeCityGrid(city);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    net = &*generated;
    std::printf("City: %s\n", net->DebugString().c_str());
    auto created = core::PTRider::Create(*net, cfg);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    system = std::move(*created);
  }
  core::PTRider& pt = *system;
  std::printf("Index: %s\n", pt.grid().DebugString().c_str());
  std::printf("SP engine: %s", roadnet::SpAlgorithmName(sp_algo));
  if (const roadnet::CHIndex* ch = pt.oracle().ch_index()) {
    // A snapshot holds no wall clock: a mapped CH was not built here.
    const std::string origin =
        snap.has_value()
            ? std::string("loaded from snapshot")
            : util::StrFormat("preprocessed %.2f s", ch->build_seconds());
    std::printf(" (%s, %zu shortcuts, %.1f MiB, shared across worker "
                "clones)",
                origin.c_str(), ch->num_shortcuts(),
                static_cast<double>(ch->MemoryBytes()) / (1024.0 * 1024.0));
  }
  std::printf("\n");
  if (!pt.InitFleetUniform(taxis, /*seed=*/1).ok()) return 1;

  sim::HotspotWorkloadOptions workload;
  workload.num_trips = trips;
  workload.duration_s = hours * 3600.0;
  workload.seed = 42;
  auto trace = sim::GenerateHotspotTrips(*net, workload);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  std::printf("Workload: %zu trips over %.1f h, %zu taxis, matcher=%s\n",
              trace->size(), hours, taxis,
              core::MatcherAlgorithmName(cfg.matcher));
  if (batch_window_s > 0.0) {
    std::printf("Dispatch: batch, %d matching thread(s), %.1f s arrival "
                "window\n",
                jobs, batch_window_s);
  } else {
    std::printf("Dispatch: batch, %d matching thread(s), one window per "
                "tick\n",
                jobs);
  }
  std::printf("Movement: %d thread(s)\n\n", move_jobs);

  sim::SimulatorOptions sopts;
  sopts.verbose = true;
  sopts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
  sopts.batch_window_s = batch_window_s;
  sopts.move_jobs = move_jobs;
  sim::Simulator simulator(pt, sopts);
  auto report = simulator.Run(*trace);
  if (!report.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", report->ToString().c_str());
  return 0;
}
