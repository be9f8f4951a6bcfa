// E10 — Section 3.3 ablations.
//
// (a) Pruning lemmas on/off: single-side search vs naive on the same
//     scenario quantifies what the index pruning buys.
// (b) Destination skew: dual-side's extra pruning pays off exactly when
//     schedules near the start differ strongly in destination detour —
//     the paper's "near the start, far from the destination" case. We
//     compare matchers on a uniform workload vs a hub-and-spoke workload
//     on a ring city where many vehicles pass near downtown starts but
//     head to opposite suburbs.

#include <cstdio>

#include "bench_common.h"
#include "util/random.h"
#include "util/stats.h"

namespace {

using namespace ptrider;

struct Row {
  double mean_ms = 0.0;
  double examined = 0.0;
  double pruned = 0.0;
  double sp_calls = 0.0;
};

Row MeasureMatcher(core::PTRider& sys, const std::vector<sim::Trip>& trips,
                   size_t from, size_t to) {
  util::RunningStats lat;
  util::RunningStats examined;
  util::RunningStats pruned;
  util::RunningStats sp;
  for (size_t i = from; i < to && i < trips.size(); ++i) {
    vehicle::Request r;
    r.id = static_cast<vehicle::RequestId>(3000000 + i);
    r.start = trips[i].origin;
    r.destination = trips[i].destination;
    r.num_riders = trips[i].num_riders;
    r.max_wait_s = sys.config().default_max_wait_s;
    r.service_sigma = sys.config().default_service_sigma;
    auto m = sys.SubmitRequest(r, 1.0);
    if (!m.ok()) continue;
    lat.Add(m->match_seconds * 1e3);
    examined.Add(static_cast<double>(m->vehicles_examined));
    pruned.Add(static_cast<double>(m->vehicles_pruned));
    sp.Add(static_cast<double>(m->distance_computations));
  }
  return {lat.mean(), examined.mean(), pruned.mean(), sp.mean()};
}

int RunWorkload(const char* label, const roadnet::RoadNetwork& graph,
                const std::vector<sim::Trip>& trips) {
  std::printf("-- %s --\n", label);
  std::printf("  %-12s %10s %11s %11s %10s\n", "matcher", "mean(ms)",
              "examined", "pruned", "sp-calls");
  for (const auto algo :
       {core::MatcherAlgorithm::kNaive, core::MatcherAlgorithm::kSingleSide,
        core::MatcherAlgorithm::kDualSide}) {
    core::Config cfg;
    cfg.matcher = algo;
    cfg.default_service_sigma = 0.3;
    auto sys = bench::MakeBenchSystem(graph, cfg, /*taxis=*/1200);
    if (!sys.ok()) return 1;
    bench::WarmupAssignments(**sys, trips, 400, 0.0);
    const Row row = MeasureMatcher(**sys, trips, 400, 700);
    std::printf("  %-12s %10.3f %11.1f %11.1f %10.1f\n",
                core::MatcherAlgorithmName(algo), row.mean_ms, row.examined,
                row.pruned, row.sp_calls);
  }
  return 0;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "E10", "Section 3.3 ablation: pruning lemmas / dual-side payoff",
      "naive (no pruning) vs single-side vs dual-side, on a uniform and "
      "a destination-skewed workload");

  // (a) Uniform workload on a street grid.
  auto grid_city = bench::MakeBenchCity(45, 45);
  if (!grid_city.ok()) return 1;
  sim::HotspotWorkloadOptions uniform;
  uniform.num_trips = 1200;
  uniform.duration_s = 3600.0;
  uniform.origin_hotspot_bias = 0.0;       // fully uniform
  uniform.destination_hotspot_bias = 0.0;
  auto uniform_trips = sim::GenerateHotspotTrips(*grid_city, uniform);
  if (!uniform_trips.ok()) return 1;
  if (RunWorkload("uniform workload (street grid)", *grid_city,
                  *uniform_trips) != 0) {
    return 1;
  }

  // (b) Destination-skewed workload: starts downtown, destinations at a
  // single far hotspot. Vehicles near the start corridor head anywhere,
  // so destination-side pruning discriminates strongly.
  sim::HotspotWorkloadOptions skewed;
  skewed.num_trips = 1200;
  skewed.duration_s = 3600.0;
  skewed.num_hotspots = 1;
  skewed.hotspot_stddev_m = 600.0;
  skewed.origin_hotspot_bias = 0.9;
  skewed.destination_hotspot_bias = 0.0;  // destinations spread out
  skewed.seed = 31;
  auto skewed_trips = sim::GenerateHotspotTrips(*grid_city, skewed);
  if (!skewed_trips.ok()) return 1;
  if (RunWorkload("origin-hub workload (street grid)", *grid_city,
                  *skewed_trips) != 0) {
    return 1;
  }

  std::printf(
      "\nShape check: naive examines all 1200 taxis and makes the most\n"
      "distinct distance lookups (sp-calls: first lookups in the request's\n"
      "two anchor searches, which all three matchers read); single-side\n"
      "prunes most of those vehicles, and dual-side prunes at least as\n"
      "many and makes no more lookups on either workload. Naive stays the\n"
      "slowest. Dual-side's relative gain is largest when good options are\n"
      "scarce (uniform sprawl: the skyline fills slowly, so price-based\n"
      "pruning carries the load); under hub concentration both indexed\n"
      "matchers terminate early.\n");
  return 0;
}
