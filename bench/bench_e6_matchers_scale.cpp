// E6 — Fig. 4(c) admin panel: matching-algorithm selection vs fleet size.
//
// Per-request matching latency of naive / single-side / dual-side as the
// number of taxis grows. The paper's efficiency claim: the indexed
// matchers stay near-flat (they touch only nearby cells) while naive
// examines the whole fleet.

#include <cstdio>

#include "bench_common.h"
#include "util/random.h"
#include "util/stats.h"

int main() {
  using namespace ptrider;
  bench::PrintHeader(
      "E6", "Fig. 4(c) matcher selection vs number of taxis",
      "per-request match latency and work counters by fleet size");

  auto graph = bench::MakeBenchCity(50, 50);
  if (!graph.ok()) return 1;
  sim::HotspotWorkloadOptions wopts;
  wopts.num_trips = 2000;
  wopts.duration_s = 3600.0;
  auto trips = sim::GenerateHotspotTrips(*graph, wopts);
  if (!trips.ok()) return 1;

  std::printf("%7s %-12s %10s %10s %12s %12s %10s\n", "taxis", "matcher",
              "mean(ms)", "p95(ms)", "examined", "pruned", "sp-calls");

  for (const size_t taxis : {250u, 500u, 1000u, 2000u}) {
    for (const auto algo : {core::MatcherAlgorithm::kNaive,
                            core::MatcherAlgorithm::kSingleSide,
                            core::MatcherAlgorithm::kDualSide}) {
      core::Config cfg;
      cfg.matcher = algo;
      auto sys = bench::MakeBenchSystem(*graph, cfg, taxis);
      if (!sys.ok()) return 1;
      bench::WarmupAssignments(**sys, *trips,
                               std::min<size_t>(taxis / 3, 300), 0.0);

      util::RunningStats lat;
      util::Percentiles pct;
      util::RunningStats examined;
      util::RunningStats pruned;
      util::RunningStats sp;
      for (size_t i = 300; i < 500; ++i) {
        vehicle::Request r;
        r.id = static_cast<vehicle::RequestId>(2000000 + i);
        r.start = (*trips)[i].origin;
        r.destination = (*trips)[i].destination;
        r.num_riders = (*trips)[i].num_riders;
        r.max_wait_s = cfg.default_max_wait_s;
        r.service_sigma = cfg.default_service_sigma;
        auto m = (*sys)->SubmitRequest(r, 1.0);
        if (!m.ok()) return 1;
        lat.Add(m->match_seconds * 1e3);
        pct.Add(m->match_seconds * 1e3);
        examined.Add(static_cast<double>(m->vehicles_examined));
        pruned.Add(static_cast<double>(m->vehicles_pruned));
        sp.Add(static_cast<double>(m->distance_computations));
      }
      std::printf("%7zu %-12s %10.3f %10.3f %12.1f %12.1f %10.1f\n", taxis,
                  core::MatcherAlgorithmName(algo), lat.mean(),
                  pct.Value(95), examined.mean(), pruned.mean(),
                  sp.mean());
    }
  }
  std::printf(
      "\nShape check: naive examines every taxi, so its examined count\n"
      "grows linearly with taxis and its distinct distance lookups\n"
      "(sp-calls) grow with them; its latency grows sub-linearly, since\n"
      "one pair of request-anchor searches serves every vehicle, and stays\n"
      "above single/dual-side at every size. Single/dual-side examine a\n"
      "near-flat number of taxis; dual-side <= single-side; all return\n"
      "identical option sets (tested elsewhere).\n");
  return 0;
}
