// E19 — open-loop service capacity: the dispatch server under a Poisson
// arrival-rate sweep, locating the throughput knee.
//
// Each step runs DispatchService (virtual clock, deterministic) against
// Poisson arrivals at a fixed rate with the service-time model on: the
// modeled server spends assign_cost_s per dispatched request, so its
// capacity is exactly 1/assign_cost_s req/s. Below the knee the queue
// drains every window and latency sits at the window scale; above it the
// backlog grows, the deadline shedder starts dropping, goodput plateaus
// at capacity while p99 latency pins near the deadline and the shed rate
// climbs — graceful degradation instead of collapse. The knee is read
// off the sweep as the first rate whose offered load exceeds sustained
// goodput by > 5%.
//
// A repeated step verifies bit-reproducibility: same seed, same rate,
// bit-identical service signature (counts + latency-percentile bits +
// the simulation report's semantic fields) — the virtual-clock
// determinism contract of DESIGN.md section 11.
//
// Usage: bench_e19_open_loop [taxis] [duration_s] [--ci]
//   --ci: single low-rate step + reproducibility check (seconds, for CI),
//         no JSON.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "service/dispatch_service.h"

namespace {

uint64_t HashCombine(uint64_t h, uint64_t x) {
  return (h ^ (x + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Signature over everything a virtual-clock service run promises to be
/// deterministic: the admission funnel, the latency-percentile bits and
/// the simulation report's semantic fields. Wall-clock aggregates are
/// excluded by construction.
uint64_t ServiceSignature(const ptrider::service::ServiceReport& r) {
  uint64_t h = 1469598103934665603ULL;
  h = HashCombine(h, r.service.offered);
  h = HashCombine(h, r.service.ingested);
  h = HashCombine(h, r.service.rejected);
  h = HashCombine(h, r.service.shed);
  h = HashCombine(h, r.service.dispatched);
  h = HashCombine(h, r.service.assigned);
  h = HashCombine(h, r.service.max_queue_depth);
  for (double p : {50.0, 99.0, 99.9}) {
    h = HashCombine(h, DoubleBits(r.service.quote_latency_s.Value(p)));
    h = HashCombine(h, DoubleBits(r.service.assign_latency_s.Value(p)));
  }
  h = HashCombine(h, static_cast<uint64_t>(r.sim.requests_assigned));
  h = HashCombine(h, static_cast<uint64_t>(r.sim.requests_completed));
  h = HashCombine(h, static_cast<uint64_t>(r.sim.requests_shared));
  h = HashCombine(h, DoubleBits(r.sim.revenue_total));
  h = HashCombine(h, DoubleBits(r.sim.fleet_total_distance_m));
  return h;
}

struct StepResult {
  double rate_rps = 0.0;
  ptrider::service::ServiceStats stats;
  uint64_t signature = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ptrider;
  bool ci = false;
  size_t taxis = 120;
  double duration_s = 180.0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) {
      ci = true;
    } else if (positional == 0) {
      taxis = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else {
      duration_s = std::strtod(argv[i], nullptr);
      ++positional;
    }
  }
  if (ci) duration_s = 60.0;

  const double kAssignCost = 0.02;  // modeled capacity: 50 req/s
  const double kDeadline = 20.0;

  bench::PrintHeader(
      "E19", "open-loop dispatch service (throughput knee)",
      "Poisson rate sweep vs goodput, shed rate and latency SLOs");

  auto graph = bench::MakeBenchCity(30, 30);
  if (!graph.ok()) return 1;

  const auto run_step =
      [&](double rate_rps) -> util::Result<service::ServiceReport> {
    core::Config cfg;
    cfg.matcher = core::MatcherAlgorithm::kDualSide;
    cfg.dispatch_threads = 2;
    PTRIDER_ASSIGN_OR_RETURN(std::unique_ptr<core::PTRider> sys,
                             bench::MakeBenchSystem(*graph, cfg, taxis));
    service::PoissonArrivalOptions arrivals;
    arrivals.rate_per_s = rate_rps;
    arrivals.duration_s = duration_s;
    arrivals.seed = 2009;
    service::PoissonArrivals process(*graph, arrivals);
    service::ServiceOptions opts;
    opts.batch_window_s = 2.0;
    opts.drain_s = 120.0;
    opts.queue_capacity = 4096;
    opts.shed_deadline_s = kDeadline;
    opts.assign_cost_s = kAssignCost;
    opts.quote_cost_s = 0.005;
    opts.choice.model = sim::RiderChoiceModel::kWeightedUtility;
    service::DispatchService server(*sys, opts);
    return server.Run(process);
  };

  std::vector<double> rates;
  if (ci) {
    rates = {10.0};
  } else {
    rates = {10.0, 20.0, 30.0, 40.0, 48.0, 56.0, 70.0, 90.0};
  }

  std::printf(
      "workload: Poisson arrivals over %.0fs, %zu taxis, window 2.0s, "
      "assign-cost %.3fs (capacity %.0f req/s), deadline %.0fs\n\n",
      duration_s, taxis, kAssignCost, 1.0 / kAssignCost, kDeadline);
  std::printf("%8s %9s %9s %11s %7s %8s %8s %8s %8s %8s %8s\n", "rate/s",
              "goodput/s", "shed%", "shed(d/z)", "depth", "q-p50", "q-p99",
              "q-p999", "a-p50", "a-p99", "a-p999");

  std::vector<StepResult> steps;
  for (double rate : rates) {
    auto report = run_step(rate);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    StepResult step;
    step.rate_rps = rate;
    step.stats = report->service;
    step.signature = ServiceSignature(*report);
    steps.push_back(step);
    const service::ServiceStats& s = step.stats;
    char shed_breakdown[32];
    std::snprintf(shed_breakdown, sizeof(shed_breakdown), "%llu/%llu",
                  static_cast<unsigned long long>(s.shed_deadline),
                  static_cast<unsigned long long>(s.shed_zone));
    std::printf(
        "%8.0f %9.2f %8.1f%% %11s %7llu %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
        rate, s.GoodputRps(), 100.0 * s.ShedRate(), shed_breakdown,
        static_cast<unsigned long long>(s.max_queue_depth),
        s.quote_latency_s.Value(50), s.quote_latency_s.Value(99),
        s.quote_latency_s.Value(99.9), s.assign_latency_s.Value(50),
        s.assign_latency_s.Value(99), s.assign_latency_s.Value(99.9));
  }

  // Bit-reproducibility: repeat one step and demand the same signature.
  const double repeat_rate = steps.back().rate_rps;
  auto repeat = run_step(repeat_rate);
  if (!repeat.ok()) {
    std::fprintf(stderr, "%s\n", repeat.status().ToString().c_str());
    return 1;
  }
  const bool reproducible =
      ServiceSignature(*repeat) == steps.back().signature;
  std::printf("\nrepeat @ %.0f req/s: %s\n", repeat_rate,
              reproducible ? "bit-identical signature (deterministic)"
                           : "SIGNATURE MISMATCH");
  if (!reproducible) return 1;

  // The knee: the first step where the server visibly falls behind —
  // p99 quote latency diverges past 5x the batch window (queueing is no
  // longer window-scale), or admission control drops > 5% of offered
  // load. Goodput alone can't locate it: below the knee goodput is
  // limited by fleet availability (unserved requests), not the server.
  double knee_rps = 0.0;
  for (const StepResult& step : steps) {
    if (step.stats.quote_latency_s.Value(99) > 5.0 * 2.0 ||
        step.stats.ShedRate() > 0.05) {
      knee_rps = step.rate_rps;
      break;
    }
  }
  if (knee_rps > 0.0) {
    std::printf(
        "throughput knee at ~%.0f req/s: dispatch throughput caps at the "
        "modeled capacity (%.0f req/s),\np99 latency diverges to pin near "
        "the %.0fs deadline, and the shed rate climbs\nwhile goodput "
        "plateaus.\n",
        knee_rps, 1.0 / kAssignCost, kDeadline);
  } else {
    std::printf("no knee within the swept range (all rates under capacity).\n");
  }
  if (ci) return 0;

  std::FILE* json = std::fopen("BENCH_e19.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "{\n  \"experiment\": \"e19_open_loop\",\n"
               "  \"taxis\": %zu,\n  \"duration_s\": %.1f,\n"
               "  \"assign_cost_s\": %.3f,\n  \"deadline_s\": %.1f,\n"
               "  \"deterministic\": %s,\n  \"knee_rps\": %.1f,\n"
               "  \"steps\": [",
               taxis, duration_s, kAssignCost, kDeadline,
               reproducible ? "true" : "false", knee_rps);
  for (size_t i = 0; i < steps.size(); ++i) {
    const service::ServiceStats& s = steps[i].stats;
    std::fprintf(
        json,
        "%s\n    {\"rate_rps\": %.1f, \"offered\": %llu, "
        "\"goodput_rps\": %.3f, \"shed_rate\": %.4f, "
        "\"rejected\": %llu, \"shed\": %llu, "
        "\"shed_deadline\": %llu, \"shed_zone\": %llu, "
        "\"assigned\": %llu, "
        "\"max_queue_depth\": %llu, "
        "\"quote_p50_s\": %.4f, \"quote_p99_s\": %.4f, "
        "\"quote_p999_s\": %.4f, "
        "\"assign_p50_s\": %.4f, \"assign_p99_s\": %.4f, "
        "\"assign_p999_s\": %.4f}",
        i == 0 ? "" : ",", steps[i].rate_rps,
        static_cast<unsigned long long>(s.offered), s.GoodputRps(),
        s.ShedRate(), static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.shed),
        static_cast<unsigned long long>(s.shed_deadline),
        static_cast<unsigned long long>(s.shed_zone),
        static_cast<unsigned long long>(s.assigned),
        static_cast<unsigned long long>(s.max_queue_depth),
        s.quote_latency_s.Value(50), s.quote_latency_s.Value(99),
        s.quote_latency_s.Value(99.9), s.assign_latency_s.Value(50),
        s.assign_latency_s.Value(99), s.assign_latency_s.Value(99.9));
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote BENCH_e19.json\n");
  return 0;
}
