#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>

#include "core/ptrider.h"
#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"
#include "sim/workload.h"
#include "util/random.h"

namespace ptrider::core {
namespace {

using roadnet::MakePaperExampleNetwork;
using roadnet::PaperExampleNetwork;

/// Config matching the paper's worked example: unit speed, price per
/// distance unit, capacity 4, no pickup-radius truncation.
Config PaperConfig() {
  Config cfg;
  cfg.speed_mps = 1.0;
  cfg.vehicle_capacity = 4;
  cfg.default_max_wait_s = 5.0;
  cfg.default_service_sigma = 0.2;
  cfg.price_distance_unit_m = 1.0;
  cfg.max_planned_pickup_s = 1e6;
  return cfg;
}

vehicle::Request PaperR2(const PaperExampleNetwork& ex) {
  vehicle::Request r2;
  r2.id = 2;
  r2.start = ex.v(12);
  r2.destination = ex.v(17);
  r2.num_riders = 2;
  r2.max_wait_s = 5.0;
  r2.service_sigma = 0.2;
  return r2;
}

/// Builds the Section-2 scenario: c1 at v1 serving R1 = <v2,v16,2,5,0.2>,
/// empty c2 at v13.
std::unique_ptr<PTRider> MakePaperScenario(const PaperExampleNetwork& ex,
                                           MatcherAlgorithm algo) {
  Config cfg = PaperConfig();
  cfg.matcher = algo;
  roadnet::GridIndexOptions gopts;
  gopts.cells_x = 3;
  gopts.cells_y = 3;
  auto sys = PTRider::Create(ex.graph, cfg, gopts);
  EXPECT_TRUE(sys.ok());
  auto ptr = std::move(sys).value();

  const auto c1 = ptr->AddVehicle(ex.v(1));
  const auto c2 = ptr->AddVehicle(ex.v(13));
  EXPECT_TRUE(c1.ok());
  EXPECT_TRUE(c2.ok());

  vehicle::Request r1;
  r1.id = 1;
  r1.start = ex.v(2);
  r1.destination = ex.v(16);
  r1.num_riders = 2;
  r1.max_wait_s = 5.0;
  r1.service_sigma = 0.2;
  auto match = ptr->SubmitRequest(r1, 0.0);
  EXPECT_TRUE(match.ok());
  // c1 offers the direct pickup at distance 6; choose it.
  const Option* chosen = nullptr;
  for (const Option& o : match->options) {
    if (o.vehicle == *c1 && o.pickup_distance == 6.0) chosen = &o;
  }
  EXPECT_NE(chosen, nullptr);
  EXPECT_TRUE(ptr->ChooseOption(r1, *chosen, 0.0).ok());
  return ptr;
}

class PaperMatchTest
    : public ::testing::TestWithParam<MatcherAlgorithm> {};

TEST_P(PaperMatchTest, Section2OptionsReproduceExactly) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  auto sys = MakePaperScenario(ex, GetParam());
  const auto result = sys->SubmitRequest(PaperR2(ex), 0.0);
  ASSERT_TRUE(result.ok());

  // Exactly the paper's two non-dominated options:
  //   r1 = <c1, 14, 4> and r2 = <c2, 8, 8.8>.
  ASSERT_EQ(result->options.size(), 2u)
      << MatcherAlgorithmName(GetParam());
  const Option& o_c2 = result->options[0];  // sorted by pickup distance
  const Option& o_c1 = result->options[1];
  EXPECT_EQ(o_c2.vehicle, 1);
  EXPECT_DOUBLE_EQ(o_c2.pickup_distance, 8.0);
  EXPECT_DOUBLE_EQ(o_c2.price, 8.8);
  EXPECT_EQ(o_c1.vehicle, 0);
  EXPECT_DOUBLE_EQ(o_c1.pickup_distance, 14.0);
  EXPECT_DOUBLE_EQ(o_c1.price, 4.0);
}

TEST_P(PaperMatchTest, DominatedInsertionFilteredOut) {
  // c1 also admits "serve R1 fully then R2" at (22, 7.2): dominated by
  // (14, 4) and must not be reported.
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  auto sys = MakePaperScenario(ex, GetParam());
  const auto result = sys->SubmitRequest(PaperR2(ex), 0.0);
  ASSERT_TRUE(result.ok());
  for (const Option& o : result->options) {
    EXPECT_NE(o.pickup_distance, 22.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PaperMatchTest,
                         ::testing::Values(MatcherAlgorithm::kNaive,
                                           MatcherAlgorithm::kSingleSide,
                                           MatcherAlgorithm::kDualSide),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case MatcherAlgorithm::kNaive:
                               return "Naive";
                             case MatcherAlgorithm::kSingleSide:
                               return "SingleSide";
                             case MatcherAlgorithm::kDualSide:
                               return "DualSide";
                           }
                           return "Unknown";
                         });

TEST(MatcherValidationTest, RejectsBadRequests) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  auto sys = PTRider::Create(ex.graph, PaperConfig());
  ASSERT_TRUE(sys.ok());
  vehicle::Request r = PaperR2(ex);
  r.start = -1;
  EXPECT_FALSE((*sys)->SubmitRequest(r, 0.0).ok());
  r = PaperR2(ex);
  r.destination = r.start;
  EXPECT_FALSE((*sys)->SubmitRequest(r, 0.0).ok());
  r = PaperR2(ex);
  r.num_riders = 0;
  EXPECT_FALSE((*sys)->SubmitRequest(r, 0.0).ok());
  r = PaperR2(ex);
  r.max_wait_s = -1.0;
  EXPECT_FALSE((*sys)->SubmitRequest(r, 0.0).ok());
}

TEST(MatcherValidationTest, NoVehiclesMeansNoOptions) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  auto sys = PTRider::Create(ex.graph, PaperConfig());
  ASSERT_TRUE(sys.ok());
  const auto result = (*sys)->SubmitRequest(PaperR2(ex), 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->options.empty());
}

TEST(MatcherValidationTest, GroupLargerThanCapacityGetsNoOptions) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  Config cfg = PaperConfig();
  cfg.vehicle_capacity = 2;
  auto sys = PTRider::Create(ex.graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->AddVehicle(ex.v(13)).ok());
  vehicle::Request r = PaperR2(ex);
  r.num_riders = 3;
  const auto result = (*sys)->SubmitRequest(r, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->options.empty());
}

TEST(MatcherValidationTest, PickupRadiusTruncatesFarOptions) {
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  Config cfg = PaperConfig();
  cfg.max_planned_pickup_s = 7.0;  // radius 7 at unit speed
  auto sys = PTRider::Create(ex.graph, cfg);
  ASSERT_TRUE(sys.ok());
  // c2 at v13 is 8 away from v12: beyond the radius.
  ASSERT_TRUE((*sys)->AddVehicle(ex.v(13)).ok());
  const auto result = (*sys)->SubmitRequest(PaperR2(ex), 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->options.empty());
}

/// Randomized scenario equivalence: naive, single-side and dual-side must
/// return the same option sets after any sequence of commitments.
struct EquivalenceParam {
  uint64_t seed;
  size_t num_vehicles;
  int capacity;
};

class MatcherEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(MatcherEquivalenceTest, AllMatchersAgree) {
  const EquivalenceParam param = GetParam();
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = param.seed;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());

  Config cfg;
  cfg.vehicle_capacity = param.capacity;
  cfg.default_max_wait_s = 240.0;
  cfg.default_service_sigma = 0.4;
  cfg.max_planned_pickup_s = 600.0;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 6;
  gridopts.cells_y = 6;
  auto sys = PTRider::Create(*graph, cfg, gridopts);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE(
      (*sys)->InitFleetUniform(param.num_vehicles, param.seed).ok());

  util::Rng rng(param.seed * 7919 + 13);
  const auto random_vertex = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };

  double now = 0.0;
  for (int step = 0; step < 25; ++step) {
    vehicle::Request r;
    r.id = step + 1;
    r.start = random_vertex();
    r.destination = random_vertex();
    if (r.start == r.destination) continue;
    r.num_riders = static_cast<int>(rng.UniformInt(1, 2));
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    r.submit_time_s = now;

    MatchResult results[3];
    const MatcherAlgorithm algos[] = {MatcherAlgorithm::kNaive,
                                      MatcherAlgorithm::kSingleSide,
                                      MatcherAlgorithm::kDualSide};
    for (int a = 0; a < 3; ++a) {
      (*sys)->set_matcher(algos[a]);
      auto res = (*sys)->SubmitRequest(r, now);
      ASSERT_TRUE(res.ok());
      results[a] = std::move(res).value();
    }
    for (int a = 1; a < 3; ++a) {
      ASSERT_EQ(results[a].options.size(), results[0].options.size())
          << "step " << step << " algo " << MatcherAlgorithmName(algos[a]);
      for (size_t i = 0; i < results[0].options.size(); ++i) {
        const Option& expect = results[0].options[i];
        const Option& got = results[a].options[i];
        EXPECT_EQ(got.vehicle, expect.vehicle) << "step " << step;
        EXPECT_DOUBLE_EQ(got.pickup_distance, expect.pickup_distance);
        EXPECT_DOUBLE_EQ(got.price, expect.price);
      }
      // Indexed matchers must never examine more vehicles than naive.
      EXPECT_LE(results[a].vehicles_examined, results[0].vehicles_examined);
    }
    // Dual-side prunes at least as much as single-side.
    EXPECT_GE(results[2].vehicles_pruned, results[1].vehicles_pruned);

    // Commit a random option (rider choice) to evolve vehicle state.
    if (!results[0].options.empty()) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(results[0].options.size()) - 1));
      ASSERT_TRUE(
          (*sys)->ChooseOption(r, results[0].options[pick], now).ok());
    }
    now += rng.UniformDouble(5.0, 30.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, MatcherEquivalenceTest,
    ::testing::Values(EquivalenceParam{1, 30, 3},
                      EquivalenceParam{2, 60, 4},
                      EquivalenceParam{3, 15, 2},
                      EquivalenceParam{4, 100, 3},
                      EquivalenceParam{5, 45, 6}));

/// Busy-fleet reference. The indexed matchers read every distance that
/// touches s or d from anchored searches, TrialInsert reuses the cached
/// branch legs, and the naive matcher shares TrialInsert — so agreement
/// among the matchers cannot catch a wrong leg. Re-walk every option's
/// schedule with a fresh, cacheless Dijkstra oracle instead, on vehicles
/// holding up to four pending requests.
TEST(BusyFleetReferenceTest, OptionDistancesMatchFreshDijkstraWalk) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = 3;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  Config cfg;
  cfg.vehicle_capacity = 4;
  cfg.default_max_wait_s = 900.0;
  cfg.default_service_sigma = 0.8;
  cfg.max_planned_pickup_s = 3000.0;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 6;
  gridopts.cells_y = 6;
  auto sys = PTRider::Create(*graph, cfg, gridopts);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(6, 3).ok());
  roadnet::DistanceOracle reference(
      *graph, {roadnet::SpAlgorithm::kDijkstra, 0, true});

  // Walks `o`'s schedule from its vehicle's position, summing legs left
  // to right from 0 as the kinetic tree does.
  const auto expect_walk_matches = [&](const Option& o,
                                       vehicle::RequestId id) {
    const vehicle::Vehicle& v = (*sys)->fleet().at(o.vehicle);
    roadnet::VertexId cur = v.tree().root_location();
    roadnet::Weight cum = 0.0;
    roadnet::Weight pickup = roadnet::kInfWeight;
    for (const vehicle::Stop& stop : o.schedule) {
      cum += reference.Distance(cur, stop.location);
      cur = stop.location;
      if (stop.request == id && stop.type == vehicle::StopType::kPickup) {
        pickup = cum;
      }
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(o.pickup_distance),
              std::bit_cast<uint64_t>(pickup))
        << "request " << id << " vehicle " << o.vehicle;
    EXPECT_EQ(std::bit_cast<uint64_t>(o.new_total_distance),
              std::bit_cast<uint64_t>(cum))
        << "request " << id << " vehicle " << o.vehicle;
  };

  util::Rng rng(41);
  const auto random_vertex = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };
  size_t busy_options = 0;  // options on vehicles with >= 2 pending
  size_t most_pending = 0;
  for (vehicle::RequestId id = 1; id <= 60; ++id) {
    vehicle::Request r;
    r.id = id;
    r.start = random_vertex();
    r.destination = random_vertex();
    if (r.start == r.destination) continue;
    r.num_riders = 1;
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;

    MatchResult dual;
    for (const MatcherAlgorithm algo :
         {MatcherAlgorithm::kNaive, MatcherAlgorithm::kDualSide}) {
      (*sys)->set_matcher(algo);
      auto res = (*sys)->SubmitRequest(r, 0.0);
      ASSERT_TRUE(res.ok());
      for (const Option& o : res->options) {
        expect_walk_matches(o, id);
        const size_t pending =
            (*sys)->fleet().at(o.vehicle).tree().NumPendingRequests();
        if (pending >= 2) ++busy_options;
      }
      dual = std::move(res).value();
    }
    // Pile requests onto the busiest vehicle that still has room for
    // one more, so trees reach 2-4 pending requests.
    const Option* pick = nullptr;
    size_t pick_pending = 0;
    for (const Option& o : dual.options) {
      const size_t pending =
          (*sys)->fleet().at(o.vehicle).tree().NumPendingRequests();
      if (pending < 4 && (pick == nullptr || pending > pick_pending)) {
        pick = &o;
        pick_pending = pending;
      }
    }
    if (pick == nullptr) continue;
    ASSERT_TRUE((*sys)->ChooseOption(r, *pick, 0.0).ok());
    most_pending = std::max(most_pending, pick_pending + 1);
  }
  EXPECT_GE(most_pending, 3u);
  EXPECT_GT(busy_options, 20u);
}

/// The E10 ablation (bench_e10_ablation_pruning) at test size: on the
/// same pre-loaded fleet, naive matching computes more exact distances
/// per request than single-side, and single-side more than dual-side, on
/// both the uniform and the origin-hub workload. Anchored lookups count
/// like pair lookups (first lookup of a vertex computed, repeats hits),
/// which is what keeps this ordering meaningful.
TEST(AblationCountersTest, NaiveAboveSingleAboveDual) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 24;
  gopts.cols = 24;
  gopts.spacing_m = 250.0;
  gopts.seed = 7;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());

  sim::HotspotWorkloadOptions uniform;
  uniform.num_trips = 400;
  uniform.duration_s = 3600.0;
  uniform.origin_hotspot_bias = 0.0;
  uniform.destination_hotspot_bias = 0.0;
  sim::HotspotWorkloadOptions hub;
  hub.num_trips = 400;
  hub.duration_s = 3600.0;
  hub.num_hotspots = 1;
  hub.hotspot_stddev_m = 600.0;
  hub.origin_hotspot_bias = 0.9;
  hub.destination_hotspot_bias = 0.0;
  hub.seed = 31;

  for (const sim::HotspotWorkloadOptions& wopts : {uniform, hub}) {
    auto trips = sim::GenerateHotspotTrips(*graph, wopts);
    ASSERT_TRUE(trips.ok());
    uint64_t computations[3] = {0, 0, 0};
    const MatcherAlgorithm algos[] = {MatcherAlgorithm::kNaive,
                                      MatcherAlgorithm::kSingleSide,
                                      MatcherAlgorithm::kDualSide};
    for (int a = 0; a < 3; ++a) {
      Config cfg;
      cfg.matcher = algos[a];
      cfg.default_service_sigma = 0.3;
      auto sys = PTRider::Create(*graph, cfg);
      ASSERT_TRUE(sys.ok());
      ASSERT_TRUE((*sys)->InitFleetUniform(300, 3).ok());
      const auto request = [&](size_t i) {
        vehicle::Request r;
        r.id = static_cast<vehicle::RequestId>(i + 1);
        r.start = (*trips)[i].origin;
        r.destination = (*trips)[i].destination;
        r.num_riders = (*trips)[i].num_riders;
        r.max_wait_s = cfg.default_max_wait_s;
        r.service_sigma = cfg.default_service_sigma;
        return r;
      };
      // Load the fleet like the bench's warm-up, then measure.
      for (size_t i = 0; i < 150; ++i) {
        const vehicle::Request r = request(i);
        auto m = (*sys)->SubmitRequest(r, 0.0);
        ASSERT_TRUE(m.ok());
        if (!m->options.empty()) {
          ASSERT_TRUE((*sys)->ChooseOption(r, m->options.front(), 0.0).ok());
        }
      }
      for (size_t i = 150; i < 250; ++i) {
        auto m = (*sys)->SubmitRequest(request(i), 1.0);
        ASSERT_TRUE(m.ok());
        computations[a] += m->distance_computations;
      }
    }
    EXPECT_GT(computations[0], computations[1]);
    EXPECT_GT(computations[1], computations[2]);
  }
}

}  // namespace
}  // namespace ptrider::core
