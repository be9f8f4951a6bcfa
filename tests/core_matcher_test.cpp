#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/price.h"
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
  // The seat screen: a group no vehicle can seat skips the fleet in the
  // indexed matchers (no cell, no vehicle) and still reports dist(s, d).
  // The naive matcher stays the unscreened full scan.
  const PaperExampleNetwork ex = MakePaperExampleNetwork();
  Config cfg = PaperConfig();
  cfg.vehicle_capacity = 2;
  auto sys = PTRider::Create(ex.graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->AddVehicle(ex.v(13)).ok());
  ASSERT_TRUE((*sys)->AddVehicle(ex.v(1)).ok());
  EXPECT_EQ((*sys)->fleet().max_capacity(), 2);
  vehicle::Request r = PaperR2(ex);
  r.num_riders = 3;

  (*sys)->set_matcher(MatcherAlgorithm::kNaive);
  const auto naive = (*sys)->SubmitRequest(r, 0.0);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(naive->options.empty());
  EXPECT_EQ(naive->vehicles_examined, 2u);
  for (const MatcherAlgorithm algo :
       {MatcherAlgorithm::kSingleSide, MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(MatcherAlgorithmName(algo));
    (*sys)->set_matcher(algo);
    const auto result = (*sys)->SubmitRequest(r, 0.0);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->options.empty());
    EXPECT_EQ(result->vehicles_examined, 0u);
    EXPECT_EQ(result->vehicles_pruned, 0u);
    EXPECT_EQ(result->cells_visited, 0u);
    EXPECT_EQ(result->direct_distance_m, naive->direct_distance_m);
  }
}

TEST(MatcherValidationTest, UnreachableDestinationCountsItsLookup) {
  // Two components: {0, 1} and {2, 3}. Every matcher's one exact lookup,
  // dist(s, d), is counted although the match ends right after it.
  roadnet::GraphBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.AddVertex({100.0 * i, 0.0});
  }
  ASSERT_TRUE(b.AddUndirectedEdge(0, 1, 100.0).ok());
  ASSERT_TRUE(b.AddUndirectedEdge(2, 3, 100.0).ok());
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  vehicle::Request r;
  r.id = 1;
  r.start = 0;
  r.destination = 3;
  r.num_riders = 1;
  r.max_wait_s = 300.0;
  r.service_sigma = 0.5;
  for (const MatcherAlgorithm algo :
       {MatcherAlgorithm::kNaive, MatcherAlgorithm::kSingleSide,
        MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(MatcherAlgorithmName(algo));
    Config cfg;
    cfg.matcher = algo;
    roadnet::GridIndexOptions gopts;
    gopts.cells_x = 2;
    gopts.cells_y = 1;
    auto sys = PTRider::Create(*graph, cfg, gopts);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->AddVehicle(1).ok());
    const auto result = (*sys)->SubmitRequest(r, 0.0);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->options.empty());
    EXPECT_EQ(result->direct_distance_m, roadnet::kInfWeight);
    EXPECT_EQ(result->distance_computations, 1u);
    EXPECT_EQ(result->vehicles_examined, 0u);
  }
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
/// return the same option sets, in raw bits, after any sequence of
/// commitments.
struct EquivalenceParam {
  uint64_t seed;
  size_t num_vehicles;
  int capacity;
  int steps = 25;
  /// Taxis added at the first taxis' vertices, so options tie.
  size_t colocated = 0;
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
  for (size_t i = 0; i < param.colocated; ++i) {
    const auto id = static_cast<vehicle::VehicleId>(i);
    ASSERT_TRUE((*sys)->AddVehicle((*sys)->fleet().at(id).location()).ok());
  }

  util::Rng rng(param.seed * 7919 + 13);
  const auto random_vertex = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };

  double now = 0.0;
  int commits = 0;
  int ties = 0;  // naive options tied in both coordinates with the next
  for (int step = 0; step < param.steps; ++step) {
    vehicle::Request r;
    r.id = step + 1;
    r.start = random_vertex();
    r.destination = random_vertex();
    if (r.start == r.destination) continue;
    // Up to one rider more than any taxi seats: oversized groups occur
    // at every capacity.
    r.num_riders = static_cast<int>(rng.UniformInt(1, param.capacity + 1));
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
        EXPECT_EQ(got.pickup_distance, expect.pickup_distance);
        EXPECT_EQ(got.price, expect.price);
      }
      // Indexed matchers must never examine more vehicles than naive.
      EXPECT_LE(results[a].vehicles_examined, results[0].vehicles_examined);
    }
    // Dual-side prunes at least as much as single-side.
    EXPECT_GE(results[2].vehicles_pruned, results[1].vehicles_pruned);

    // The deepest degradation rung (empty vehicles only), where the
    // empty-vehicle cutoff also ends the cell loop.
    MatchEffort empty_only;
    empty_only.empty_vehicle_only = true;
    MatchResult degraded[3];
    for (int a = 0; a < 3; ++a) {
      (*sys)->set_matcher(algos[a]);
      degraded[a] =
          (*sys)->MatchReadOnly(r, now, (*sys)->oracle(), nullptr, &empty_only);
    }
    for (int a = 1; a < 3; ++a) {
      ASSERT_EQ(degraded[a].options.size(), degraded[0].options.size())
          << "step " << step << " empty-only "
          << MatcherAlgorithmName(algos[a]);
      for (size_t i = 0; i < degraded[0].options.size(); ++i) {
        EXPECT_EQ(degraded[a].options[i].vehicle,
                  degraded[0].options[i].vehicle);
        EXPECT_EQ(degraded[a].options[i].price, degraded[0].options[i].price);
      }
    }

    const std::vector<Option>& opts = results[0].options;
    for (size_t i = 1; i < opts.size(); ++i) {
      if (opts[i].pickup_distance == opts[i - 1].pickup_distance &&
          opts[i].price == opts[i - 1].price) {
        ++ties;
      }
    }
    // Commit a random option (rider choice) to evolve vehicle state.
    if (!opts.empty()) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(opts.size()) - 1));
      ASSERT_TRUE((*sys)->ChooseOption(r, opts[pick], now).ok());
      ++commits;
    }
    now += rng.UniformDouble(5.0, 30.0);
  }
  if (param.colocated > 0) {
    EXPECT_GE(commits, 60);
    EXPECT_GT(ties, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, MatcherEquivalenceTest,
    ::testing::Values(EquivalenceParam{1, 30, 3},
                      EquivalenceParam{2, 60, 4},
                      EquivalenceParam{3, 15, 2},
                      EquivalenceParam{4, 100, 3},
                      EquivalenceParam{5, 45, 6},
                      // Dense idle fleet: the empty-vehicle cutoff fires
                      // on most requests.
                      EquivalenceParam{6, 400, 3},
                      // Busy fleet of taxis parked in pairs: ties.
                      EquivalenceParam{7, 40, 4, 90, 40}));

/// The empty-vehicle cutoff at its boundary. On a 2 km ladder street
/// (cells 200 m wide), a busy taxi next to s offers an early but pricey
/// pick-up: its rider rides on to the far end, so the detour is long. An
/// empty taxi one cell farther is later but cheaper, so both options are
/// non-dominated. When the empty taxi's cell is entered, the busy option
/// covers the cell's time bound but not the empty price at that bound, so
/// the cutoff must not fire; any bound looser by more than 300 m of
/// pick-up would skip the empty taxi.
TEST(MatcherValidationTest, EmptyCutoffKeepsCheaperFartherEmptyTaxi) {
  constexpr int kN = 21;  // vertices per row, 100 m apart
  roadnet::GraphBuilder b;
  for (int row = 0; row < 2; ++row) {
    for (int i = 0; i < kN; ++i) b.AddVertex({100.0 * i, 100.0 * row});
  }
  for (int i = 0; i < kN; ++i) {
    if (i + 1 < kN) {
      ASSERT_TRUE(b.AddUndirectedEdge(i, i + 1, 100.0).ok());
      ASSERT_TRUE(b.AddUndirectedEdge(kN + i, kN + i + 1, 100.0).ok());
    }
    ASSERT_TRUE(b.AddUndirectedEdge(i, kN + i, 100.0).ok());
  }
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());

  for (const MatcherAlgorithm algo :
       {MatcherAlgorithm::kNaive, MatcherAlgorithm::kSingleSide,
        MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(MatcherAlgorithmName(algo));
    Config cfg;
    cfg.matcher = algo;
    cfg.default_max_wait_s = 1e4;
    cfg.default_service_sigma = 1.0;
    roadnet::GridIndexOptions gopts;
    gopts.cells_x = 10;
    gopts.cells_y = 1;
    auto sys = PTRider::Create(*graph, cfg, gopts);
    ASSERT_TRUE(sys.ok());
    const auto busy = (*sys)->AddVehicle(11);
    const auto empty = (*sys)->AddVehicle(13);
    ASSERT_TRUE(busy.ok());
    ASSERT_TRUE(empty.ok());
    vehicle::Request ride;  // boards the busy taxi where it stands
    ride.id = 1;
    ride.start = 11;
    ride.destination = kN - 1;
    ride.num_riders = 1;
    ride.max_wait_s = cfg.default_max_wait_s;
    ride.service_sigma = cfg.default_service_sigma;
    auto m = (*sys)->SubmitRequest(ride, 0.0);
    ASSERT_TRUE(m.ok());
    const Option* board = nullptr;
    for (const Option& o : m->options) {
      if (o.vehicle == *busy) board = &o;
    }
    ASSERT_NE(board, nullptr);
    ASSERT_TRUE((*sys)->ChooseOption(ride, *board, 0.0).ok());

    vehicle::Request r = ride;
    r.id = 2;
    r.start = 10;
    r.destination = 8;
    const auto result = (*sys)->SubmitRequest(r, 0.0);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->options.size(), 2u);
    EXPECT_EQ(result->options[0].vehicle, *busy);
    EXPECT_DOUBLE_EQ(result->options[0].pickup_distance, 100.0);
    EXPECT_EQ(result->options[1].vehicle, *empty);
    EXPECT_DOUBLE_EQ(result->options[1].pickup_distance, 300.0);
    EXPECT_LT(result->options[1].price, result->options[0].price);
  }
}

/// The grid's bound on dist(u, v) without its admissibility margin
/// (DESIGN.md section 3): u.min + LB(cell(u), cell(v)) + v.min summed in
/// another order than any path, so it can exceed the oracle's double.
roadnet::Weight UnscaledLowerBound(const roadnet::GridIndex& grid,
                                   roadnet::VertexId u, roadnet::VertexId v) {
  return std::max(grid.graph().GeoLowerBound(u, v),
                  grid.VertexMinToBorder(u) +
                      grid.CellPairLowerBound(grid.CellOfVertex(u),
                                              grid.CellOfVertex(v)) +
                      grid.VertexMinToBorder(v));
}

/// Two empty taxis parked at one vertex u quote the same option, and
/// Definition 4 keeps both. u is chosen where the unscaled grid bound
/// exceeds the oracle's dist(u, s): with that bound the second taxi's
/// own pick-up bound lies above the first taxi's option, so the skyline
/// strictly covers it and an indexed matcher drops the tie.
TEST(MatcherValidationTest, TiedTaxisSurviveWhereUnscaledBoundOvershoots) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = 5;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  Config cfg;
  cfg.default_max_wait_s = 1e6;
  cfg.max_planned_pickup_s = 1e6;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 6;
  gridopts.cells_y = 6;
  auto grid = roadnet::GridIndex::Build(*graph, gridopts);
  ASSERT_TRUE(grid.ok());
  roadnet::DistanceOracle oracle(*graph, {cfg.sp_algorithm});
  const auto n = static_cast<roadnet::VertexId>(graph->NumVertices());
  roadnet::VertexId u = roadnet::kInvalidVertex;
  roadnet::VertexId s = roadnet::kInvalidVertex;
  for (roadnet::VertexId a = 0; a < n && u == roadnet::kInvalidVertex; ++a) {
    for (roadnet::VertexId b = 0; b < n; ++b) {
      if (grid->CellOfVertex(a) != grid->CellOfVertex(b) &&
          UnscaledLowerBound(*grid, a, b) > oracle.Distance(a, b)) {
        u = a;
        s = b;
        break;
      }
    }
  }
  ASSERT_NE(u, roadnet::kInvalidVertex) << "no overshooting pair found";
  EXPECT_LE(grid->LowerBound(u, s), oracle.Distance(u, s));

  vehicle::Request r;
  r.id = 1;
  r.start = s;
  r.destination = s == 0 ? 1 : 0;
  r.num_riders = 1;
  r.max_wait_s = cfg.default_max_wait_s;
  r.service_sigma = cfg.default_service_sigma;
  std::vector<Option> naive;
  for (const MatcherAlgorithm algo :
       {MatcherAlgorithm::kNaive, MatcherAlgorithm::kSingleSide,
        MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(MatcherAlgorithmName(algo));
    cfg.matcher = algo;
    auto sys = PTRider::Create(*graph, cfg, gridopts);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->AddVehicle(u).ok());
    ASSERT_TRUE((*sys)->AddVehicle(u).ok());
    const auto result = (*sys)->QuoteRequest(r, 0.0);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->options.size(), 2u);
    EXPECT_EQ(result->options[0].vehicle, 0);
    EXPECT_EQ(result->options[1].vehicle, 1);
    EXPECT_EQ(result->options[0].pickup_distance,
              result->options[1].pickup_distance);
    EXPECT_EQ(result->options[0].price, result->options[1].price);
    if (algo == MatcherAlgorithm::kNaive) {
      naive = result->options;
      continue;
    }
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(result->options[i].pickup_distance,
                naive[i].pickup_distance);
      EXPECT_EQ(result->options[i].price, naive[i].price);
    }
  }
}

/// Definition 3's Delta = new_total - current_total is >= 0 in real
/// numbers, but an insertion schedule's total can round below the
/// vehicle's current one. The search finds such a case on a small city:
/// a taxi B at v0 carrying a trip v0 -> vk, and a request vi -> vj on
/// that trip's shortest path whose in-route schedule totals below B's
/// current total, far enough that the unclamped quote lies below
/// MinPrice. A second taxi A stands at vi carrying exactly vi -> vj, so
/// it quotes the request at pick-up 0 and exactly MinPrice. Unclamped,
/// B undercut A by a few ulps: the naive matcher reported both, while
/// the indexed matchers, whose termination test and prunes take MinPrice
/// for a floor, stopped at A. With Delta clamped at 0, B quotes MinPrice
/// and A dominates it.
TEST(MatcherValidationTest, PriceFloorHoldsWhereScheduleTotalRoundsDown) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 10;
  gopts.cols = 10;
  gopts.seed = 7;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  Config cfg;
  cfg.default_max_wait_s = 1e6;
  cfg.max_planned_pickup_s = 1e6;
  cfg.default_service_sigma = 1.0;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 5;
  gridopts.cells_y = 5;
  const PriceModel model(cfg);
  const auto trip = [&cfg](vehicle::RequestId id, roadnet::VertexId from,
                           roadnet::VertexId to) {
    vehicle::Request r;
    r.id = id;
    r.start = from;
    r.destination = to;
    r.num_riders = 1;
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    return r;
  };
  // Commits `r` to vehicle `v` at time 0.
  const auto assign = [](PTRider& sys, const vehicle::Request& r,
                         vehicle::VehicleId v) {
    const auto m = sys.SubmitRequest(r, 0.0);
    if (!m.ok()) return false;
    for (const Option& o : m->options) {
      if (o.vehicle == v) return sys.ChooseOption(r, o, 0.0).ok();
    }
    return false;
  };

  roadnet::DistanceOracle oracle(*graph, {cfg.sp_algorithm});
  const auto n = static_cast<roadnet::VertexId>(graph->NumVertices());
  std::vector<roadnet::VertexId> route;  // v0 ... vk
  roadnet::VertexId vi = roadnet::kInvalidVertex;
  roadnet::VertexId vj = roadnet::kInvalidVertex;
  for (roadnet::VertexId v0 = 0; v0 < n && vi == roadnet::kInvalidVertex;
       ++v0) {
    auto path = oracle.ShortestPath(v0, n - 1 - v0);
    if (!path.ok() || path->size() < 4) continue;
    auto sys = PTRider::Create(*graph, cfg, gridopts);  // naive
    ASSERT_TRUE(sys.ok());
    const auto b = (*sys)->AddVehicle(v0);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(assign(**sys, trip(1, v0, path->back()), *b));
    const roadnet::Weight current =
        (*sys)->fleet().at(*b).tree().BestTotalDistance();
    for (size_t i = 1; i + 2 < path->size() && vi == roadnet::kInvalidVertex;
         ++i) {
      for (size_t j = i + 1; j + 1 < path->size(); ++j) {
        const auto m =
            (*sys)->QuoteRequest(trip(2, (*path)[i], (*path)[j]), 0.0);
        ASSERT_TRUE(m.ok());
        const roadnet::Weight direct = m->direct_distance_m;
        const bool below = std::any_of(
            m->options.begin(), m->options.end(), [&](const Option& o) {
              return o.new_total_distance < current &&
                     model.Fn(1) * (o.new_total_distance - current + direct) /
                             cfg.price_distance_unit_m <
                         model.MinPrice(1, direct);
            });
        if (below) {
          route = *path;
          vi = (*path)[i];
          vj = (*path)[j];
          break;
        }
      }
    }
  }
  ASSERT_NE(vi, roadnet::kInvalidVertex) << "no total rounds below";

  std::vector<Option> naive;
  for (const MatcherAlgorithm algo :
       {MatcherAlgorithm::kNaive, MatcherAlgorithm::kSingleSide,
        MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(MatcherAlgorithmName(algo));
    cfg.matcher = algo;
    auto sys = PTRider::Create(*graph, cfg, gridopts);
    ASSERT_TRUE(sys.ok());
    const auto a = (*sys)->AddVehicle(vi);
    const auto b = (*sys)->AddVehicle(route.front());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(assign(**sys, trip(1, vi, vj), *a));
    ASSERT_TRUE(assign(**sys, trip(2, route.front(), route.back()), *b));
    const auto result = (*sys)->QuoteRequest(trip(3, vi, vj), 0.0);
    ASSERT_TRUE(result.ok());
    const double floor =
        (*sys)->pricing_policy().MinPrice(1, result->direct_distance_m);
    ASSERT_FALSE(result->options.empty());
    EXPECT_EQ(result->options.front().vehicle, *a);
    EXPECT_EQ(result->options.front().pickup_distance, 0.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(result->options.front().price),
              std::bit_cast<uint64_t>(floor));
    for (const Option& o : result->options) {
      EXPECT_GE(o.price, floor) << "taxi " << o.vehicle;
    }
    if (algo == MatcherAlgorithm::kNaive) {
      naive = result->options;
      continue;
    }
    ASSERT_EQ(result->options.size(), naive.size());
    for (size_t k = 0; k < naive.size(); ++k) {
      EXPECT_EQ(result->options[k].vehicle, naive[k].vehicle);
      EXPECT_EQ(std::bit_cast<uint64_t>(result->options[k].pickup_distance),
                std::bit_cast<uint64_t>(naive[k].pickup_distance));
      EXPECT_EQ(std::bit_cast<uint64_t>(result->options[k].price),
                std::bit_cast<uint64_t>(naive[k].price));
    }
  }
}

/// Skipped empty-vehicle lists are counted, not lost: on an all-idle fleet
/// whose pick-up radius covers the city, the price floor never ends the
/// search (an empty vehicle quotes above it), so every vehicle is either
/// examined or pruned.
TEST(MatcherAccountingTest, IdleFleetExaminedPlusPrunedIsFleetSize) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = 8;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  constexpr size_t kFleet = 500;
  for (const MatcherAlgorithm algo :
       {MatcherAlgorithm::kSingleSide, MatcherAlgorithm::kDualSide}) {
    SCOPED_TRACE(MatcherAlgorithmName(algo));
    Config cfg;
    cfg.matcher = algo;
    cfg.max_planned_pickup_s = 1e6;  // radius far beyond the city
    roadnet::GridIndexOptions gridopts;
    gridopts.cells_x = 6;
    gridopts.cells_y = 6;
    auto sys = PTRider::Create(*graph, cfg, gridopts);
    ASSERT_TRUE(sys.ok());
    ASSERT_TRUE((*sys)->InitFleetUniform(kFleet, 8).ok());
    util::Rng rng(17);
    for (vehicle::RequestId id = 1; id <= 20; ++id) {
      vehicle::Request r;
      r.id = id;
      r.start = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(graph->NumVertices()) - 1));
      r.destination = static_cast<roadnet::VertexId>(rng.UniformInt(
          0, static_cast<int64_t>(graph->NumVertices()) - 1));
      if (r.start == r.destination) continue;
      r.num_riders = static_cast<int>(rng.UniformInt(1, 3));
      r.max_wait_s = cfg.default_max_wait_s;
      r.service_sigma = cfg.default_service_sigma;
      const auto result = (*sys)->QuoteRequest(r, 0.0);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->vehicles_examined + result->vehicles_pruned, kFleet)
          << "request " << id;
    }
  }
}

/// The anchor-settle counter: a per-match delta of the two anchor
/// searches' settled vertices. Matching the same request again resumes
/// both anchors with every lookup already answered, so it settles
/// nothing.
TEST(MatcherAccountingTest, AnchorSettlesArePerMatchAndResume) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = 9;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  Config cfg;
  cfg.default_service_sigma = 0.5;
  auto sys = PTRider::Create(*graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(40, 9).ok());
  vehicle::Request r;
  r.id = 1;
  r.start = 3;
  r.destination = static_cast<roadnet::VertexId>(graph->NumVertices() - 5);
  r.num_riders = 1;
  r.max_wait_s = cfg.default_max_wait_s;
  r.service_sigma = cfg.default_service_sigma;

  const MatchResult first = (*sys)->MatchReadOnly(r, 0.0, (*sys)->oracle());
  EXPECT_GT(first.anchor_settles, 0u);
  const MatchResult again = (*sys)->MatchReadOnly(r, 0.0, (*sys)->oracle());
  EXPECT_EQ(again.anchor_settles, 0u);
  EXPECT_EQ(again.options.size(), first.options.size());
}

/// The naive matcher reads its distances from the request anchors too:
/// every lookup it makes touches s or d (or is a reused branch leg), so
/// on a busy fleet its searches settle vertices, and dist(s, d), asked
/// once per vehicle, is one computed lookup plus hits.
TEST(MatcherAccountingTest, NaiveMatchReadsTheAnchors) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 14;
  gopts.cols = 14;
  gopts.seed = 9;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());
  Config cfg;
  cfg.default_service_sigma = 0.5;
  auto sys = PTRider::Create(*graph, cfg);
  ASSERT_TRUE(sys.ok());
  ASSERT_TRUE((*sys)->InitFleetUniform(12, 9).ok());
  const auto n = static_cast<int64_t>(graph->NumVertices());
  util::Rng rng(17);
  const auto request = [&](vehicle::RequestId id) {
    vehicle::Request r;
    r.id = id;
    r.start = static_cast<roadnet::VertexId>(rng.UniformInt(0, n - 1));
    do {
      r.destination = static_cast<roadnet::VertexId>(rng.UniformInt(0, n - 1));
    } while (r.destination == r.start);
    r.num_riders = 1;
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    return r;
  };
  // Load the fleet with dual-side matches.
  size_t committed = 0;
  for (vehicle::RequestId id = 1; id <= 10; ++id) {
    const vehicle::Request r = request(id);
    auto m = (*sys)->SubmitRequest(r, 0.0);
    ASSERT_TRUE(m.ok());
    if (m->options.empty()) continue;
    ASSERT_TRUE((*sys)->ChooseOption(r, m->options.front(), 0.0).ok());
    ++committed;
  }
  ASSERT_GE(committed, 5u);

  (*sys)->set_matcher(MatcherAlgorithm::kNaive);
  const roadnet::DistanceOracle& oracle = (*sys)->oracle();
  const uint64_t hits = oracle.cache_hits();
  auto naive = (*sys)->SubmitRequest(request(100), 0.0);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->vehicles_examined, 12u);
  EXPECT_GT(naive->anchor_settles, 0u);
  EXPECT_GE(oracle.cache_hits() - hits, naive->vehicles_examined);
}

/// Busy-fleet reference. Every matcher reads each distance that touches
/// s or d from anchored searches, and TrialInsert reuses the cached
/// branch legs — so agreement among the matchers cannot catch a wrong
/// leg. Re-walk every option's schedule with a fresh Dijkstra oracle
/// instead, on vehicles holding up to four pending requests.
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
      *graph, {roadnet::SpAlgorithm::kDijkstra});

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
