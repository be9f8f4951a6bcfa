// Pricing subsystem coverage: Definition-3 equivalence of PaperPolicy
// against the legacy core::PriceModel, bound admissibility of every
// shipped policy (the contract that keeps single-side/dual-side pruning
// exact), surge monotonicity in the demand signal, and byte-identical
// matcher results across naive/single-side/dual-side under every policy.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/price.h"
#include "core/ptrider.h"
#include "pricing/factory.h"
#include "pricing/paper_policy.h"
#include "pricing/shared_discount_policy.h"
#include "pricing/surge_policy.h"
#include "roadnet/graph_generator.h"
#include "util/random.h"

namespace ptrider::pricing {
namespace {

core::PriceModel PaperModel() { return core::PriceModel(0.3, 0.1, 1.0); }

QuoteInputs MakeQuote(int riders, int committed, double current,
                      double delta, double direct) {
  QuoteInputs q;
  q.num_riders = riders;
  q.committed_riders = committed;
  q.current_total = current;
  q.new_total = current + delta;
  q.direct = direct;
  return q;
}

TEST(PaperPolicyTest, WorkedExampleMatchesLegacyModel) {
  const PaperPolicy policy(PaperModel());
  // r1 = <c1, 14, 4>: two riders join c1, detour 21 - 18 = 3, direct 7.
  EXPECT_EQ(policy.Price(MakeQuote(2, 2, 18.0, 3.0, 7.0)), 4.0);
  // r2 = <c2, 8, 8.8>: empty c2, pickup 8, direct 7.
  EXPECT_EQ(policy.Price(MakeQuote(2, 0, 0.0, 15.0, 7.0)), 8.8);
  EXPECT_EQ(policy.EmptyVehiclePrice(2, 8.0, 7.0), 8.8);
}

TEST(PaperPolicyTest, BitForBitEquivalentToLegacyModel) {
  const core::PriceModel legacy = PaperModel();
  const PaperPolicy policy(legacy);
  util::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const double direct = rng.UniformDouble(0.5, 5000.0);
    const double current = rng.UniformDouble(0.0, 9000.0);
    const double delta = rng.UniformDouble(0.0, 3000.0);
    const double pickup = rng.UniformDouble(0.0, 2000.0);
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    const int committed = static_cast<int>(rng.UniformInt(0, 4));
    // Exact equality: the policy must perform the identical arithmetic.
    EXPECT_EQ(policy.Price(MakeQuote(n, committed, current, delta, direct)),
              legacy.Price(n, current + delta, current, direct));
    EXPECT_EQ(policy.MinPrice(n, direct), legacy.MinPrice(n, direct));
    EXPECT_EQ(policy.EmptyVehiclePrice(n, pickup, direct),
              legacy.EmptyVehiclePrice(n, pickup, direct));
    EXPECT_EQ(policy.PriceWithDetourLb(n, delta, direct),
              legacy.PriceWithDetourLb(n, delta, direct));
  }
}

/// Drives the policy through randomized realizable quotes and checks the
/// PricingPolicy bound contract: no bound ever exceeds a realizable price.
void CheckBoundAdmissibility(PricingPolicy& policy, uint64_t seed) {
  util::Rng rng(seed);
  double now = 0.0;
  for (int i = 0; i < 3000; ++i) {
    // Occasionally move the demand signal so stateful policies are tested
    // across their multiplier range.
    if (i % 7 == 0) {
      now += rng.UniformDouble(0.0, 30.0);
      policy.RecordRequest(now);
    }
    const double direct = rng.UniformDouble(0.5, 5000.0);
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    const int committed = static_cast<int>(rng.UniformInt(0, 4));
    const double current =
        committed == 0 ? 0.0 : rng.UniformDouble(0.0, 9000.0);
    const double detour_lb = rng.UniformDouble(0.0, 1000.0);
    const double delta = detour_lb + rng.UniformDouble(0.0, 2000.0);
    const double price =
        policy.Price(MakeQuote(n, committed, current, delta, direct));

    // MinPrice floors every realizable quote (Delta >= 0).
    EXPECT_LE(policy.MinPrice(n, direct), price + 1e-9)
        << policy.name() << " MinPrice not admissible";
    // PriceWithDetourLb floors every quote whose detour >= the bound.
    EXPECT_LE(policy.PriceWithDetourLb(n, detour_lb, direct), price + 1e-9)
        << policy.name() << " PriceWithDetourLb not admissible";

    // Empty vehicles: quote with pickup >= pickup_lb must dominate the
    // bound, and the bound must be monotone in the pickup lower bound.
    const double pickup_lb = rng.UniformDouble(0.0, 2000.0);
    const double pickup = pickup_lb + rng.UniformDouble(0.0, 1000.0);
    const double empty_price =
        policy.Price(MakeQuote(n, 0, 0.0, pickup + direct, direct));
    EXPECT_LE(policy.EmptyVehiclePrice(n, pickup_lb, direct),
              empty_price + 1e-9)
        << policy.name() << " EmptyVehiclePrice not admissible";
    EXPECT_LE(policy.EmptyVehiclePrice(n, pickup_lb, direct),
              policy.EmptyVehiclePrice(n, pickup_lb + 1.0, direct) + 1e-12)
        << policy.name() << " EmptyVehiclePrice not monotone";
  }
}

TEST(BoundAdmissibilityTest, PaperPolicy) {
  PaperPolicy policy(PaperModel());
  CheckBoundAdmissibility(policy, 7);
}

TEST(BoundAdmissibilityTest, SurgePolicy) {
  SurgeOptions opts;
  opts.window_s = 120.0;
  opts.baseline_rate_per_min = 1.0;
  opts.gain_per_rate = 0.3;
  opts.max_multiplier = 3.0;
  SurgePolicy policy(PaperModel(), opts);
  CheckBoundAdmissibility(policy, 11);
}

TEST(BoundAdmissibilityTest, SharedDiscountPolicy) {
  SharedDiscountOptions opts;
  opts.per_committed_rider = 0.08;
  opts.max_discount = 0.3;
  SharedDiscountPolicy policy(PaperModel(), opts);
  CheckBoundAdmissibility(policy, 13);
}

TEST(SurgePolicyTest, MultiplierMonotoneInDemandRate) {
  SurgeOptions opts;
  opts.window_s = 60.0;
  opts.baseline_rate_per_min = 5.0;
  opts.gain_per_rate = 0.1;
  opts.max_multiplier = 2.0;

  // Feed request streams of increasing rate into fresh policies; the
  // resulting multiplier must be non-decreasing in the rate.
  double previous_multiplier = 0.0;
  for (const int per_minute : {1, 5, 10, 20, 40, 80, 200}) {
    SurgePolicy policy(PaperModel(), opts);
    const double spacing = 60.0 / per_minute;
    for (double t = 0.0; t < 60.0; t += spacing) policy.RecordRequest(t);
    EXPECT_GE(policy.multiplier(), previous_multiplier);
    EXPECT_GE(policy.multiplier(), 1.0);
    EXPECT_LE(policy.multiplier(), opts.max_multiplier);
    previous_multiplier = policy.multiplier();
  }
  EXPECT_GT(previous_multiplier, 1.0);  // heavy demand actually surges

  // Prices scale with the multiplier.
  SurgePolicy calm(PaperModel(), opts);
  calm.RecordRequest(0.0);
  SurgePolicy busy(PaperModel(), opts);
  for (double t = 0.0; t < 60.0; t += 0.25) busy.RecordRequest(t);
  const QuoteInputs q = MakeQuote(2, 1, 100.0, 30.0, 50.0);
  EXPECT_GT(busy.multiplier(), calm.multiplier());
  EXPECT_EQ(busy.Price(q), busy.multiplier() * calm.Price(q));

  // The window forgets: after a quiet stretch the multiplier relaxes.
  busy.RecordRequest(10000.0);
  EXPECT_EQ(busy.multiplier(), 1.0);
}

// Regression: the multiplier used to be recomputed only inside
// RecordRequest, so after a demand lull every quote taken before the
// next submission still paid the last burst's surge, and rate_per_min()
// read the stale window. Decay is the quote-time hook: it evicts the
// window and relaxes the multiplier without touching the demand signal.
TEST(SurgePolicyTest, DecayRelaxesMultiplierAfterLull) {
  SurgeOptions opts;
  opts.window_s = 120.0;
  opts.baseline_rate_per_min = 1.0;
  opts.gain_per_rate = 0.2;
  opts.max_multiplier = 3.0;
  SurgePolicy policy(PaperModel(), opts);
  for (double t = 0.0; t < 60.0; t += 0.5) policy.RecordRequest(t);
  ASSERT_GT(policy.multiplier(), 1.0);
  ASSERT_GT(policy.rate_per_min(), opts.baseline_rate_per_min);
  const double surged = policy.multiplier();
  const QuoteInputs q = MakeQuote(1, 0, 0.0, 900.0, 700.0);
  EXPECT_EQ(policy.Price(q),
            surged * PaperModel().Price(1, 900.0, 0.0, 700.0));

  // An hour of silence: the quote path decays before quoting, so the
  // rider pays the un-surged fare — pre-fix the peak multiplier stuck.
  policy.Decay(3600.0);
  EXPECT_EQ(policy.multiplier(), 1.0);
  EXPECT_EQ(policy.rate_per_min(), 0.0);
  EXPECT_EQ(policy.Price(q), PaperModel().Price(1, 900.0, 0.0, 700.0));

  // Bounds were demand-free before and stay so across decay (the
  // conservative-bound contract, DESIGN.md 4.4).
  EXPECT_EQ(policy.MinPrice(1, 700.0), PaperModel().MinPrice(1, 700.0));
}

// Decay(t) followed by RecordRequest(t) must leave exactly the state a
// lone RecordRequest(t) produces — the quote paths decay defensively, so
// any divergence would break the sequential/parallel dispatch and
// per-request/batched determinism contracts.
TEST(SurgePolicyTest, DecayThenRecordEqualsRecordAlone) {
  SurgeOptions opts;
  opts.window_s = 90.0;
  opts.baseline_rate_per_min = 0.5;
  opts.gain_per_rate = 0.4;
  opts.max_multiplier = 2.2;
  SurgePolicy with_decay(PaperModel(), opts);
  SurgePolicy record_only(PaperModel(), opts);
  util::Rng rng(99);
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.Exponential(0.2);  // bursts and lulls
    with_decay.Decay(t);
    with_decay.RecordRequest(t);
    record_only.RecordRequest(t);
    ASSERT_EQ(with_decay.multiplier(), record_only.multiplier());
    ASSERT_EQ(with_decay.rate_per_min(), record_only.rate_per_min());
  }
  // Snapshots taken after a decayed record quote identically too.
  const QuoteInputs q = MakeQuote(2, 1, 500.0, 800.0, 400.0);
  EXPECT_EQ(with_decay.SnapshotForQuote()->Price(q),
            record_only.SnapshotForQuote()->Price(q));
}

TEST(SurgePolicyTest, CapRespectedUnderExtremeDemand) {
  SurgeOptions opts;
  opts.window_s = 60.0;
  opts.baseline_rate_per_min = 0.0;
  opts.gain_per_rate = 1.0;
  opts.max_multiplier = 1.7;
  SurgePolicy policy(PaperModel(), opts);
  for (int i = 0; i < 100000; ++i) policy.RecordRequest(50.0);
  EXPECT_EQ(policy.multiplier(), 1.7);
}

TEST(SharedDiscountPolicyTest, DiscountGrowsWithOccupancyAndCaps) {
  SharedDiscountOptions opts;
  opts.per_committed_rider = 0.1;
  opts.max_discount = 0.25;
  const SharedDiscountPolicy policy(PaperModel(), opts);
  const core::PriceModel legacy = PaperModel();

  // Empty vehicle: full paper fare, bit for bit.
  EXPECT_EQ(policy.Price(MakeQuote(2, 0, 0.0, 15.0, 7.0)),
            legacy.Price(2, 15.0, 0.0, 7.0));

  // Fares decrease in occupancy until the cap.
  double previous = policy.Price(MakeQuote(2, 0, 100.0, 20.0, 50.0));
  for (int committed = 1; committed <= 5; ++committed) {
    const double price =
        policy.Price(MakeQuote(2, committed, 100.0, 20.0, 50.0));
    EXPECT_LE(price, previous);
    EXPECT_GE(price, (1.0 - opts.max_discount) *
                         legacy.Price(2, 120.0, 100.0, 50.0) - 1e-12);
    previous = price;
  }
  EXPECT_DOUBLE_EQ(policy.DiscountFor(2), 0.2);
  EXPECT_DOUBLE_EQ(policy.DiscountFor(4), 0.25);  // capped
  EXPECT_DOUBLE_EQ(policy.DiscountFor(0), 0.0);
}

TEST(FactoryTest, CreatesSelectedPolicyAndValidates) {
  core::Config cfg;
  cfg.pricing_policy = core::PricingPolicyKind::kPaper;
  auto paper = CreatePricingPolicy(cfg);
  ASSERT_TRUE(paper.ok());
  EXPECT_STREQ((*paper)->name(), "paper");

  cfg.pricing_policy = core::PricingPolicyKind::kSurge;
  auto surge = CreatePricingPolicy(cfg);
  ASSERT_TRUE(surge.ok());
  EXPECT_STREQ((*surge)->name(), "surge");

  cfg.pricing_policy = core::PricingPolicyKind::kSharedDiscount;
  auto discount = CreatePricingPolicy(cfg);
  ASSERT_TRUE(discount.ok());
  EXPECT_STREQ((*discount)->name(), "shared-discount");

  cfg.surge_max_multiplier = 0.5;  // < 1: would undercut the bounds
  EXPECT_FALSE(CreatePricingPolicy(cfg).ok());
  cfg = core::Config{};
  cfg.shared_discount_max = 1.0;  // free rides break MinPrice > 0
  EXPECT_FALSE(CreatePricingPolicy(cfg).ok());
  cfg = core::Config{};
  cfg.surge_window_s = 0.0;
  EXPECT_FALSE(CreatePricingPolicy(cfg).ok());

  EXPECT_STREQ(core::PricingPolicyKindName(core::PricingPolicyKind::kPaper),
               "paper");
  EXPECT_STREQ(core::PricingPolicyKindName(core::PricingPolicyKind::kSurge),
               "surge");
  EXPECT_STREQ(
      core::PricingPolicyKindName(core::PricingPolicyKind::kSharedDiscount),
      "shared-discount");
}

// --- Matcher equivalence under every policy --------------------------------

/// Warm-started system + probe requests; the three matchers must return
/// byte-identical option sets whichever policy quotes the fares.
void CheckMatcherEquivalence(core::PricingPolicyKind kind, uint64_t seed) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 10;
  gopts.cols = 10;
  gopts.seed = seed;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());

  core::Config cfg;
  cfg.pricing_policy = kind;
  cfg.default_service_sigma = 0.4;
  cfg.max_planned_pickup_s = 600.0;
  // Make surge kick in at the modest test request rate.
  cfg.surge_baseline_rate_per_min = 0.5;
  cfg.surge_gain_per_rate = 0.2;
  roadnet::GridIndexOptions gridopts;
  gridopts.cells_x = 5;
  gridopts.cells_y = 5;
  auto sys = core::PTRider::Create(*graph, cfg, gridopts);
  ASSERT_TRUE(sys.ok());
  core::PTRider& pt = **sys;
  ASSERT_TRUE(pt.InitFleetUniform(30, seed * 3 + 1).ok());

  util::Rng rng(seed * 17 + 5);
  auto rv = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };
  auto make_request = [&](vehicle::RequestId id) {
    vehicle::Request r;
    r.id = id;
    r.start = rv();
    do {
      r.destination = rv();
    } while (r.destination == r.start);
    r.num_riders = static_cast<int>(rng.UniformInt(1, 3));
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    return r;
  };

  // Load the fleet (and the demand window) with committed requests.
  int assigned = 0;
  for (int i = 0; i < 60 && assigned < 25; ++i) {
    const vehicle::Request r = make_request(1000 + i);
    auto m = pt.SubmitRequest(r, static_cast<double>(i));
    ASSERT_TRUE(m.ok());
    if (m->options.empty()) continue;
    ASSERT_TRUE(
        pt.ChooseOption(r, m->options.front(), static_cast<double>(i)).ok());
    ++assigned;
  }
  ASSERT_GT(assigned, 10);

  if (kind == core::PricingPolicyKind::kSurge) {
    const auto& surge =
        dynamic_cast<const SurgePolicy&>(pt.pricing_policy());
    EXPECT_GT(surge.multiplier(), 1.0)
        << "surge inactive: the equivalence check would not exercise it";
  }

  // Probe: MatchReadOnly directly so the demand signal stays frozen
  // across the three algorithms.
  const double probe_s = 60.0;
  int compared_options = 0;
  for (int i = 0; i < 40; ++i) {
    const vehicle::Request r = make_request(5000 + i);
    pt.set_matcher(core::MatcherAlgorithm::kNaive);
    const core::MatchResult naive = pt.MatchReadOnly(r, probe_s, pt.oracle());
    pt.set_matcher(core::MatcherAlgorithm::kSingleSide);
    const core::MatchResult single =
        pt.MatchReadOnly(r, probe_s, pt.oracle());
    pt.set_matcher(core::MatcherAlgorithm::kDualSide);
    const core::MatchResult dual = pt.MatchReadOnly(r, probe_s, pt.oracle());

    for (const core::MatchResult* other : {&single, &dual}) {
      ASSERT_EQ(other->options.size(), naive.options.size());
      for (size_t k = 0; k < naive.options.size(); ++k) {
        const core::Option& a = naive.options[k];
        const core::Option& b = other->options[k];
        EXPECT_EQ(a.vehicle, b.vehicle);
        EXPECT_EQ(a.pickup_distance, b.pickup_distance);
        EXPECT_EQ(a.price, b.price);  // byte-identical quotes
        EXPECT_EQ(a.new_total_distance, b.new_total_distance);
      }
    }
    compared_options += static_cast<int>(naive.options.size());
  }
  EXPECT_GT(compared_options, 40);  // the check saw real option sets
}

// --- Quote-path decay (service quote endpoint) -----------------------------

// Regression: PTRider::QuoteRequest must decay the pricing clock to
// `now` BEFORE pricing, exactly as SubmitRequest does. If it priced
// first, a quote issued long after a demand burst would still carry the
// burst's stale surge — and would disagree with an immediately repeated
// identical quote (which would then see the decayed state).
TEST(QuotePathTest, QuoteRequestDecaysStaleSurge) {
  roadnet::CityGridOptions gopts;
  gopts.rows = 10;
  gopts.cols = 10;
  gopts.seed = 23;
  auto graph = roadnet::MakeCityGrid(gopts);
  ASSERT_TRUE(graph.ok());

  core::Config cfg;
  cfg.pricing_policy = core::PricingPolicyKind::kSurge;
  cfg.max_planned_pickup_s = 600.0;
  // Surge engages at the test's modest burst rate.
  cfg.surge_baseline_rate_per_min = 0.5;
  cfg.surge_gain_per_rate = 0.2;
  auto sys = core::PTRider::Create(*graph, cfg);
  ASSERT_TRUE(sys.ok());
  core::PTRider& pt = **sys;
  ASSERT_TRUE(pt.InitFleetUniform(25, 3).ok());

  // A demand burst at t ~ 0 drives the multiplier above 1.
  util::Rng rng(41);
  auto rv = [&]() {
    return static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph->NumVertices()) - 1));
  };
  for (int i = 0; i < 30; ++i) {
    vehicle::Request r;
    r.id = 100 + i;
    r.start = rv();
    do {
      r.destination = rv();
    } while (r.destination == r.start);
    r.num_riders = 1;
    r.max_wait_s = cfg.default_max_wait_s;
    r.service_sigma = cfg.default_service_sigma;
    ASSERT_TRUE(pt.SubmitRequest(r, static_cast<double>(i)).ok());
  }
  const auto& surge = dynamic_cast<const SurgePolicy&>(pt.pricing_policy());
  ASSERT_GT(surge.multiplier(), 1.0);

  // Quote well past the surge window: the whole burst has aged out.
  const double late = 30.0 + cfg.surge_window_s + 60.0;
  vehicle::Request probe;
  probe.start = 0;
  probe.destination =
      static_cast<roadnet::VertexId>(graph->NumVertices() - 1);
  probe.num_riders = 1;
  probe.max_wait_s = cfg.default_max_wait_s;
  probe.service_sigma = cfg.default_service_sigma;
  auto first = pt.QuoteRequest(probe, late);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The quote path decayed the rolling window before pricing.
  EXPECT_DOUBLE_EQ(surge.multiplier(), 1.0);

  // An identical repeat sees the same (fully decayed) state:
  // byte-identical quotes, the Decay(t);Record(t) == Record(t) family of
  // invariants applied to the quote-only path.
  auto second = pt.QuoteRequest(probe, late);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->options.size(), second->options.size());
  for (size_t i = 0; i < first->options.size(); ++i) {
    EXPECT_EQ(first->options[i].price, second->options[i].price);
    EXPECT_EQ(first->options[i].vehicle, second->options[i].vehicle);
  }
  // Quote-only: no demand recorded, the multiplier stays at rest.
  EXPECT_DOUBLE_EQ(surge.multiplier(), 1.0);
}

TEST(MatcherEquivalenceTest, PaperPolicy) {
  CheckMatcherEquivalence(core::PricingPolicyKind::kPaper, 5);
}

TEST(MatcherEquivalenceTest, SurgePolicy) {
  CheckMatcherEquivalence(core::PricingPolicyKind::kSurge, 6);
}

TEST(MatcherEquivalenceTest, SharedDiscountPolicy) {
  CheckMatcherEquivalence(core::PricingPolicyKind::kSharedDiscount, 7);
}

}  // namespace
}  // namespace ptrider::pricing
