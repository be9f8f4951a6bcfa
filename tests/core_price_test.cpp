#include "core/price.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ptrider::core {
namespace {

TEST(PriceModelTest, PaperRatios) {
  const PriceModel price(0.3, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(price.Fn(1), 0.3);
  EXPECT_DOUBLE_EQ(price.Fn(2), 0.4);
  EXPECT_DOUBLE_EQ(price.Fn(3), 0.5);
  EXPECT_DOUBLE_EQ(price.Fn(4), 0.6);
}

TEST(PriceModelTest, WorkedExampleNumbers) {
  const PriceModel price(0.3, 0.1, 1.0);
  // c1: f2 * (21 - 18 + 7) = 4.
  EXPECT_DOUBLE_EQ(price.Price(2, 21.0, 18.0, 7.0), 4.0);
  // c2 (empty): f2 * (15 - 0 + 7) = 8.8, equivalently the empty formula.
  EXPECT_DOUBLE_EQ(price.Price(2, 15.0, 0.0, 7.0), 8.8);
  EXPECT_DOUBLE_EQ(price.EmptyVehiclePrice(2, 8.0, 7.0), 8.8);
}

TEST(PriceModelTest, DistanceUnitScales) {
  const PriceModel per_km(0.3, 0.1, 1000.0);
  EXPECT_DOUBLE_EQ(per_km.Price(1, 5000.0, 2000.0, 1000.0), 0.3 * 4.0);
}

TEST(PriceModelTest, FloorsAndMonotonicity) {
  const PriceModel price(0.3, 0.1, 1.0);
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double direct = rng.UniformDouble(1.0, 100.0);
    const double cur = rng.UniformDouble(0.0, 200.0);
    const double delta = rng.UniformDouble(0.0, 50.0);
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    // Any realizable price is >= the floor (Delta >= 0).
    EXPECT_GE(price.Price(n, cur + delta, cur, direct) + 1e-12,
              price.MinPrice(n, direct));
    // Price grows with detour.
    EXPECT_GE(price.Price(n, cur + delta + 1.0, cur, direct),
              price.Price(n, cur + delta, cur, direct));
    // More riders pay a higher ratio.
    EXPECT_GE(price.Price(n + 1, cur + delta, cur, direct),
              price.Price(n, cur + delta, cur, direct));
    // PriceWithDetourLb lower-bounds the actual price for any
    // detour >= the bound.
    EXPECT_LE(price.PriceWithDetourLb(n, delta, direct),
              price.Price(n, cur + delta, cur, direct) + 1e-12);
  }
}

TEST(PriceModelTest, EmptyVehiclePriceIncreasesWithPickup) {
  const PriceModel price(0.3, 0.1, 1.0);
  EXPECT_LT(price.EmptyVehiclePrice(2, 5.0, 7.0),
            price.EmptyVehiclePrice(2, 6.0, 7.0));
}

// The empty-vehicle prune compares this bound against kept quotes with
// strict dominance, so it must never exceed an empty vehicle's quote at
// the same pick-up, not even by an ulp: two co-located empty vehicles
// tie, and both options are kept.
TEST(PriceModelTest, EmptyVehiclePriceIsTheEmptyQuoteBitForBit) {
  const PriceModel price(0.3, 0.1, 250.0);
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double pickup = rng.UniformDouble(0.0, 5000.0);
    const double direct = rng.UniformDouble(1.0, 10000.0);
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    // An empty schedule sums legs from 0: new_total = pickup + direct.
    EXPECT_EQ(price.EmptyVehiclePrice(n, pickup, direct),
              price.Price(n, 0.0 + pickup + direct, 0.0, direct))
        << "pickup " << pickup << " direct " << direct << " n " << n;
  }
}

TEST(PriceModelTest, ConfigConstructor) {
  Config cfg;
  cfg.price_base_ratio = 0.5;
  cfg.price_per_extra_rider = 0.2;
  cfg.price_distance_unit_m = 10.0;
  const PriceModel price(cfg);
  EXPECT_DOUBLE_EQ(price.Fn(2), 0.7);
  EXPECT_DOUBLE_EQ(price.MinPrice(2, 100.0), 7.0);
}

TEST(ConfigTest, ValidateCatchesBadValues) {
  Config cfg;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.speed_mps = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = Config{};
  cfg.vehicle_capacity = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = Config{};
  cfg.default_max_wait_s = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = Config{};
  cfg.default_service_sigma = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = Config{};
  cfg.price_distance_unit_m = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = Config{};
  cfg.max_planned_pickup_s = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

// Dispatch threads count the matching threads, the caller included: at
// least one, at most kMaxThreads. Validate runs before any pool exists,
// so the out-of-range values below start no thread.
TEST(ConfigTest, DispatchThreadsBounded) {
  Config cfg;
  EXPECT_EQ(cfg.dispatch_threads, 1);
  for (const int threads : {1, 2, kMaxThreads}) {
    cfg.dispatch_threads = threads;
    EXPECT_TRUE(cfg.Validate().ok()) << threads;
  }
  for (const int threads : {-1, 0, kMaxThreads + 1}) {
    cfg.dispatch_threads = threads;
    EXPECT_EQ(cfg.Validate().code(), util::StatusCode::kInvalidArgument)
        << threads;
  }
}

TEST(ConfigTest, PickupRadiusDerived) {
  Config cfg;
  cfg.speed_mps = 10.0;
  cfg.max_planned_pickup_s = 60.0;
  EXPECT_DOUBLE_EQ(cfg.MaxPickupRadiusM(), 600.0);
}

TEST(ConfigTest, MatcherNames) {
  EXPECT_STREQ(MatcherAlgorithmName(MatcherAlgorithm::kNaive), "naive");
  EXPECT_STREQ(MatcherAlgorithmName(MatcherAlgorithm::kSingleSide),
               "single-side");
  EXPECT_STREQ(MatcherAlgorithmName(MatcherAlgorithm::kDualSide),
               "dual-side");
}

}  // namespace
}  // namespace ptrider::core
