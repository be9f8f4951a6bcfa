#include "core/ptrider.h"

#include <gtest/gtest.h>

#include "roadnet/paper_example.h"

namespace ptrider::core {
namespace {

using roadnet::MakePaperExampleNetwork;
using roadnet::PaperExampleNetwork;

Config UnitConfig() {
  Config cfg;
  cfg.speed_mps = 1.0;
  cfg.vehicle_capacity = 4;
  cfg.default_max_wait_s = 5.0;
  cfg.default_service_sigma = 0.2;
  cfg.price_distance_unit_m = 1.0;
  cfg.max_planned_pickup_s = 1e6;
  return cfg;
}

class PTRiderFacadeTest : public ::testing::Test {
 protected:
  PTRiderFacadeTest() : ex_(MakePaperExampleNetwork()) {
    roadnet::GridIndexOptions grid;
    grid.cells_x = 3;
    grid.cells_y = 3;
    auto sys = PTRider::Create(ex_.graph, UnitConfig(), grid);
    EXPECT_TRUE(sys.ok());
    sys_ = std::move(sys).value();
  }

  vehicle::Request MakeRequest(vehicle::RequestId id, int s, int d,
                               int n = 2) {
    vehicle::Request r;
    r.id = id;
    r.start = ex_.v(s);
    r.destination = ex_.v(d);
    r.num_riders = n;
    r.max_wait_s = 5.0;
    r.service_sigma = 0.2;
    return r;
  }

  PaperExampleNetwork ex_;
  std::unique_ptr<PTRider> sys_;
};

TEST_F(PTRiderFacadeTest, CreateRejectsBadConfig) {
  Config bad = UnitConfig();
  bad.vehicle_capacity = 0;
  EXPECT_FALSE(PTRider::Create(ex_.graph, bad).ok());
}

TEST_F(PTRiderFacadeTest, AddVehicleValidatesLocation) {
  EXPECT_FALSE(sys_->AddVehicle(-1).ok());
  EXPECT_FALSE(sys_->AddVehicle(99).ok());
  auto id = sys_->AddVehicle(ex_.v(3));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(sys_->fleet().size(), 1u);
  EXPECT_EQ(sys_->fleet().at(*id).capacity(), 4);
}

TEST_F(PTRiderFacadeTest, InitFleetUniformRegistersAll) {
  ASSERT_TRUE(sys_->InitFleetUniform(10, 5).ok());
  EXPECT_EQ(sys_->fleet().size(), 10u);
  EXPECT_EQ(sys_->vehicle_index().size(), 10u);
}

// Re-initializing would replace the fleet but strand the old vehicles'
// index entries under ids the new fleet may not have.
TEST_F(PTRiderFacadeTest, InitFleetUniformRejectsNonEmptySystem) {
  for (int label = 1; label <= 6; ++label) {
    ASSERT_TRUE(sys_->AddVehicle(ex_.v(label)).ok());
  }
  EXPECT_EQ(sys_->InitFleetUniform(2, 1).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(sys_->fleet().size(), 6u);
  EXPECT_EQ(sys_->vehicle_index().size(), 6u);

  auto fresh = PTRider::Create(ex_.graph, UnitConfig());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE((*fresh)->InitFleetUniform(5, 3).ok());
  EXPECT_EQ((*fresh)->InitFleetUniform(2, 1).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*fresh)->fleet().size(), 5u);
  EXPECT_EQ((*fresh)->vehicle_index().size(), 5u);
}

TEST_F(PTRiderFacadeTest, ChooseOptionRejectsUnknownVehicle) {
  Option o;
  o.vehicle = 42;
  EXPECT_FALSE(
      sys_->ChooseOption(MakeRequest(1, 12, 17), o, 0.0).ok());
}

TEST_F(PTRiderFacadeTest, DuplicateRequestIdRejected) {
  ASSERT_TRUE(sys_->AddVehicle(ex_.v(13)).ok());
  const vehicle::Request r = MakeRequest(7, 12, 17);
  auto m = sys_->SubmitRequest(r, 0.0);
  ASSERT_TRUE(m.ok());
  ASSERT_FALSE(m->options.empty());
  ASSERT_TRUE(sys_->ChooseOption(r, m->options.front(), 0.0).ok());
  EXPECT_EQ(sys_->SubmitRequest(r, 0.0).status().code(),
            util::StatusCode::kAlreadyExists);
}

TEST_F(PTRiderFacadeTest, AssignmentTracking) {
  auto c = sys_->AddVehicle(ex_.v(13));
  ASSERT_TRUE(c.ok());
  const vehicle::Request r = MakeRequest(3, 12, 17);
  EXPECT_EQ(sys_->AssignedVehicle(3), vehicle::kInvalidVehicle);
  auto m = sys_->SubmitRequest(r, 0.0);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(sys_->ChooseOption(r, m->options.front(), 0.0).ok());
  EXPECT_EQ(sys_->AssignedVehicle(3), *c);
}

TEST_F(PTRiderFacadeTest, FullServiceLifecycleEmitsEvents) {
  auto c = sys_->AddVehicle(ex_.v(13));
  ASSERT_TRUE(c.ok());
  const vehicle::Request r = MakeRequest(5, 12, 17);
  auto m = sys_->SubmitRequest(r, 0.0);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->options.size(), 1u);
  ASSERT_TRUE(sys_->ChooseOption(r, m->options.front(), 0.0).ok());

  // Drive v13 -> v12 (8 units), arrive late by 2 (within w = 5).
  auto path = sys_->oracle().ShortestPath(ex_.v(13), ex_.v(12));
  ASSERT_TRUE(path.ok());
  double now = 0.0;
  for (size_t i = 1; i < path->size(); ++i) {
    const double leg =
        ex_.graph.EdgeWeight((*path)[i - 1], (*path)[i]);
    now += leg;
    ASSERT_TRUE(sys_->UpdateVehicleLocation(
                        *c, (*path)[i], leg, now + 2.0,
                        sys_->fleet().at(*c).tree().BestBranch().stops)
                    .ok());
  }
  auto pickup = sys_->VehicleArrivedAtStop(*c, now + 2.0);
  ASSERT_TRUE(pickup.ok());
  EXPECT_EQ(pickup->stop.type, vehicle::StopType::kPickup);
  EXPECT_NEAR(pickup->waiting_s, 2.0, 1e-9);
  EXPECT_EQ(pickup->num_riders, 2);

  // Drive v12 -> v16 -> v17 (7 units): solo dropoff.
  auto path2 = sys_->oracle().ShortestPath(ex_.v(12), ex_.v(17));
  ASSERT_TRUE(path2.ok());
  for (size_t i = 1; i < path2->size(); ++i) {
    const double leg =
        ex_.graph.EdgeWeight((*path2)[i - 1], (*path2)[i]);
    now += leg;
    ASSERT_TRUE(sys_->UpdateVehicleLocation(
                        *c, (*path2)[i], leg, now + 2.0,
                        sys_->fleet().at(*c).tree().BestBranch().stops)
                    .ok());
  }
  auto dropoff = sys_->VehicleArrivedAtStop(*c, now + 2.0);
  ASSERT_TRUE(dropoff.ok());
  EXPECT_EQ(dropoff->stop.type, vehicle::StopType::kDropoff);
  EXPECT_FALSE(dropoff->shared);
  EXPECT_DOUBLE_EQ(dropoff->price, m->options.front().price);
  EXPECT_NEAR(dropoff->trip_distance_m, 7.0, 1e-9);
  EXPECT_NEAR(dropoff->direct_distance_m, 7.0, 1e-9);
  EXPECT_NEAR(dropoff->allowed_trip_distance_m, 8.4, 1e-9);

  // All served: vehicle empty again, assignment cleared, stats counted.
  EXPECT_TRUE(sys_->fleet().at(*c).IsEmpty());
  EXPECT_EQ(sys_->AssignedVehicle(5), vehicle::kInvalidVehicle);
  EXPECT_EQ(sys_->fleet().at(*c).completed_requests(), 1);
  EXPECT_DOUBLE_EQ(sys_->fleet().at(*c).total_distance_m(), 15.0);
  EXPECT_DOUBLE_EQ(sys_->fleet().at(*c).occupied_distance_m(), 7.0);
  EXPECT_DOUBLE_EQ(sys_->fleet().at(*c).shared_distance_m(), 0.0);
}

TEST_F(PTRiderFacadeTest, ArrivalWithoutScheduleFails) {
  auto c = sys_->AddVehicle(ex_.v(4));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(sys_->VehicleArrivedAtStop(*c, 0.0).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(PTRiderFacadeTest, UpdateLocationValidatesArguments) {
  auto c = sys_->AddVehicle(ex_.v(4));
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(sys_->UpdateVehicleLocation(99, ex_.v(5), 1.0, 0.0, {}).ok());
  EXPECT_FALSE(sys_->UpdateVehicleLocation(*c, 99, 1.0, 0.0, {}).ok());
  EXPECT_TRUE(sys_->UpdateVehicleLocation(*c, ex_.v(5), 2.0, 2.0, {}).ok());
  EXPECT_EQ(sys_->fleet().at(*c).location(), ex_.v(5));
}

TEST_F(PTRiderFacadeTest, MatcherSwitching) {
  sys_->set_matcher(MatcherAlgorithm::kNaive);
  EXPECT_STREQ(MatcherAlgorithmName(sys_->config().matcher), "naive");
  sys_->set_matcher(MatcherAlgorithm::kSingleSide);
  EXPECT_STREQ(MatcherAlgorithmName(sys_->config().matcher), "single-side");
  sys_->set_matcher(MatcherAlgorithm::kDualSide);
  EXPECT_STREQ(MatcherAlgorithmName(sys_->config().matcher), "dual-side");
}

TEST_F(PTRiderFacadeTest, SharedRideMarksBothRequests) {
  // c1 at v1 serving R1 then R2 inserted (the worked example), driven to
  // completion: both dropoffs report shared = true.
  auto c1 = sys_->AddVehicle(ex_.v(1));
  ASSERT_TRUE(c1.ok());
  const vehicle::Request r1 = MakeRequest(1, 2, 16);
  auto m1 = sys_->SubmitRequest(r1, 0.0);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(sys_->ChooseOption(r1, m1->options.front(), 0.0).ok());
  const vehicle::Request r2 = MakeRequest(2, 12, 17);
  auto m2 = sys_->SubmitRequest(r2, 0.0);
  ASSERT_TRUE(m2.ok());
  const Option* cheap = nullptr;
  for (const Option& o : m2->options) {
    if (cheap == nullptr || o.price < cheap->price) cheap = &o;
  }
  ASSERT_NE(cheap, nullptr);
  ASSERT_TRUE(sys_->ChooseOption(r2, *cheap, 0.0).ok());

  double now = 0.0;
  int shared_dropoffs = 0;
  while (!sys_->fleet().at(*c1).tree().empty()) {
    const vehicle::Vehicle& v = sys_->fleet().at(*c1);
    const vehicle::Stop next = v.tree().BestBranch().stops.front();
    auto path = sys_->oracle().ShortestPath(v.location(), next.location);
    ASSERT_TRUE(path.ok());
    for (size_t i = 1; i < path->size(); ++i) {
      const double leg =
          ex_.graph.EdgeWeight((*path)[i - 1], (*path)[i]);
      now += leg;
      ASSERT_TRUE(sys_->UpdateVehicleLocation(
                          *c1, (*path)[i], leg, now,
                          v.tree().BestBranch().stops)
                      .ok());
    }
    auto event = sys_->VehicleArrivedAtStop(*c1, now);
    ASSERT_TRUE(event.ok());
    if (event->stop.type == vehicle::StopType::kDropoff &&
        event->shared) {
      ++shared_dropoffs;
    }
  }
  EXPECT_EQ(shared_dropoffs, 2);
}

}  // namespace
}  // namespace ptrider::core
