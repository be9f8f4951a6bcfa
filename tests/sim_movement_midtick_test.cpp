// Regression: AdvanceArrivals used to stamp stop events with the tick
// boundary passed to the movement advance, so a pick-up reached mid-tick
// reported a waiting time quantized to the tick grid — off by up to one
// tick. The arrival instant now derives from the driving budget consumed
// so far (speed is constant within a tick). Both movement paths
// (sequential and move_jobs-parallel) share AdvanceArrivals, so the fix
// cannot split report parity across move_jobs — which
// sim_movement_parallel_test keeps proving.

#include <gtest/gtest.h>

#include "core/ptrider.h"
#include "roadnet/paper_example.h"
#include "sim/movement.h"

namespace ptrider::sim {
namespace {

TEST(MidTickArrivalTest, PickupWaitingUsesIntraTickInstant) {
  const roadnet::PaperExampleNetwork ex = roadnet::MakePaperExampleNetwork();
  core::Config cfg;
  cfg.speed_mps = 1.0;  // distances double as travel times
  cfg.default_max_wait_s = 1e6;
  cfg.max_planned_pickup_s = 1e6;
  auto sys = core::PTRider::Create(ex.graph, cfg);
  ASSERT_TRUE(sys.ok());
  auto vid = (*sys)->AddVehicle(ex.v(1));
  ASSERT_TRUE(vid.ok());

  vehicle::Request r;
  r.id = 1;
  r.start = ex.v(2);
  r.destination = ex.v(16);
  r.num_riders = 1;
  r.max_wait_s = 1e6;
  r.service_sigma = 1.0;
  auto match = (*sys)->SubmitRequest(r, 0.0);
  ASSERT_TRUE(match.ok());
  ASSERT_FALSE(match->options.empty());
  ASSERT_TRUE((*sys)->ChooseOption(r, match->options[0], 0.0).ok());

  const vehicle::Vehicle& v = (*sys)->fleet().at(*vid);
  const double planned =
      v.tree().pending().at(r.id).planned_pickup_s;
  const double pickup_distance = match->options[0].pickup_distance;
  ASSERT_GT(pickup_distance, 0.0);
  EXPECT_DOUBLE_EQ(planned, pickup_distance);  // committed at t=0, 1 m/s

  // One long tick ending at now = 50 with 40 m of driving budget: the
  // vehicle sat still until t = 10, then drove the `pickup_distance`
  // meters, arriving at t = 10 + planned — mid-tick, well before the
  // boundary.
  const double now = 50.0;
  const double budget = 40.0;
  ASSERT_GT(budget, pickup_distance);
  Motion motion;
  MovementOutcome out = AdvanceVehicle((*sys)->fleet().at(*vid), motion,
                                       **sys, now, budget, (*sys)->oracle());
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  ASSERT_FALSE(out.stops.empty());
  ASSERT_EQ(out.stops.front().event.stop.type, vehicle::StopType::kPickup);

  // Arrival instant: now - (budget - pickup_distance) / speed, i.e. the
  // wait is exactly the 10 s the budget implies the vehicle idled — NOT
  // the 'now - planned' = 44 s the tick-boundary stamp used to report.
  const double waiting = out.stops.front().event.waiting_s;
  EXPECT_NEAR(waiting, now - budget, 1e-9);
  EXPECT_LT(waiting, now - planned - 1.0);  // the pre-fix value is out
}

// A vehicle already parked at its pick-up consumes the stop at the start
// of the tick's driving, not its end: the full remaining budget lies
// ahead, so the arrival instant is the tick's beginning.
TEST(MidTickArrivalTest, StopAtCurrentVertexStampsTickStart) {
  const roadnet::PaperExampleNetwork ex = roadnet::MakePaperExampleNetwork();
  core::Config cfg;
  cfg.speed_mps = 1.0;
  cfg.default_max_wait_s = 1e6;
  cfg.max_planned_pickup_s = 1e6;
  auto sys = core::PTRider::Create(ex.graph, cfg);
  ASSERT_TRUE(sys.ok());
  auto vid = (*sys)->AddVehicle(ex.v(2));
  ASSERT_TRUE(vid.ok());

  vehicle::Request r;
  r.id = 1;
  r.start = ex.v(2);  // pick-up right where the vehicle stands
  r.destination = ex.v(16);
  r.num_riders = 1;
  r.max_wait_s = 1e6;
  r.service_sigma = 1.0;
  auto match = (*sys)->SubmitRequest(r, 0.0);
  ASSERT_TRUE(match.ok());
  ASSERT_FALSE(match->options.empty());
  ASSERT_TRUE((*sys)->ChooseOption(r, match->options[0], 0.0).ok());

  const double now = 30.0;
  const double budget = 25.0;
  Motion motion;
  MovementOutcome out = AdvanceVehicle((*sys)->fleet().at(*vid), motion,
                                       **sys, now, budget, (*sys)->oracle());
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  ASSERT_FALSE(out.stops.empty());
  ASSERT_EQ(out.stops.front().event.stop.type, vehicle::StopType::kPickup);
  // planned_pickup_s = 0 (zero pick-up distance); arrival = tick start.
  EXPECT_NEAR(out.stops.front().event.waiting_s, now - budget, 1e-9);
}

}  // namespace
}  // namespace ptrider::sim
