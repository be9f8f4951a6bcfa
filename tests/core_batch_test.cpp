// The batch dispatch contract on the paper's example network: greedy
// (submit_time, id) order with each commitment visible to later
// requests, declines and invalid requests leaving no state, and chooser
// errors surfacing. It runs on the one batch dispatcher at one thread
// (no pool) and at two.

#include "core/batch.h"

#include <gtest/gtest.h>

#include "dispatch/parallel_dispatcher.h"
#include "roadnet/paper_example.h"

namespace ptrider::core {
namespace {

using dispatch::ParallelDispatcher;
using roadnet::MakePaperExampleNetwork;
using roadnet::PaperExampleNetwork;

class BatchTest : public ::testing::TestWithParam<size_t> {
 protected:
  BatchTest() : ex_(MakePaperExampleNetwork()) {
    Config cfg;
    cfg.speed_mps = 1.0;
    cfg.vehicle_capacity = 4;
    cfg.default_max_wait_s = 100.0;
    cfg.default_service_sigma = 0.5;
    cfg.price_distance_unit_m = 1.0;
    cfg.max_planned_pickup_s = 1e6;
    roadnet::GridIndexOptions grid;
    grid.cells_x = 3;
    grid.cells_y = 3;
    auto sys = PTRider::Create(ex_.graph, cfg, grid);
    EXPECT_TRUE(sys.ok());
    sys_ = std::move(sys).value();
  }

  vehicle::Request MakeRequest(vehicle::RequestId id, int s, int d,
                               double submit = 0.0) {
    vehicle::Request r;
    r.id = id;
    r.start = ex_.v(s);
    r.destination = ex_.v(d);
    r.num_riders = 1;
    r.max_wait_s = 100.0;
    r.service_sigma = 0.5;
    r.submit_time_s = submit;
    return r;
  }

  ParallelDispatcher MakeDispatcher() {
    return ParallelDispatcher(*sys_, GetParam());
  }

  PaperExampleNetwork ex_;
  std::unique_ptr<PTRider> sys_;
};

TEST_P(BatchTest, RequiresChooser) {
  ParallelDispatcher dispatcher = MakeDispatcher();
  EXPECT_FALSE(dispatcher.Dispatch({}, 0.0, nullptr).ok());
}

TEST_P(BatchTest, EmptyBatchIsFine) {
  ParallelDispatcher dispatcher = MakeDispatcher();
  auto out = dispatcher.Dispatch({}, 0.0, Dispatcher::ChooseEarliest);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST_P(BatchTest, ProcessesInTimestampOrderAndSeesEarlierCommitments) {
  ASSERT_TRUE(sys_->AddVehicle(ex_.v(13)).ok());  // one taxi only
  ParallelDispatcher dispatcher = MakeDispatcher();
  // Submitted "simultaneously" but with distinct timestamps; passed in
  // reverse order to verify sorting.
  std::vector<vehicle::Request> batch = {
      MakeRequest(2, 12, 17, /*submit=*/1.0),
      MakeRequest(1, 10, 11, /*submit=*/0.5),
  };
  auto out = dispatcher.Dispatch(batch, 2.0,
                                 Dispatcher::ChooseEarliest);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  // Request 1 (earlier timestamp) processed first.
  EXPECT_EQ((*out)[0].request.id, 1);
  EXPECT_EQ((*out)[1].request.id, 2);
  ASSERT_TRUE((*out)[0].assigned);
  // The second request matched against the taxi already carrying the
  // first: its options reflect the updated schedule (greedy strategy).
  ASSERT_TRUE((*out)[1].assigned);
  EXPECT_EQ(sys_->fleet().at(0).tree().NumPendingRequests(), 2u);
}

TEST_P(BatchTest, DeclinedRequestsLeaveNoState) {
  ASSERT_TRUE(sys_->AddVehicle(ex_.v(13)).ok());
  ParallelDispatcher dispatcher = MakeDispatcher();
  auto decline_all = [](const vehicle::Request&, const MatchResult&) {
    return std::optional<size_t>{};
  };
  auto out =
      dispatcher.Dispatch({MakeRequest(5, 12, 17)}, 0.0, decline_all);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE((*out)[0].assigned);
  EXPECT_FALSE((*out)[0].match.options.empty());
  EXPECT_TRUE(sys_->fleet().at(0).IsEmpty());
  EXPECT_EQ(sys_->AssignedVehicle(5), vehicle::kInvalidVehicle);
}

TEST_P(BatchTest, InvalidRequestDoesNotAbortBatch) {
  ASSERT_TRUE(sys_->AddVehicle(ex_.v(13)).ok());
  ParallelDispatcher dispatcher = MakeDispatcher();
  vehicle::Request bad = MakeRequest(7, 12, 12);  // s == d
  bad.destination = bad.start;
  auto out = dispatcher.Dispatch({bad, MakeRequest(8, 12, 17)}, 0.0,
                                 Dispatcher::ChooseCheapest);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_FALSE((*out)[0].assigned);
  EXPECT_TRUE((*out)[1].assigned);
}

TEST_P(BatchTest, BadChooserIndexSurfaces) {
  ASSERT_TRUE(sys_->AddVehicle(ex_.v(13)).ok());
  ParallelDispatcher dispatcher = MakeDispatcher();
  auto out_of_range = [](const vehicle::Request&,
                         const MatchResult& match) {
    return std::optional<size_t>{match.options.size() + 5};
  };
  EXPECT_EQ(dispatcher.Dispatch({MakeRequest(9, 12, 17)}, 0.0,
                                out_of_range)
                .status()
                .code(),
            util::StatusCode::kOutOfRange);
}

TEST(BatchChooserTest, ChooserHelpers) {
  MatchResult match;
  match.options.resize(2);
  match.options[0].pickup_time_s = 10.0;
  match.options[0].price = 9.0;
  match.options[1].pickup_time_s = 20.0;
  match.options[1].price = 4.0;
  vehicle::Request r;
  EXPECT_EQ(Dispatcher::ChooseEarliest(r, match), 0u);
  EXPECT_EQ(Dispatcher::ChooseCheapest(r, match), 1u);
  EXPECT_FALSE(Dispatcher::ChooseEarliest(r, {}).has_value());
  EXPECT_FALSE(Dispatcher::ChooseCheapest(r, {}).has_value());
}

TEST_P(BatchTest, GreedyCapacityContention) {
  // Capacity 4, three 1-rider requests sharing a corridor: greedy order
  // assigns all three to the single taxi when feasible.
  ASSERT_TRUE(sys_->AddVehicle(ex_.v(9)).ok());
  ParallelDispatcher dispatcher = MakeDispatcher();
  std::vector<vehicle::Request> batch = {
      MakeRequest(1, 10, 11, 0.0), MakeRequest(2, 10, 12, 0.1),
      MakeRequest(3, 11, 12, 0.2)};
  auto out =
      dispatcher.Dispatch(batch, 1.0, Dispatcher::ChooseCheapest);
  ASSERT_TRUE(out.ok());
  int assigned = 0;
  for (const BatchItem& item : *out) assigned += item.assigned ? 1 : 0;
  EXPECT_EQ(assigned, 3);
  EXPECT_EQ(sys_->fleet().at(0).tree().NumPendingRequests(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchTest, ::testing::Values<size_t>(1, 2));

}  // namespace
}  // namespace ptrider::core
