#include "core/ptrider.h"

#include <algorithm>
#include <utility>

#include "core/distance_providers.h"
#include "core/indexed_matcher.h"
#include "core/naive_matcher.h"
#include "pricing/factory.h"
#include "util/string_util.h"

namespace ptrider::core {

namespace {
roadnet::DistanceOracleOptions OracleOptions(const Config& config) {
  roadnet::DistanceOracleOptions opts;
  opts.algorithm = config.sp_algorithm;
  return opts;
}
}  // namespace

PTRider::PTRider(const roadnet::RoadNetwork& graph, Config config,
                 roadnet::GridIndex grid,
                 std::unique_ptr<pricing::PricingPolicy> pricing,
                 std::shared_ptr<const roadnet::CHIndex> shared_ch)
    : graph_(&graph),
      config_(config),
      grid_(std::move(grid)),
      oracle_(graph, OracleOptions(config), std::move(shared_ch)),
      vehicle_index_(grid_),
      pricing_(std::move(pricing)) {
  match_context_.graph = graph_;
  match_context_.grid = &grid_;
  match_context_.fleet = &fleet_;
  match_context_.vehicle_index = &vehicle_index_;
  match_context_.oracle = &oracle_;
  match_context_.config = &config_;
  match_context_.pricing = pricing_.get();
}

util::Result<std::unique_ptr<PTRider>> PTRider::Create(
    const roadnet::RoadNetwork& graph, Config config,
    roadnet::GridIndexOptions grid_options) {
  PTRIDER_RETURN_IF_ERROR(config.Validate());
  PTRIDER_ASSIGN_OR_RETURN(roadnet::GridIndex grid,
                           roadnet::GridIndex::Build(graph, grid_options));
  PTRIDER_ASSIGN_OR_RETURN(std::unique_ptr<pricing::PricingPolicy> pricing,
                           pricing::CreatePricingPolicy(config));
  // make_unique cannot reach the private constructor.
  return std::unique_ptr<PTRider>(new PTRider(
      graph, config, std::move(grid), std::move(pricing), nullptr));
}

util::Result<std::unique_ptr<PTRider>> PTRider::Create(
    const roadnet::RoadNetwork& graph, Config config,
    roadnet::GridIndex grid,
    std::shared_ptr<const roadnet::CHIndex> shared_ch) {
  PTRIDER_RETURN_IF_ERROR(config.Validate());
  if (&grid.graph() != &graph) {
    return util::Status::InvalidArgument(
        "prebuilt grid index was not built over the given graph");
  }
  if (shared_ch != nullptr &&
      shared_ch->NumVertices() != graph.NumVertices()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "prebuilt CH index covers %zu vertices, graph has %zu",
        shared_ch->NumVertices(), graph.NumVertices()));
  }
  PTRIDER_ASSIGN_OR_RETURN(std::unique_ptr<pricing::PricingPolicy> pricing,
                           pricing::CreatePricingPolicy(config));
  return std::unique_ptr<PTRider>(
      new PTRider(graph, config, std::move(grid), std::move(pricing),
                  std::move(shared_ch)));
}

util::Status PTRider::InitFleetUniform(size_t count, uint64_t seed) {
  // Replacing a live fleet would strand the old vehicles' index entries
  // and assignments under ids the new fleet may not have.
  if (fleet_.size() > 0) {
    return util::Status::FailedPrecondition(
        "InitFleetUniform needs a system without vehicles");
  }
  util::Rng rng(seed);
  PTRIDER_ASSIGN_OR_RETURN(
      fleet_, vehicle::Fleet::UniformRandom(
                  *graph_, count, config_.vehicle_capacity, rng));
  for (const vehicle::Vehicle& v : fleet_.vehicles()) {
    vehicle_index_.Update(v);
  }
  return util::Status::Ok();
}

util::Result<vehicle::VehicleId> PTRider::AddVehicle(
    roadnet::VertexId location) {
  if (!graph_->IsValidVertex(location)) {
    return util::Status::InvalidArgument(
        util::StrFormat("invalid vehicle location v%d", location));
  }
  const vehicle::VehicleId id =
      fleet_.Add(location, config_.vehicle_capacity);
  vehicle_index_.Update(fleet_.at(id));
  return id;
}

util::Status PTRider::ValidateRequest(
    const vehicle::Request& request) const {
  if (!graph_->IsValidVertex(request.start) ||
      !graph_->IsValidVertex(request.destination)) {
    return util::Status::InvalidArgument("request endpoints not in network");
  }
  if (request.start == request.destination) {
    return util::Status::InvalidArgument(
        "request start equals destination");
  }
  if (request.num_riders < 1) {
    return util::Status::InvalidArgument("request needs >= 1 rider");
  }
  if (request.max_wait_s < 0.0 || request.service_sigma < 0.0) {
    return util::Status::InvalidArgument(
        "negative waiting time or service constraint");
  }
  return util::Status::Ok();
}

MatchResult PTRider::MatchReadOnly(const vehicle::Request& request,
                                   double now_s,
                                   roadnet::DistanceOracle& oracle,
                                   const pricing::PricingPolicy* pricing,
                                   const MatchEffort* effort) const {
  MatchContext ctx = match_context_;
  ctx.oracle = &oracle;
  if (pricing != nullptr) ctx.pricing = pricing;
  if (effort != nullptr) ctx.effort = *effort;
  const vehicle::ScheduleContext sched = MakeScheduleContext(now_s);
  // Matchers are stateless beyond their context; stack instances keep
  // this path reentrant.
  switch (config_.matcher) {
    case MatcherAlgorithm::kNaive:
      return NaiveMatcher(ctx).Match(request, sched);
    case MatcherAlgorithm::kSingleSide:
      return IndexedMatcher(ctx, /*dual_side=*/false).Match(request, sched);
    case MatcherAlgorithm::kDualSide:
      break;
  }
  return IndexedMatcher(ctx, /*dual_side=*/true).Match(request, sched);
}

util::Result<MatchResult> PTRider::SubmitRequest(
    const vehicle::Request& request, double now_s) {
  PTRIDER_RETURN_IF_ERROR(ValidateRequest(request));
  if (assignments_.count(request.id) > 0) {
    return util::Status::AlreadyExists(util::StrFormat(
        "request %lld already assigned",
        static_cast<long long>(request.id)));
  }
  // Quote-time decay first — stale demand windows must never outlive a
  // lull into this quote — then the demand signal: the surge multiplier
  // quoting this request already reflects it (a burst surges its own
  // members, not just their successors).
  pricing_->Decay(now_s);
  pricing_->RecordRequest(now_s);
  return MatchReadOnly(request, now_s, oracle_);
}

util::Result<MatchResult> PTRider::QuoteRequest(
    const vehicle::Request& request, double now_s) {
  PTRIDER_RETURN_IF_ERROR(ValidateRequest(request));
  // Quote-time decay, no demand record: the quote must reflect demand
  // current to now_s (stale surge from the last burst must never price
  // a post-lull quote), but browsing is not an arrival — only
  // SubmitRequest feeds the demand signal.
  pricing_->Decay(now_s);
  return MatchReadOnly(request, now_s, oracle_);
}

util::Status PTRider::ChooseOption(const vehicle::Request& request,
                                   const Option& option, double now_s) {
  if (!fleet_.IsValid(option.vehicle)) {
    return util::Status::InvalidArgument("option names an unknown vehicle");
  }
  vehicle::Vehicle& v = fleet_.at(option.vehicle);
  // CommitInsert re-runs the trial insertion: the serial commit floor.
  const roadnet::DistanceOracle::AnchorScope anchors(
      oracle_, request.start, request.destination);
  IndexedDistanceProvider dist(oracle_, grid_);
  PTRIDER_RETURN_IF_ERROR(v.mutable_tree().CommitInsert(
      request, option.pickup_distance, option.price,
      MakeScheduleContext(now_s), dist));
  assignments_[request.id] = {option.vehicle, false};
  vehicle_index_.Update(v);
  return util::Status::Ok();
}

util::Status PTRider::CancelRequest(vehicle::RequestId id) {
  const auto it = assignments_.find(id);
  if (it == assignments_.end()) {
    return util::Status::NotFound(util::StrFormat(
        "request %lld is not assigned", static_cast<long long>(id)));
  }
  vehicle::Vehicle& v = fleet_.at(it->second.vehicle);
  IndexedDistanceProvider dist(oracle_, grid_);
  PTRIDER_RETURN_IF_ERROR(v.mutable_tree().RemoveRequest(id, dist));
  assignments_.erase(it);
  vehicle_index_.Update(v);
  return util::Status::Ok();
}

util::Status PTRider::UpdateVehicleLocation(
    vehicle::VehicleId id, roadnet::VertexId new_location,
    double meters_moved, double now_s,
    const std::vector<vehicle::Stop>& executing) {
  if (!fleet_.IsValid(id)) {
    return util::Status::InvalidArgument("unknown vehicle");
  }
  if (!graph_->IsValidVertex(new_location)) {
    return util::Status::InvalidArgument("invalid vehicle location");
  }
  vehicle::Vehicle& v = fleet_.at(id);
  IndexedDistanceProvider dist(oracle_, grid_);
  PTRIDER_RETURN_IF_ERROR(v.MoveTo(new_location, meters_moved,
                                   MakeScheduleContext(now_s), dist,
                                   executing));
  vehicle_index_.Update(v);
  return util::Status::Ok();
}

util::Result<AdvanceStop> ArriveAtStop(vehicle::Vehicle& v,
                                       double arrival_s) {
  if (v.tree().empty()) {
    return util::Status::FailedPrecondition("vehicle has no scheduled stop");
  }
  const vehicle::Stop next = v.tree().BestBranch().stops.front();
  const auto pending_it = v.tree().pending().find(next.request);
  if (pending_it == v.tree().pending().end()) {
    return util::Status::Internal("scheduled stop for unknown request");
  }
  const vehicle::PendingRequest pending = pending_it->second;
  PTRIDER_ASSIGN_OR_RETURN(const vehicle::Stop popped,
                           v.mutable_tree().PopFirstStop());

  AdvanceStop s;
  s.event.stop = popped;
  s.event.price = pending.price;
  s.event.num_riders = pending.request.num_riders;
  if (popped.type == vehicle::StopType::kPickup) {
    s.event.waiting_s = std::max(0.0, arrival_s - pending.planned_pickup_s);
    // Sharing statistic: every request onboard while >= 2 are onboard
    // counts as shared. Sharing state only changes at pick-ups.
    if (v.tree().OnboardRequests() >= 2) {
      for (const auto& [rid, p] : v.tree().pending()) {
        if (p.onboard) s.onboard.push_back(rid);
      }
    }
  } else {
    s.event.trip_distance_m = pending.consumed_trip_distance_m;
    s.event.allowed_trip_distance_m = pending.max_trip_distance_m;
    s.event.direct_distance_m =
        pending.max_trip_distance_m / (1.0 + pending.request.service_sigma);
    v.RecordCompletedRequest();
  }
  return s;
}

void PTRider::ApplyArrival(AdvanceStop& s) {
  if (s.event.stop.type == vehicle::StopType::kPickup) {
    for (const vehicle::RequestId rid : s.onboard) {
      const auto it = assignments_.find(rid);
      if (it != assignments_.end()) it->second.shared = true;
    }
    return;
  }
  const auto it = assignments_.find(s.event.stop.request);
  if (it != assignments_.end()) {
    s.event.shared = it->second.shared;
    assignments_.erase(it);
  }
}

util::Result<StopEvent> PTRider::VehicleArrivedAtStop(vehicle::VehicleId id,
                                                      double now_s) {
  if (!fleet_.IsValid(id)) {
    return util::Status::InvalidArgument("unknown vehicle");
  }
  vehicle::Vehicle& v = fleet_.at(id);
  PTRIDER_ASSIGN_OR_RETURN(AdvanceStop s, ArriveAtStop(v, now_s));
  ApplyArrival(s);
  vehicle_index_.Update(v);
  return s.event;
}

util::Status PTRider::CommitAdvancedVehicle(
    vehicle::VehicleId id, vehicle::Vehicle&& advanced,
    std::vector<AdvanceStop>& stops) {
  if (!fleet_.IsValid(id) || advanced.id() != id) {
    return util::Status::InvalidArgument("advanced state names an unknown vehicle");
  }
  fleet_.at(id) = std::move(advanced);
  for (AdvanceStop& s : stops) ApplyArrival(s);
  return util::Status::Ok();
}

vehicle::VehicleId PTRider::AssignedVehicle(vehicle::RequestId id) const {
  const auto it = assignments_.find(id);
  return it == assignments_.end() ? vehicle::kInvalidVehicle
                                  : it->second.vehicle;
}

}  // namespace ptrider::core
