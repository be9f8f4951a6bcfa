#include "vehicle/fleet.h"

#include <algorithm>

namespace ptrider::vehicle {

util::Result<Fleet> Fleet::UniformRandom(const roadnet::RoadNetwork& graph,
                                         size_t count, int capacity,
                                         util::Rng& rng,
                                         size_t max_branches) {
  if (graph.NumVertices() == 0) {
    return util::Status::FailedPrecondition("empty road network");
  }
  if (capacity < 1) {
    return util::Status::InvalidArgument("vehicle capacity must be >= 1");
  }
  Fleet fleet;
  fleet.vehicles_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto v = static_cast<roadnet::VertexId>(rng.UniformInt(
        0, static_cast<int64_t>(graph.NumVertices()) - 1));
    fleet.Add(v, capacity, max_branches);
  }
  return fleet;
}

VehicleId Fleet::Add(roadnet::VertexId location, int capacity,
                     size_t max_branches) {
  const auto id = static_cast<VehicleId>(vehicles_.size());
  vehicles_.emplace_back(id, location, capacity, max_branches);
  max_capacity_ = std::max(max_capacity_, capacity);
  return id;
}

}  // namespace ptrider::vehicle
