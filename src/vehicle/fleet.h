#ifndef PTRIDER_VEHICLE_FLEET_H_
#define PTRIDER_VEHICLE_FLEET_H_

#include <vector>

#include "roadnet/graph.h"
#include "util/random.h"
#include "util/status.h"
#include "vehicle/vehicle.h"

namespace ptrider::vehicle {

/// The set C of vehicles. Owns vehicle state; indexed by dense VehicleId.
class Fleet {
 public:
  Fleet() = default;

  /// Demo initialization: vehicles placed uniformly at random vertices
  /// (Section 4: "The vehicles are initialized uniformly in the road
  /// network").
  static util::Result<Fleet> UniformRandom(const roadnet::RoadNetwork& graph,
                                           size_t count, int capacity,
                                           util::Rng& rng,
                                           size_t max_branches = 0);

  /// Adds one vehicle, returning its id. The only way a vehicle enters a
  /// fleet.
  VehicleId Add(roadnet::VertexId location, int capacity,
                size_t max_branches = 0);

  size_t size() const { return vehicles_.size(); }
  bool empty() const { return vehicles_.empty(); }
  /// Largest capacity passed to Add (0 for an empty fleet). A group larger
  /// than this fits no vehicle, which lets matching skip the fleet.
  int max_capacity() const { return max_capacity_; }
  bool IsValid(VehicleId id) const {
    return id >= 0 && static_cast<size_t>(id) < vehicles_.size();
  }
  Vehicle& at(VehicleId id) { return vehicles_[static_cast<size_t>(id)]; }
  const Vehicle& at(VehicleId id) const {
    return vehicles_[static_cast<size_t>(id)];
  }

  std::vector<Vehicle>& vehicles() { return vehicles_; }
  const std::vector<Vehicle>& vehicles() const { return vehicles_; }

 private:
  std::vector<Vehicle> vehicles_;
  int max_capacity_ = 0;
};

}  // namespace ptrider::vehicle

#endif  // PTRIDER_VEHICLE_FLEET_H_
