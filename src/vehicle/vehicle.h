#ifndef PTRIDER_VEHICLE_VEHICLE_H_
#define PTRIDER_VEHICLE_VEHICLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "roadnet/types.h"
#include "vehicle/kinetic_tree.h"

namespace ptrider::vehicle {

using VehicleId = int32_t;
inline constexpr VehicleId kInvalidVehicle = -1;

/// One vehicle (Section 3.2.2): identifier, current location, the set of
/// unfinished requests and the kinetic tree of valid trip schedules. A
/// vehicle is *empty* when it has no unfinished requests — the grid
/// index's empty/non-empty vehicle lists are keyed on this.
class Vehicle {
 public:
  Vehicle(VehicleId id, roadnet::VertexId location, int capacity)
      : id_(id), tree_(location, capacity) {}

  VehicleId id() const { return id_; }
  roadnet::VertexId location() const { return tree_.root_location(); }
  int capacity() const { return tree_.capacity(); }
  bool IsEmpty() const { return tree_.NumPendingRequests() == 0; }
  int RidersOnboard() const { return tree_.RidersOnboard(); }

  const KineticTree& tree() const { return tree_; }
  KineticTree& mutable_tree() { return tree_; }

  // --- Lifetime statistics (metrics module reads these) --------------------
  double total_distance_m() const { return total_distance_m_; }
  double occupied_distance_m() const { return occupied_distance_m_; }
  double shared_distance_m() const { return shared_distance_m_; }
  int64_t completed_requests() const { return completed_requests_; }

  /// The location update: the vehicle drove `meters` and now stands at
  /// `to`. Records the meters for the distance accounting at the
  /// current onboard count (occupancy only changes at stops), then walks
  /// the tree forward (KineticTree::AdvanceTo). The library API and the
  /// simulator's movement both move vehicles through it.
  util::Status MoveTo(roadnet::VertexId to, double meters,
                      const ScheduleContext& ctx, DistanceProvider& dist,
                      const std::vector<Stop>& executing,
                      KnownRootLeg known = {});
  void RecordCompletedRequest() { ++completed_requests_; }

  std::string DebugString() const;

 private:
  VehicleId id_;
  KineticTree tree_;
  double total_distance_m_ = 0.0;
  double occupied_distance_m_ = 0.0;
  double shared_distance_m_ = 0.0;
  int64_t completed_requests_ = 0;
};

}  // namespace ptrider::vehicle

#endif  // PTRIDER_VEHICLE_VEHICLE_H_
