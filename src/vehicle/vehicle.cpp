#include "vehicle/vehicle.h"

#include "util/string_util.h"

namespace ptrider::vehicle {

util::Status Vehicle::MoveTo(roadnet::VertexId to, double meters,
                             const ScheduleContext& ctx,
                             DistanceProvider& dist,
                             const std::vector<Stop>& executing,
                             KnownRootLeg known) {
  const int onboard = tree_.OnboardRequests();
  total_distance_m_ += meters;
  if (onboard >= 1) occupied_distance_m_ += meters;
  if (onboard >= 2) shared_distance_m_ += meters;
  return tree_.AdvanceTo(to, meters, ctx, dist, executing, known);
}

std::string Vehicle::DebugString() const {
  return util::StrFormat("c%d@v%d cap=%d pending=%zu %s", id_,
                         tree_.root_location(), tree_.capacity(),
                         tree_.NumPendingRequests(),
                         IsEmpty() ? "(empty)" : "(non-empty)");
}

}  // namespace ptrider::vehicle
