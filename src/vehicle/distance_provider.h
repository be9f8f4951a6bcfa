#ifndef PTRIDER_VEHICLE_DISTANCE_PROVIDER_H_
#define PTRIDER_VEHICLE_DISTANCE_PROVIDER_H_

#include "roadnet/types.h"

namespace ptrider::vehicle {

/// Distance service consumed by schedule validation and insertion. The
/// kinetic tree checks cheap lower bounds before paying for an exact
/// shortest-path computation — the optimization Section 3.3 describes
/// ("the number of the shortest path distance computations can be
/// reduced"). Implementations:
///   * core::ExactDistanceProvider  — no bounds (the naive baseline [7]);
///   * core::IndexedDistanceProvider — grid-index lower bounds + oracle.
class DistanceProvider {
 public:
  virtual ~DistanceProvider() = default;

  /// Exact shortest-path distance (kInfWeight when unreachable).
  virtual roadnet::Weight Exact(roadnet::VertexId u,
                                roadnet::VertexId v) = 0;

  /// Admissible lower bound: Lower(u,v) <= Exact(u,v). Default: 0.
  virtual roadnet::Weight Lower(roadnet::VertexId u, roadnet::VertexId v) {
    (void)u;
    (void)v;
    return 0.0;
  }

  /// Upper bound: Upper(u,v) >= Exact(u,v); infinity means unknown. No
  /// matcher asks for one. Kept because bench/ptrider_bench still
  /// overrides it.
  virtual roadnet::Weight Upper(roadnet::VertexId u, roadnet::VertexId v) {
    (void)u;
    (void)v;
    return roadnet::kInfWeight;
  }
};

}  // namespace ptrider::vehicle

#endif  // PTRIDER_VEHICLE_DISTANCE_PROVIDER_H_
