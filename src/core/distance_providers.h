#ifndef PTRIDER_CORE_DISTANCE_PROVIDERS_H_
#define PTRIDER_CORE_DISTANCE_PROVIDERS_H_

#include "roadnet/distance_oracle.h"
#include "roadnet/grid_index.h"
#include "vehicle/distance_provider.h"

namespace ptrider::core {

/// Distance provider of the naive baseline: exact distances only, no
/// bounds ([7] computes all distances before verification).
class ExactDistanceProvider : public vehicle::DistanceProvider {
 public:
  explicit ExactDistanceProvider(roadnet::DistanceOracle& oracle)
      : oracle_(&oracle) {}

  roadnet::Weight Exact(roadnet::VertexId u, roadnet::VertexId v) override {
    return oracle_->Distance(u, v);
  }

 private:
  roadnet::DistanceOracle* oracle_;
};

/// Distance provider of the indexed matchers: grid-index lower bounds
/// screen schedules before exact shortest-path work.
class IndexedDistanceProvider : public vehicle::DistanceProvider {
 public:
  IndexedDistanceProvider(roadnet::DistanceOracle& oracle,
                          const roadnet::GridIndex& grid)
      : oracle_(&oracle), grid_(&grid) {}

  roadnet::Weight Exact(roadnet::VertexId u, roadnet::VertexId v) override {
    return oracle_->Distance(u, v);
  }
  roadnet::Weight Lower(roadnet::VertexId u, roadnet::VertexId v) override {
    return grid_->LowerBound(u, v);
  }

 private:
  roadnet::DistanceOracle* oracle_;
  const roadnet::GridIndex* grid_;
};

}  // namespace ptrider::core

#endif  // PTRIDER_CORE_DISTANCE_PROVIDERS_H_
