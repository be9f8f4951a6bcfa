#include "roadnet/sp_algorithm.h"

namespace ptrider::roadnet {

const char* SpAlgorithmName(SpAlgorithm algo) {
  switch (algo) {
    case SpAlgorithm::kDijkstra:
      return "dijkstra";
    case SpAlgorithm::kAStar:
      return "astar";
    case SpAlgorithm::kContractionHierarchy:
      return "ch";
  }
  return "unknown";
}

bool SpAlgorithmFromName(std::string_view name, SpAlgorithm* out) {
  if (name == "dijkstra") {
    *out = SpAlgorithm::kDijkstra;
  } else if (name == "astar") {
    *out = SpAlgorithm::kAStar;
  } else if (name == "ch" || name == "contraction-hierarchy") {
    *out = SpAlgorithm::kContractionHierarchy;
  } else {
    return false;
  }
  return true;
}

}  // namespace ptrider::roadnet
