// E2 — Fig. 1: the road-network grid index.
//
// Build cost, memory, border-vertex counts and lower-bound tightness
// (grid LB / true distance on random vertex pairs) across network sizes
// and grid resolutions. The LB-tightness column is the quantity the
// pruning lemmas live off: closer to 1.0 means more pruning.

#include <cstdio>

#include "bench_common.h"
#include "roadnet/dijkstra.h"
#include "util/string_util.h"
#include "roadnet/grid_index.h"
#include "util/random.h"

int main() {
  using namespace ptrider;
  bench::PrintHeader(
      "E2", "Fig. 1 road-network grid index",
      "build time / memory / LB tightness vs network size and grid "
      "resolution");

  std::printf("%8s %8s %7s %10s %10s %9s %9s\n", "vertices", "grid",
              "border", "build", "memory", "LB/true", "geo/true");

  for (const int side : {40, 80, 120}) {
    auto graph = bench::MakeBenchCity(side, side);
    if (!graph.ok()) return 1;
    for (const int cells : {16, 32, 64}) {
      roadnet::GridIndexOptions opts;
      opts.cells_x = cells;
      opts.cells_y = cells;
      auto index = roadnet::GridIndex::Build(*graph, opts);
      if (!index.ok()) return 1;

      // Bound tightness on random reachable pairs.
      roadnet::DijkstraEngine dij(*graph);
      util::Rng rng(99);
      util::RunningStats lb_ratio;
      util::RunningStats geo_ratio;
      for (int i = 0; i < 400; ++i) {
        const auto u = static_cast<roadnet::VertexId>(rng.UniformInt(
            0, static_cast<int64_t>(graph->NumVertices()) - 1));
        const auto v = static_cast<roadnet::VertexId>(rng.UniformInt(
            0, static_cast<int64_t>(graph->NumVertices()) - 1));
        if (u == v) continue;
        const roadnet::Weight exact = dij.Distance(u, v);
        if (exact == roadnet::kInfWeight || exact == 0.0) continue;
        lb_ratio.Add(index->LowerBound(u, v) / exact);
        geo_ratio.Add(graph->GeoLowerBound(u, v) / exact);
      }
      std::printf("%8zu %5dx%-3d %7zu %10s %9.1fMB %9.3f %9.3f\n",
                  graph->NumVertices(), cells, cells,
                  index->build_stats().border_vertex_count,
                  util::FormatDuration(index->build_stats().build_seconds)
                      .c_str(),
                  index->build_stats().approx_memory_bytes / 1048576.0,
                  lb_ratio.mean(), geo_ratio.mean());
    }
  }
  std::printf(
      "\nShape check: grid LB dominates the geometric LB and tightens\n"
      "with finer grids; build time grows with cells x vertices.\n");
  return 0;
}
