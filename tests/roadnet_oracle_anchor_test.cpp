// Request anchoring (DESIGN.md section 7.5): while an AnchorScope is
// alive, every distance with the request's start or destination as an
// endpoint is read from a resumable single-source search, the oracle's
// own or one lent to it with an AnchorLoan. The contract
// is bit-identity with the unanchored oracle, so every comparison here is
// on the raw bits of the double, never within a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "roadnet/dijkstra.h"
#include "roadnet/distance_oracle.h"
#include "roadnet/graph_generator.h"
#include "roadnet/paper_example.h"
#include "util/random.h"

namespace ptrider::roadnet {
namespace {

uint64_t Bits(Weight w) { return std::bit_cast<uint64_t>(w); }

/// Two 5x5 jittered lattices with no edge between them: every distance
/// across the gap is kInfWeight.
RoadNetwork TwoIslands() {
  GraphBuilder b;
  util::Rng rng(11);
  for (int island = 0; island < 2; ++island) {
    const double x0 = island * 10000.0;
    for (int r = 0; r < 5; ++r) {
      for (int c = 0; c < 5; ++c) {
        b.AddVertex({x0 + c * 100.0, r * 100.0});
      }
    }
    const VertexId base = island * 25;
    for (int r = 0; r < 5; ++r) {
      for (int c = 0; c < 5; ++c) {
        const VertexId v = base + r * 5 + c;
        if (c + 1 < 5) {
          EXPECT_TRUE(b.AddUndirectedEdge(v, v + 1,
                                          100.0 * rng.UniformDouble(1, 1.3))
                          .ok());
        }
        if (r + 1 < 5) {
          EXPECT_TRUE(b.AddUndirectedEdge(v, v + 5,
                                          100.0 * rng.UniformDouble(1, 1.3))
                          .ok());
        }
      }
    }
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// A jittered 6x6 lattice where every street is doubled by a parallel
/// edge, lighter or heavier at random: the searches must take the
/// lighter one in both directions.
RoadNetwork ParallelStreets() {
  GraphBuilder b;
  util::Rng rng(23);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) b.AddVertex({c * 100.0, r * 100.0});
  }
  auto street = [&](VertexId u, VertexId v) {
    EXPECT_TRUE(
        b.AddUndirectedEdge(u, v, 100.0 * rng.UniformDouble(1, 1.4)).ok());
    EXPECT_TRUE(
        b.AddUndirectedEdge(u, v, 100.0 * rng.UniformDouble(1, 1.4)).ok());
  };
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      const VertexId v = r * 6 + c;
      if (c + 1 < 6) street(v, v + 1);
      if (r + 1 < 6) street(v, v + 6);
    }
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

struct NamedGraph {
  std::string name;
  RoadNetwork graph;
};

std::vector<NamedGraph> Graphs() {
  std::vector<NamedGraph> out;
  CityGridOptions city;
  city.rows = 12;
  city.cols = 12;
  city.seed = 5;
  auto c = MakeCityGrid(city);
  EXPECT_TRUE(c.ok());
  out.push_back({"city", std::move(c).value()});
  RingCityOptions ring;
  ring.rings = 6;
  ring.spokes = 12;
  ring.seed = 8;
  auto r = MakeRingCity(ring);
  EXPECT_TRUE(r.ok());
  out.push_back({"ring", std::move(r).value()});
  out.push_back({"paper", MakePaperExampleNetwork().graph});
  out.push_back({"islands", TwoIslands()});
  out.push_back({"parallel", ParallelStreets()});
  return out;
}

constexpr SpAlgorithm kAlgorithms[] = {SpAlgorithm::kDijkstra,
                                       SpAlgorithm::kAStar,
                                       SpAlgorithm::kContractionHierarchy};

/// Request endpoints covering both orders of the two ids and a shared
/// start across consecutive requests (scope reuse).
std::vector<std::pair<VertexId, VertexId>> Requests(const RoadNetwork& g) {
  const VertexId n = static_cast<VertexId>(g.NumVertices());
  return {{0, n - 1}, {n - 1, 0}, {n / 2, 3}, {n / 2, n - 2},
          {3, n / 3}, {n / 3, n / 3 + 1}};
}

/// Every anchored lookup a match can make — (s|d, x) and (x, s|d) for
/// all x, in `order` — must equal the unanchored oracle bit for bit.
void ExpectAnchoredMatches(DistanceOracle& anchored, DistanceOracle& plain,
                           VertexId s, VertexId d,
                           const std::vector<VertexId>& order,
                           const std::string& label) {
  const DistanceOracle::AnchorScope scope(anchored, s, d);
  for (const VertexId x : order) {
    for (const VertexId a : {s, d}) {
      EXPECT_EQ(Bits(anchored.Distance(a, x)), Bits(plain.Distance(a, x)))
          << label << ": v" << a << " -> v" << x;
      EXPECT_EQ(Bits(anchored.Distance(x, a)), Bits(plain.Distance(x, a)))
          << label << ": v" << x << " -> v" << a;
    }
  }
  EXPECT_EQ(Bits(anchored.Distance(s, d)), Bits(plain.Distance(s, d)))
      << label;
}

TEST(OracleAnchorTest, BitIdenticalToUnanchoredInSortedAndRandomOrder) {
  for (const NamedGraph& ng : Graphs()) {
    const RoadNetwork& g = ng.graph;
    std::vector<VertexId> sorted(g.NumVertices());
    for (size_t i = 0; i < sorted.size(); ++i) {
      sorted[i] = static_cast<VertexId>(i);
    }
    std::vector<VertexId> shuffled = sorted;
    util::Rng rng(97);
    rng.Shuffle(shuffled);
    for (const SpAlgorithm algo : kAlgorithms) {
      DistanceOracleOptions opts;
      opts.algorithm = algo;
      opts.cache_capacity = 0;  // the reference always searches
      DistanceOracle plain(g, opts);
      // One oracle per lookup order, each reused across all requests.
      DistanceOracle by_id = plain.CloneWith({algo, 1 << 10, true});
      DistanceOracle by_chance = plain.CloneWith({algo, 1 << 10, true});
      for (const auto& [s, d] : Requests(g)) {
        const std::string label = ng.name + "/" + SpAlgorithmName(algo) +
                                  " s=v" + std::to_string(s) + " d=v" +
                                  std::to_string(d);
        ExpectAnchoredMatches(by_id, plain, s, d, sorted, label + " sorted");
        ExpectAnchoredMatches(by_chance, plain, s, d, shuffled,
                              label + " random");
      }
    }
  }
}

TEST(OracleAnchorTest, DisconnectedTargetsAreInfinite) {
  const RoadNetwork g = TwoIslands();
  for (const SpAlgorithm algo : kAlgorithms) {
    DistanceOracle oracle(g, {algo, 0, true});
    const DistanceOracle::AnchorScope scope(oracle, 7, 30);
    EXPECT_EQ(oracle.Distance(7, 30), kInfWeight);
    EXPECT_EQ(oracle.Distance(30, 7), kInfWeight);
    EXPECT_EQ(oracle.Distance(7, 40), kInfWeight);   // s's search exhausted
    EXPECT_EQ(oracle.Distance(40, 7), kInfWeight);
    EXPECT_EQ(oracle.Distance(2, 30), kInfWeight);   // d's search exhausted
    EXPECT_LT(oracle.Distance(7, 24), kInfWeight);   // same island as s
    EXPECT_LT(oracle.Distance(49, 30), kInfWeight);  // same island as d
  }
}

TEST(OracleAnchorTest, SameVertexIsZeroAndTrivial) {
  const RoadNetwork g = ParallelStreets();
  DistanceOracle oracle(g);
  const DistanceOracle::AnchorScope scope(oracle, 4, 20);
  EXPECT_EQ(Bits(oracle.Distance(4, 4)), Bits(0.0));
  EXPECT_EQ(Bits(oracle.Distance(20, 20)), Bits(0.0));
  EXPECT_EQ(oracle.queries(), 2u);
  EXPECT_EQ(oracle.computed(), 0u);
  EXPECT_EQ(oracle.cache_hits(), 0u);
}

TEST(OracleAnchorTest, CountersFollowPairLookupSemantics) {
  CityGridOptions city;
  city.rows = 10;
  city.cols = 10;
  auto g = MakeCityGrid(city);
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(*g);
  {
    const DistanceOracle::AnchorScope scope(oracle, 10, 50);
    (void)oracle.Distance(10, 70);  // first lookup of v70 in s's search
    EXPECT_EQ(oracle.computed(), 1u);
    EXPECT_EQ(oracle.cache_hits(), 0u);
    const uint64_t pops = oracle.heap_pops();
    EXPECT_GT(pops, 0u);  // anchor pops are counted
    (void)oracle.Distance(70, 10);  // same vertex, same search: a hit
    EXPECT_EQ(oracle.computed(), 1u);
    EXPECT_EQ(oracle.cache_hits(), 1u);
    (void)oracle.Distance(50, 70);  // first lookup in d's search
    EXPECT_EQ(oracle.computed(), 2u);
    (void)oracle.Distance(10, 50);  // read from s's search (smaller id)
    (void)oracle.Distance(50, 10);  // the same lookup again: a hit
    EXPECT_EQ(oracle.computed(), 3u);
    EXPECT_EQ(oracle.cache_hits(), 2u);
    (void)oracle.Distance(3, 5);  // neither endpoint anchored: a search
    EXPECT_EQ(oracle.computed(), 4u);
    (void)oracle.Distance(10, 10);  // trivial
    EXPECT_EQ(oracle.queries(), oracle.cache_hits() + oracle.computed() + 1);
  }
  // Anchored answers never enter the pair cache: outside a scope the
  // same pair is a fresh search.
  const uint64_t computed = oracle.computed();
  (void)oracle.Distance(10, 70);
  EXPECT_EQ(oracle.computed(), computed + 1);

  // Re-anchoring at the same start resumes its search: the earlier
  // lookup is still answered.
  {
    const DistanceOracle::AnchorScope scope(oracle, 10, 60);
    const uint64_t hits = oracle.cache_hits();
    (void)oracle.Distance(70, 10);
    EXPECT_EQ(oracle.cache_hits(), hits + 1);
  }
  oracle.ResetStats();
  EXPECT_EQ(oracle.heap_pops(), 0u);
}

// anchor_settles() counts what the two anchor searches settle: as many
// vertices as a one-shot search to the farthest lookup so far, and
// nothing for a lookup the resumed search already passed.
TEST(OracleAnchorTest, AnchorSettlesCountResumedSearches) {
  CityGridOptions city;
  city.rows = 10;
  city.cols = 10;
  auto g = MakeCityGrid(city);
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(*g);
  DijkstraEngine one_shot(*g);
  EXPECT_EQ(oracle.anchor_settles(), 0u);
  {
    const DistanceOracle::AnchorScope scope(oracle, 10, 50);
    EXPECT_EQ(oracle.anchor_settles(), 0u);  // seeding settles nothing
    (void)oracle.Distance(10, 70);
    (void)one_shot.Distance(10, 70);
    const uint64_t to_70 = one_shot.last_settled();
    EXPECT_EQ(oracle.anchor_settles(), to_70);
    (void)oracle.Distance(50, 10);  // read from s's search: a lookup
    (void)one_shot.Distance(10, 50);
    EXPECT_EQ(oracle.anchor_settles(),
              std::max<uint64_t>(to_70, one_shot.last_settled()));
  }
  const uint64_t settled = oracle.anchor_settles();
  {
    // Same anchors, same lookups: both searches resume past them.
    const DistanceOracle::AnchorScope scope(oracle, 10, 50);
    (void)oracle.Distance(10, 70);
    (void)oracle.Distance(50, 10);
    EXPECT_EQ(oracle.anchor_settles(), settled);
  }
  (void)oracle.Distance(3, 5);  // unanchored searches are not counted
  EXPECT_EQ(oracle.anchor_settles(), settled);
  oracle.ResetStats();
  EXPECT_EQ(oracle.anchor_settles(), 0u);
}

// An AnchorPair travels between oracles: lent to a second oracle, its
// searches answer there in the raw bits the first oracle computed,
// lookups already made settle nothing, and the borrower's own pair
// comes back unchanged when the loan ends.
TEST(OracleAnchorTest, LentPairAnswersInAnotherOracle) {
  CityGridOptions city;
  city.rows = 10;
  city.cols = 10;
  city.seed = 6;
  auto g = MakeCityGrid(city);
  ASSERT_TRUE(g.ok());
  const VertexId s = 10;
  const VertexId d = 50;
  const std::vector<VertexId> looked_up = {70, 3, 99, 42, 0, 61};
  for (const SpAlgorithm algo : kAlgorithms) {
    SCOPED_TRACE(SpAlgorithmName(algo));
    DistanceOracle first(*g, {algo, 1 << 10, true});
    DistanceOracle second = first.Clone();
    DistanceOracle plain = first.CloneWith({algo, 0, true});
    DistanceOracle::AnchorPair pair;
    std::vector<uint64_t> bits;
    {
      const DistanceOracle::AnchorLoan loan(first, &pair);
      const DistanceOracle::AnchorScope scope(first, s, d);
      for (const VertexId x : looked_up) {
        bits.push_back(Bits(first.Distance(x, s)));
        bits.push_back(Bits(first.Distance(d, x)));
      }
    }
    EXPECT_GT(first.anchor_settles(), 0u);

    // The borrower's own searches, anchored elsewhere before the loan.
    Weight own = 0.0;
    {
      const DistanceOracle::AnchorScope scope(second, 20, 80);
      own = second.Distance(33, 20);
    }
    const uint64_t own_settles = second.anchor_settles();
    {
      const DistanceOracle::AnchorLoan loan(second, &pair);
      const DistanceOracle::AnchorScope scope(second, s, d);
      const uint64_t computed = second.computed();
      size_t k = 0;
      for (const VertexId x : looked_up) {
        EXPECT_EQ(Bits(second.Distance(s, x)), bits[k++]) << "v" << x;
        EXPECT_EQ(Bits(second.Distance(x, d)), bits[k++]) << "v" << x;
      }
      EXPECT_EQ(second.computed(), computed);
      EXPECT_EQ(second.anchor_settles(), own_settles);
      // A new lookup resumes the lent search, still in the engines' bits.
      EXPECT_EQ(Bits(second.Distance(77, s)), Bits(plain.Distance(77, s)));
      EXPECT_EQ(second.computed(), computed + 1);
    }
    {
      const DistanceOracle::AnchorScope scope(second, 20, 80);
      const uint64_t hits = second.cache_hits();
      const uint64_t settles = second.anchor_settles();
      EXPECT_EQ(Bits(second.Distance(20, 33)), Bits(own));
      EXPECT_EQ(second.cache_hits(), hits + 1);
      EXPECT_EQ(second.anchor_settles(), settles);
    }
  }
}

TEST(OracleAnchorTest, ClonesStartUnanchored) {
  CityGridOptions city;
  city.rows = 8;
  city.cols = 8;
  auto g = MakeCityGrid(city);
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(*g, {SpAlgorithm::kDijkstra, 0, true});
  const DistanceOracle::AnchorScope scope(oracle, 1, 2);
  (void)oracle.Distance(1, 40);
  // The clone shares no anchor state: its lookups are plain searches
  // whose pops its own counters see.
  DistanceOracle clone = oracle.Clone();
  EXPECT_EQ(Bits(clone.Distance(1, 40)), Bits(oracle.Distance(1, 40)));
  EXPECT_EQ(clone.computed(), 1u);
}

TEST(DijkstraResumableTest, SettlesLikeOneShotSearches) {
  CityGridOptions city;
  city.rows = 9;
  city.cols = 9;
  city.seed = 4;
  auto g = MakeCityGrid(city);
  ASSERT_TRUE(g.ok());
  DijkstraEngine resumable(*g);
  DijkstraEngine one_shot(*g);
  const VertexId source = 17;
  resumable.StartFrom(source);
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < static_cast<VertexId>(g->NumVertices()); ++v) {
    targets.push_back(v);
  }
  util::Rng rng(3);
  rng.Shuffle(targets);
  for (const VertexId t : targets) {
    const Weight d = resumable.SettleUntil(t);
    EXPECT_EQ(Bits(d), Bits(one_shot.Distance(source, t))) << "v" << t;
    // Parent-edge weights re-sum, from the source, to the label.
    Weight path = 0.0;
    std::vector<Weight> weights;
    for (VertexId cur = t; cur != source; cur = resumable.ParentOf(cur)) {
      weights.push_back(resumable.ParentWeightOf(cur));
    }
    for (auto it = weights.rbegin(); it != weights.rend(); ++it) path += *it;
    EXPECT_EQ(Bits(path), Bits(d)) << "v" << t;
  }
}

}  // namespace
}  // namespace ptrider::roadnet
