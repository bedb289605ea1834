// Thread-count bit-identity regression tests for the parallel Brandes
// paths (per-chunk partials over fixed source chunks, folded in chunk
// order — src/graph/centrality.cpp).
//
// The contract: at every thread count the parallel sweep is
// bit-identical to the serial sweep — always, including where path
// counts leave the exact integer range of a double — and below 2^53
// the fused property suite pins it against the preserved naive oracle.
// This file runs in the `concurrency` ctest binary so TSan exercises
// the chunked merge itself (tests/graph/naive_centrality.h stays the
// single source of expected values; do not relax EXPECT_EQ to a
// tolerance — the fixed reduction order makes bitwise equality the
// specification).
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/centrality.h"
#include "graph/generators.h"
#include "graph/shapes.h"
#include "math/rng.h"

#include "graph/naive_centrality.h"

namespace soteria::graph {
namespace {

struct Shape {
  std::string name;
  DiGraph graph;
};

[[nodiscard]] std::vector<Shape> shapes() {
  math::Rng rng(640);
  std::vector<Shape> out;
  out.push_back({"random", random_connected_dag_plus(300, 0.02, rng)});
  out.push_back({"scale_free", scale_free_digraph(300, 3, rng)});
  out.push_back({"firmware", firmware_like_cfg(400, rng)});
  out.push_back({"chain", chain_graph(200, 12, rng)});
  return out;
}

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

TEST(CentralityThreadIdentity, ExactMatchesNaiveOracleAtEveryThreadCount) {
  for (const auto& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const auto expected_betweenness =
        naive::betweenness_centrality(shape.graph);
    const auto expected_closeness = naive::closeness_centrality(shape.graph);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto scores = centrality_scores(shape.graph, threads);
      EXPECT_EQ(scores.betweenness, expected_betweenness);
      EXPECT_EQ(scores.closeness, expected_closeness);
    }
  }
}

TEST(CentralityThreadIdentity, CentralityFactorMatchesAtEveryThreadCount) {
  math::Rng rng(641);
  const DiGraph g = firmware_like_cfg(350, rng);
  const auto expected = naive::centrality_factor(g);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Summed as cfg/labeling.cpp sums the labeling's tie-break key.
    const auto scores = centrality_scores(g, threads);
    std::vector<double> cf(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      cf[v] = scores.betweenness[v] + scores.closeness[v];
    }
    EXPECT_EQ(cf, expected);
  }
}

TEST(CentralityThreadIdentity, DeterministicBeyondExactIntegerRange) {
  // 60 if/else diamonds in a row (181 nodes): 2^60 end-to-end paths, so
  // the accumulators round and only a thread-count-independent
  // reduction order keeps the results identical.
  const DiGraph g = diamond_chain(60);
  const auto serial = centrality_scores(g, 1);
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto scores = centrality_scores(g, threads);
    EXPECT_EQ(scores.betweenness, serial.betweenness);
    EXPECT_EQ(scores.closeness, serial.closeness);
  }
}

}  // namespace
}  // namespace soteria::graph
