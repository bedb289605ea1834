// Property tests pinning the block-decomposed centrality
// (src/graph/centrality.cpp) to the preserved naive two-sweep
// reference (naive_centrality.h). Agreement is asserted with
// EXPECT_EQ on doubles — both formulations accumulate only integers
// until the final divisions, so they must match exactly while path
// totals stay below 2^53, and so must every thread count of the
// parallel variant.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cfg/gea.h"
#include "dataset/family.h"
#include "dataset/generator.h"
#include "graph/centrality.h"
#include "graph/generators.h"
#include "graph/shapes.h"
#include "isa/mutate.h"
#include "math/rng.h"
#include "naive_centrality.h"

namespace soteria::graph {
namespace {

void expect_exact_match(const DiGraph& g) {
  const auto fused = centrality_scores(g);
  const auto naive_b = naive::betweenness_centrality(g);
  const auto naive_c = naive::closeness_centrality(g);
  ASSERT_EQ(fused.betweenness.size(), g.node_count());
  ASSERT_EQ(fused.closeness.size(), g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    // Exact, not near: see header comment.
    EXPECT_EQ(fused.betweenness[v], naive_b[v]) << "node " << v;
    EXPECT_EQ(fused.closeness[v], naive_c[v]) << "node " << v;
  }
}

void expect_thread_invariance(const DiGraph& g) {
  const auto serial = centrality_scores(g, 1);
  for (std::size_t threads : {2, 4, 8}) {
    const auto parallel = centrality_scores(g, threads);
    EXPECT_EQ(parallel.betweenness, serial.betweenness)
        << "threads=" << threads;
    EXPECT_EQ(parallel.closeness, serial.closeness)
        << "threads=" << threads;
  }
}

// The oracle at 1, 2 and 4 threads: the block decomposition, its
// level-by-level schedule and the chunked merge all agree with the
// whole-graph formulation.
void expect_exact_match_at_thread_counts(const DiGraph& g) {
  const auto naive_b = naive::betweenness_centrality(g);
  const auto naive_c = naive::closeness_centrality(g);
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto scores = centrality_scores(g, threads);
    EXPECT_EQ(scores.betweenness, naive_b);
    EXPECT_EQ(scores.closeness, naive_c);
  }
}

TEST(FusedCentralityProperty, RandomConnectedDigraphs) {
  math::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 62));
    const double p = rng.uniform(0.02, 0.22);
    const auto g = random_connected_dag_plus(n, p, rng);
    expect_exact_match(g);
  }
}

TEST(FusedCentralityProperty, ChainsTreesAndCliques) {
  math::Rng rng(77);
  expect_exact_match(chain_graph(17, 3, rng));
  expect_exact_match(binary_tree(5));
  expect_exact_match(complete_digraph(9));
}

TEST(FusedCentralityProperty, DisconnectedComponents) {
  // Two components of different diameters plus an isolated node: the
  // per-source BFS only reaches its own component, so closeness and
  // the pair-path normalizer see partial reachability.
  DiGraph g(8);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);  // component {0,1,2,3}: a path
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(4, 6);  // component {4,5,6}: a triangle
  // node 7 isolated
  expect_exact_match(g);
  expect_thread_invariance(g);
}

TEST(FusedCentralityProperty, SelfLoops) {
  // Self loops are ignored by the undirected view (a node is not its
  // own neighbor) — both formulations must agree on that.
  DiGraph g(5);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 3);
  g.add_edge(3, 4);
  expect_exact_match(g);
}

TEST(FusedCentralityProperty, ParallelEdgesCollapse) {
  // Duplicate and anti-parallel edges collapse to one undirected edge.
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  expect_exact_match(g);
}

TEST(FusedCentralityProperty, DegenerateSizes) {
  expect_exact_match(DiGraph(0));
  expect_exact_match(DiGraph(1));
  DiGraph lonely(1);
  lonely.add_edge(0, 0);
  expect_exact_match(lonely);
  DiGraph pair(2);
  pair.add_edge(0, 1);
  expect_exact_match(pair);  // n == 2: betweenness all zero by definition
  expect_exact_match(DiGraph(3));  // edgeless
}

TEST(FusedCentralityProperty, ThreadCountInvariance) {
  math::Rng rng(4321);
  for (int trial = 0; trial < 6; ++trial) {
    // Large enough that the parallel path actually engages (the
    // implementation falls back to serial below one source chunk).
    const auto n = static_cast<std::size_t>(rng.uniform_int(80, 200));
    const auto g = random_connected_dag_plus(n, 0.05, rng);
    expect_thread_invariance(g);
  }
}

TEST(FusedCentralityProperty, ParallelMatchesNaiveOnLargeGraph) {
  math::Rng rng(99);
  const auto g = random_connected_dag_plus(150, 0.04, rng);
  const auto fused = centrality_scores(g, 4);
  EXPECT_EQ(fused.betweenness, naive::betweenness_centrality(g));
  EXPECT_EQ(fused.closeness, naive::closeness_centrality(g));
}

TEST(FusedCentralityProperty, FirmwareLikeCfgs) {
  // Function bodies hang off their entry blocks: many small blocks, a
  // few large ones, deep block-cut trees.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    math::Rng rng(500 + seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(50, 400));
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " n=" + std::to_string(n));
    expect_exact_match_at_thread_counts(firmware_like_cfg(n, rng));
  }
}

TEST(FusedCentralityProperty, TrianglesSharingACutVertex) {
  DiGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  expect_exact_match_at_thread_counts(g);
}

TEST(FusedCentralityProperty, StarOfFourCycles) {
  // Five 4-cycles through a shared hub: one cut vertex, five blocks.
  constexpr std::size_t kPetals = 5;
  DiGraph g(1 + 3 * kPetals);
  for (NodeId p = 0; p < kPetals; ++p) {
    const NodeId a = 1 + 3 * p;
    g.add_edge(0, a);
    g.add_edge(a, a + 1);
    g.add_edge(a + 1, a + 2);
    g.add_edge(a + 2, 0);
  }
  expect_exact_match_at_thread_counts(g);
}

TEST(FusedCentralityProperty, CutVertexCarryingASelfLoop) {
  DiGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 2);  // the cut vertex loops on itself
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  expect_exact_match_at_thread_counts(g);
}

TEST(FusedCentralityProperty, DisconnectedGraphWithSeveralBlocksPerComponent) {
  DiGraph g(13);
  // Component A: a triangle, a bridge, a 4-cycle.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(6, 3);
  // Component B: a path of bridges with a triangle in the middle.
  g.add_edge(7, 8);
  g.add_edge(8, 9);
  g.add_edge(9, 10);
  g.add_edge(10, 8);
  g.add_edge(10, 11);
  // Node 12 isolated.
  expect_exact_match_at_thread_counts(g);
}

TEST(FusedCentralityProperty, DiamondChainBelowExactIntegerRange) {
  // 2^20 end-to-end paths: far from 2^53, so every sum stays exact.
  expect_exact_match_at_thread_counts(diamond_chain(20));
}

TEST(FusedCentralityProperty, FamilyCfgsAndGeaMerge) {
  math::Rng rng(2024);
  const isa::MutationConfig mutation;
  std::vector<cfg::Cfg> cfgs;
  for (const auto family : dataset::all_families()) {
    cfgs.push_back(dataset::generate_variant_sample(
                       family, 0, 7000 + dataset::family_index(family),
                       mutation, rng)
                       .cfg);
  }
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE("family " + std::to_string(i));
    expect_exact_match_at_thread_counts(cfgs[i].graph());
  }
  SCOPED_TRACE("gea merge");
  expect_exact_match_at_thread_counts(
      cfg::gea_combine(cfgs[1], cfgs[0]).combined.graph());
}

}  // namespace
}  // namespace soteria::graph
