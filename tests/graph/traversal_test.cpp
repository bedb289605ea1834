#include "graph/traversal.h"

#include <gtest/gtest.h>

#include "expect_error.h"
#include "graph/naive_centrality.h"
#include "graph/shapes.h"
#include "math/rng.h"

namespace soteria::graph {
namespace {

DiGraph diamond() {
  // 0 -> {1, 2} -> 3
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Traversal, BfsDistancesOnDiamond) {
  const auto dist = bfs_distances(diamond(), 0);
  EXPECT_EQ(dist[0], 0U);
  EXPECT_EQ(dist[1], 1U);
  EXPECT_EQ(dist[2], 1U);
  EXPECT_EQ(dist[3], 2U);
}

TEST(Traversal, BfsRespectsDirection) {
  const auto dist = bfs_distances(diamond(), 3);
  EXPECT_EQ(dist[3], 0U);
  EXPECT_EQ(dist[0], kUnreachable);
  EXPECT_EQ(dist[1], kUnreachable);
}

TEST(Traversal, UndirectedBfsIgnoresDirection) {
  const auto dist = naive::undirected_bfs_distances(diamond(), 3);
  EXPECT_EQ(dist[0], 2U);
  EXPECT_EQ(dist[1], 1U);
}

TEST(Traversal, BfsThrowsOnBadSource) {
  EXPECT_ERROR((void)bfs_distances(diamond(), 4), core::ErrorCode::kOutOfRange);
}

TEST(Traversal, NodeLevelsAreOneBased) {
  const auto levels = node_levels(diamond(), 0);
  EXPECT_EQ(levels[0], 1U);  // entry is level 1 (paper definition)
  EXPECT_EQ(levels[1], 2U);
  EXPECT_EQ(levels[3], 3U);
}

TEST(Traversal, NodeLevelsMarkUnreachable) {
  DiGraph g(3);
  g.add_edge(0, 1);
  const auto levels = node_levels(g, 0);
  EXPECT_EQ(levels[2], kUnreachable);
}

TEST(Traversal, ReachableFrom) {
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);  // island
  const auto reach = reachable_from(g, 0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
  EXPECT_FALSE(reach[3]);
}

TEST(Generators, ChainGraphShape) {
  math::Rng rng(1);
  const auto g = chain_graph(5, 0, rng);
  EXPECT_EQ(g.node_count(), 5U);
  EXPECT_EQ(g.edge_count(), 4U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(Generators, ChainGraphBackEdgesStayBackward) {
  math::Rng rng(2);
  const auto g = chain_graph(10, 5, rng);
  for (const auto& [u, v] : g.edges()) {
    if (v != u + 1) {
      EXPECT_LT(v, u);
    }
  }
}

TEST(Generators, RandomGraphIsEntryConnected) {
  math::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = random_connected_dag_plus(30, 0.05, rng);
    const auto reach = reachable_from(g, 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_TRUE(reach[v]) << "node " << v << " unreachable";
    }
  }
}

TEST(Generators, RandomGraphValidation) {
  math::Rng rng(4);
  EXPECT_ERROR((void)random_connected_dag_plus(0, 0.1, rng),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)random_connected_dag_plus(5, 1.5, rng),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)chain_graph(0, 0, rng), core::ErrorCode::kInvalidArgument);
}

TEST(Generators, BinaryTreeShape) {
  const auto g = binary_tree(3);
  EXPECT_EQ(g.node_count(), 15U);
  EXPECT_EQ(g.edge_count(), 14U);
  EXPECT_EQ(g.out_degree(0), 2U);
  EXPECT_EQ(g.out_degree(7), 0U);  // leaf
  const auto levels = node_levels(g, 0);
  EXPECT_EQ(levels[14], 4U);
}

TEST(Generators, CompleteDigraph) {
  const auto g = complete_digraph(4);
  EXPECT_EQ(g.edge_count(), 12U);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(g.has_edge(u, v), u != v);
    }
  }
}

}  // namespace
}  // namespace soteria::graph
