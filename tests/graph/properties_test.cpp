#include "graph/properties.h"

#include <gtest/gtest.h>

#include "graph/shapes.h"
#include "math/rng.h"

namespace soteria::graph {
namespace {

TEST(Properties, DiamondCounts) {
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto p = graph_properties(g);
  EXPECT_EQ(p.node_count, 4U);
  EXPECT_EQ(p.edge_count, 4U);
  EXPECT_DOUBLE_EQ(p.density, 4.0 / 12.0);
  EXPECT_EQ(p.leaf_count, 1U);    // node 3
  EXPECT_EQ(p.branch_count, 1U);  // node 0
  EXPECT_EQ(p.diameter, 2U);
  EXPECT_EQ(p.loop_edge_count, 0U);
  EXPECT_DOUBLE_EQ(p.mean_degree, 2.0);
}

TEST(Properties, LoopEdgesDetected) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // closes the cycle
  const auto p = graph_properties(g);
  // Every edge of a 3-cycle participates in a cycle.
  EXPECT_EQ(p.loop_edge_count, 3U);
}

TEST(Properties, SelfLoopCounts) {
  DiGraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  const auto p = graph_properties(g);
  EXPECT_EQ(p.loop_edge_count, 1U);
}

TEST(Properties, EmptyAndSingletonGraphs) {
  const auto empty = graph_properties(DiGraph{});
  EXPECT_EQ(empty.node_count, 0U);
  EXPECT_DOUBLE_EQ(empty.density, 0.0);

  const auto one = graph_properties(DiGraph(1));
  EXPECT_EQ(one.node_count, 1U);
  EXPECT_EQ(one.leaf_count, 1U);
  EXPECT_DOUBLE_EQ(one.mean_shortest_path, 0.0);
}

TEST(Properties, MeanShortestPathOnChain) {
  math::Rng rng(1);
  const auto g = chain_graph(4, 0, rng);
  const auto p = graph_properties(g);
  // Directed pairs: 01,02,03,12,13,23 -> dists 1,2,3,1,2,1 = 10/6.
  EXPECT_NEAR(p.mean_shortest_path, 10.0 / 6.0, 1e-9);
  EXPECT_EQ(p.diameter, 3U);
}

TEST(Properties, FeatureVectorHasDocumentedLayout) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto p = graph_properties(g);
  const auto v = to_feature_vector(p);
  ASSERT_EQ(v.size(), kGraphFeatureCount);
  EXPECT_FLOAT_EQ(v[0], 3.0F);  // node count
  EXPECT_FLOAT_EQ(v[1], 2.0F);  // edge count
  EXPECT_FLOAT_EQ(v[12], 2.0F);  // leaves
  EXPECT_FLOAT_EQ(v[13], 1.0F);  // branch nodes
}

TEST(Properties, DegreeStatsOnStar) {
  DiGraph g(5);
  for (NodeId v = 1; v < 5; ++v) g.add_edge(0, v);
  const auto p = graph_properties(g);
  EXPECT_DOUBLE_EQ(p.max_degree, 4.0);
  EXPECT_DOUBLE_EQ(p.mean_degree, 8.0 / 5.0);
  EXPECT_GT(p.degree_stddev, 0.0);
  EXPECT_GT(p.max_betweenness, 0.0);
  EXPECT_GT(p.max_closeness, 0.0);
}

}  // namespace
}  // namespace soteria::graph
