#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "expect_error.h"

namespace soteria::graph {
namespace {

TEST(DiGraph, StartsEmpty) {
  const DiGraph g;
  EXPECT_EQ(g.node_count(), 0U);
  EXPECT_EQ(g.edge_count(), 0U);
  EXPECT_TRUE(g.empty());
}

TEST(DiGraph, SizedConstructorMakesIsolatedNodes) {
  const DiGraph g(4);
  EXPECT_EQ(g.node_count(), 4U);
  EXPECT_EQ(g.edge_count(), 0U);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(g.out_degree(v), 0U);
    EXPECT_EQ(g.in_degree(v), 0U);
  }
}

TEST(DiGraph, AddNodeReturnsSequentialIds) {
  DiGraph g;
  EXPECT_EQ(g.add_node(), 0U);
  EXPECT_EQ(g.add_node(), 1U);
  EXPECT_EQ(g.node_count(), 2U);
}

TEST(DiGraph, AddEdgeUpdatesAdjacency) {
  DiGraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 2U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 2U);
  EXPECT_EQ(g.in_degree(1), 1U);
  EXPECT_EQ(g.total_degree(0), 2U);
}

TEST(DiGraph, ParallelEdgeIsRejected) {
  DiGraph g(2);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1U);
}

TEST(DiGraph, SelfLoopAllowedAndCountsTwice) {
  DiGraph g(1);
  EXPECT_TRUE(g.add_edge(0, 0));
  EXPECT_EQ(g.total_degree(0), 2U);
  const auto nbrs = g.undirected_neighbors(0);
  ASSERT_EQ(nbrs.size(), 1U);
  EXPECT_EQ(nbrs[0], 0U);
}

TEST(DiGraph, InvalidEndpointsThrow) {
  DiGraph g(2);
  EXPECT_ERROR(g.add_edge(0, 2), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR(g.add_edge(2, 0), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)g.has_edge(0, 5), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)g.successors(9), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)g.predecessors(9), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)g.out_degree(9), core::ErrorCode::kOutOfRange);
}

TEST(DiGraph, UndirectedNeighborsDeduplicates) {
  DiGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto nbrs = g.undirected_neighbors(0);
  ASSERT_EQ(nbrs.size(), 1U);
  EXPECT_EQ(nbrs[0], 1U);
}

TEST(DiGraph, EdgesEnumeratesAll) {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3U);
  EXPECT_TRUE(std::find(edges.begin(), edges.end(),
                        std::make_pair(NodeId{1}, NodeId{2})) != edges.end());
}

TEST(DiGraph, MergeDisjointOffsetsIds) {
  DiGraph a(2);
  a.add_edge(0, 1);
  DiGraph b(3);
  b.add_edge(0, 2);
  b.add_edge(1, 2);

  const NodeId offset = a.merge_disjoint(b);
  EXPECT_EQ(offset, 2U);
  EXPECT_EQ(a.node_count(), 5U);
  EXPECT_EQ(a.edge_count(), 3U);
  EXPECT_TRUE(a.has_edge(0, 1));
  EXPECT_TRUE(a.has_edge(offset + 0, offset + 2));
  EXPECT_TRUE(a.has_edge(offset + 1, offset + 2));
  EXPECT_FALSE(a.has_edge(1, offset + 0));
}

TEST(DiGraph, MergeDisjointPreservesDegrees) {
  DiGraph a(1);
  DiGraph b(2);
  b.add_edge(0, 1);
  const NodeId offset = a.merge_disjoint(b);
  EXPECT_EQ(a.out_degree(offset), 1U);
  EXPECT_EQ(a.in_degree(offset + 1), 1U);
}

}  // namespace
}  // namespace soteria::graph
