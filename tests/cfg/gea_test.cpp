#include "cfg/gea.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "expect_error.h"
#include "graph/shapes.h"
#include "graph/traversal.h"
#include "math/rng.h"
#include "soteria/error.h"

namespace soteria::cfg {
namespace {

Cfg diamond_cfg() {
  graph::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return Cfg(std::move(g), 0);
}

Cfg chain_cfg(std::size_t n) {
  math::Rng rng(1);
  return Cfg(graph::chain_graph(n, 0, rng), 0);
}

TEST(Gea, CombinedSizeIsSumPlusTwo) {
  const auto result = gea_combine(diamond_cfg(), chain_cfg(3));
  EXPECT_EQ(result.combined.node_count(), 4U + 3U + 2U);
}

TEST(Gea, SharedEntryBranchesToBothEntries) {
  const auto result = gea_combine(diamond_cfg(), chain_cfg(3));
  const auto& g = result.combined.graph();
  const graph::NodeId entry = result.combined.entry();
  EXPECT_EQ(g.out_degree(entry), 2U);
  EXPECT_TRUE(g.has_edge(entry, result.original_offset + 0));
  EXPECT_TRUE(g.has_edge(entry, result.target_offsets[0] + 0));
  EXPECT_EQ(result.guards, std::vector<graph::NodeId>{entry});
}

TEST(Gea, SharedExitJoinsBothExits) {
  const auto result = gea_combine(diamond_cfg(), chain_cfg(3));
  const auto& g = result.combined.graph();
  EXPECT_EQ(g.out_degree(result.shared_exit), 0U);
  // diamond exit = node 3; chain exit = node 2.
  EXPECT_TRUE(g.has_edge(result.original_offset + 3, result.shared_exit));
  EXPECT_TRUE(g.has_edge(result.target_offsets[0] + 2, result.shared_exit));
}

TEST(Gea, LobesKeepTheirInternalEdges) {
  const Cfg original = diamond_cfg();
  const Cfg target = chain_cfg(4);
  const auto result = gea_combine(original, target);
  const auto& g = result.combined.graph();
  for (const auto& [u, v] : original.graph().edges()) {
    EXPECT_TRUE(g.has_edge(result.original_offset + u,
                           result.original_offset + v));
  }
  for (const auto& [u, v] : target.graph().edges()) {
    EXPECT_TRUE(
        g.has_edge(result.target_offsets[0] + u, result.target_offsets[0] + v));
  }
  // No cross-lobe edges except through shared entry/exit.
  for (const auto& [u, v] : g.edges()) {
    const bool u_original = u >= result.original_offset &&
                            u < result.original_offset +
                                    original.node_count();
    const bool v_target =
        v >= result.target_offsets[0] &&
        v < result.target_offsets[0] + target.node_count();
    EXPECT_FALSE(u_original && v_target);
  }
}

TEST(Gea, EverythingReachableFromSharedEntry) {
  math::Rng rng(3);
  const Cfg a(graph::random_connected_dag_plus(12, 0.1, rng), 0);
  const Cfg b(graph::random_connected_dag_plus(9, 0.1, rng), 0);
  const auto result = gea_combine(a, b);
  const auto reach = graph::reachable_from(result.combined.graph(),
                                           result.combined.entry());
  for (bool r : reach) EXPECT_TRUE(r);
}

TEST(Gea, EmptyCfgThrows) {
  try {
    (void)gea_combine(Cfg{}, diamond_cfg());
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }
  EXPECT_ERROR((void)gea_combine(diamond_cfg(), Cfg{}),
               core::ErrorCode::kInvalidArgument);
}

TEST(Gea, MidBlockHangsLobeOffAnchor) {
  const Cfg original = diamond_cfg();
  const Cfg target = chain_cfg(3);
  const auto result = gea_attach(original, target, 1);
  const auto& g = result.combined.graph();
  // original + target + shared exit only (no new shared entry).
  EXPECT_EQ(result.combined.node_count(), 4U + 3U + 1U);
  EXPECT_TRUE(result.guards.empty());
  EXPECT_EQ(result.combined.entry(), result.original_offset + 0);
  EXPECT_TRUE(g.has_edge(result.original_offset + 1,
                         result.target_offsets[0] + 0));
  EXPECT_TRUE(g.has_edge(result.original_offset + 3, result.shared_exit));
  EXPECT_TRUE(g.has_edge(result.target_offsets[0] + 2, result.shared_exit));
  // Everything stays reachable from the original entry.
  const auto reach = graph::reachable_from(g, result.combined.entry());
  for (bool r : reach) EXPECT_TRUE(r);
}

TEST(Gea, MidBlockAnchorOutOfRangeThrows) {
  try {
    (void)gea_attach(diamond_cfg(), chain_cfg(3), 99);
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kOutOfRange);
  }
}

// The one-target chain is the classic GEA down to the edge order: the
// shared entry's successors are the original's entry, then the
// target's, and every lobe's exits follow the lobes' own edges.
TEST(Gea, OneTargetChainKeepsTheClassicEdgeOrder) {
  const auto result = gea_combine(diamond_cfg(), chain_cfg(3));
  const auto& g = result.combined.graph();
  // 0 = shared entry, 1..4 = diamond, 5..7 = chain, 8 = shared exit.
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> want = {
      {0, 1}, {0, 5}, {1, 2}, {1, 3}, {2, 4}, {3, 4},
      {4, 8}, {5, 6}, {6, 7}, {7, 8}};
  EXPECT_EQ(g.edges(), want);
  const std::vector<graph::NodeId> entry_successors = {1, 5};
  EXPECT_TRUE(std::equal(g.successors(0).begin(), g.successors(0).end(),
                         entry_successors.begin(), entry_successors.end()));
}

TEST(Gea, MultiInjectionBuildsGuardChain) {
  const Cfg original = diamond_cfg();
  const std::vector<Cfg> targets = {chain_cfg(3), chain_cfg(2),
                                    chain_cfg(5)};
  const auto result = gea_chain(original, targets);
  const auto& g = result.combined.graph();
  ASSERT_EQ(result.guards.size(), 3U);
  ASSERT_EQ(result.target_offsets.size(), 3U);
  EXPECT_EQ(result.combined.node_count(),
            3U + 4U + (3U + 2U + 5U) + 1U);
  EXPECT_EQ(result.combined.entry(), result.guards.front());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_TRUE(
        g.has_edge(result.guards[i], result.target_offsets[i] + 0));
  }
  EXPECT_TRUE(g.has_edge(result.guards[0], result.guards[1]));
  EXPECT_TRUE(g.has_edge(result.guards[1], result.guards[2]));
  EXPECT_TRUE(g.has_edge(result.guards[2], result.original_offset + 0));
  const auto reach = graph::reachable_from(g, result.combined.entry());
  for (bool r : reach) EXPECT_TRUE(r);
}

TEST(Gea, MultiInjectionRejectsEmptyTargetList) {
  EXPECT_ERROR((void)gea_chain(diamond_cfg(), {}),
               core::ErrorCode::kInvalidArgument);
}

TEST(Gea, LoopOnlyCfgStillJoinsExit) {
  // 2-cycle with no natural exit: the deepest node links to the shared
  // exit instead.
  graph::DiGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const Cfg looper(std::move(g), 0);
  const auto result = gea_combine(looper, diamond_cfg());
  EXPECT_GT(result.combined.graph().in_degree(result.shared_exit), 1U);
}

TEST(Gea, SelfCombinationDoublesStructure) {
  const Cfg d = diamond_cfg();
  const auto result = gea_combine(d, d);
  EXPECT_EQ(result.combined.node_count(), 10U);
  EXPECT_EQ(result.combined.edge_count(), 2U * d.edge_count() + 2 + 2);
}

TEST(Cfg, ExitNodesFindsSinks) {
  const Cfg d = diamond_cfg();
  const auto exits = d.exit_nodes();
  ASSERT_EQ(exits.size(), 1U);
  EXPECT_EQ(exits[0], 3U);
}

TEST(Cfg, ConstructorValidation) {
  graph::DiGraph g(2);
  EXPECT_ERROR(Cfg(g, 5), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(Cfg(g, 0, std::vector<BasicBlock>(3)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_NO_THROW(Cfg(g, 1));
  EXPECT_NO_THROW(Cfg(graph::DiGraph{}, 0));  // empty graph, any entry
}

}  // namespace
}  // namespace soteria::cfg
