#include "cfg/gea.h"

#include <gtest/gtest.h>

#include "expect_error.h"
#include "graph/generators.h"
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
  EXPECT_EQ(g.out_degree(result.shared_entry), 2U);
  EXPECT_TRUE(g.has_edge(result.shared_entry, result.original_offset + 0));
  EXPECT_TRUE(g.has_edge(result.shared_entry, result.target_offset + 0));
  EXPECT_EQ(result.combined.entry(), result.shared_entry);
}

TEST(Gea, SharedExitJoinsBothExits) {
  const auto result = gea_combine(diamond_cfg(), chain_cfg(3));
  const auto& g = result.combined.graph();
  EXPECT_EQ(g.out_degree(result.shared_exit), 0U);
  // diamond exit = node 3; chain exit = node 2.
  EXPECT_TRUE(g.has_edge(result.original_offset + 3, result.shared_exit));
  EXPECT_TRUE(g.has_edge(result.target_offset + 2, result.shared_exit));
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
        g.has_edge(result.target_offset + u, result.target_offset + v));
  }
  // No cross-lobe edges except through shared entry/exit.
  for (const auto& [u, v] : g.edges()) {
    const bool u_original = u >= result.original_offset &&
                            u < result.original_offset +
                                    original.node_count();
    const bool v_target = v >= result.target_offset &&
                          v < result.target_offset + target.node_count();
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
  GeaOptions options;
  options.insertion = InsertionPoint::kMidBlock;
  options.anchor = 1;
  const auto result = gea_combine(original, target, options);
  const auto& g = result.combined.graph();
  // original + target + shared exit only (no new shared entry).
  EXPECT_EQ(result.combined.node_count(), 4U + 3U + 1U);
  EXPECT_EQ(result.combined.entry(), result.original_offset + 0);
  EXPECT_TRUE(g.has_edge(result.original_offset + 1,
                         result.target_offset + 0));
  EXPECT_TRUE(g.has_edge(result.original_offset + 3, result.shared_exit));
  EXPECT_TRUE(g.has_edge(result.target_offset + 2, result.shared_exit));
  // Everything stays reachable from the original entry.
  const auto reach = graph::reachable_from(g, result.combined.entry());
  for (bool r : reach) EXPECT_TRUE(r);
}

TEST(Gea, MidBlockAnchorOutOfRangeThrows) {
  GeaOptions options;
  options.insertion = InsertionPoint::kMidBlock;
  options.anchor = 99;
  try {
    (void)gea_combine(diamond_cfg(), chain_cfg(3), options);
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kOutOfRange);
  }
}

TEST(Gea, EntryGuardOptionsMatchTwoArgOverload) {
  const auto plain = gea_combine(diamond_cfg(), chain_cfg(3));
  const auto opt = gea_combine(diamond_cfg(), chain_cfg(3), GeaOptions{});
  EXPECT_EQ(plain.combined.node_count(), opt.combined.node_count());
  EXPECT_EQ(plain.combined.edge_count(), opt.combined.edge_count());
  EXPECT_EQ(plain.shared_entry, opt.shared_entry);
  EXPECT_EQ(plain.shared_exit, opt.shared_exit);
}

TEST(Gea, MultiInjectionBuildsGuardChain) {
  const Cfg original = diamond_cfg();
  const std::vector<Cfg> targets = {chain_cfg(3), chain_cfg(2),
                                    chain_cfg(5)};
  const auto result = gea_combine_multi(original, targets);
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
  EXPECT_ERROR((void)gea_combine_multi(diamond_cfg(), {}),
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
