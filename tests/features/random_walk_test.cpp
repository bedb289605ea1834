#include "features/random_walk.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"

namespace soteria::features {
namespace {

cfg::Cfg diamond_cfg() {
  graph::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return cfg::Cfg(std::move(g), 0);
}

TEST(UndirectedView, BuildsSymmetricAdjacency) {
  const UndirectedView view(diamond_cfg());
  EXPECT_EQ(view.node_count(), 4U);
  EXPECT_EQ(view.entry(), 0U);
  const auto& n0 = view.neighbors(0);
  EXPECT_EQ(n0.size(), 2U);
  const auto& n3 = view.neighbors(3);
  EXPECT_EQ(n3.size(), 2U);  // sees 1 and 2 despite edge direction
}

TEST(UndirectedView, RowsMatchUndirectedNeighbors) {
  // Every CSR row equals DiGraph::undirected_neighbors, self-loops and
  // 2-cycles included: rows are deduplicated in place, so a row that
  // shrinks must not leave stale entries for the next.
  math::Rng rng(11);
  for (const std::size_t n : {60U, 200U, 1U, 9U}) {
    graph::DiGraph g = graph::firmware_like_cfg(n, rng);
    g.add_edge(n - 1, n - 1);
    if (n > 1) g.add_edge(1, 0);
    const cfg::Cfg cfg(std::move(g), 0);
    const UndirectedView view(cfg);
    ASSERT_EQ(view.node_count(), n);
    for (graph::NodeId v = 0; v < n; ++v) {
      const auto row = view.neighbors(v);
      EXPECT_EQ(std::vector<graph::NodeId>(row.begin(), row.end()),
                cfg.graph().undirected_neighbors(v))
          << "n " << n << " node " << v;
    }
  }
}

TEST(UndirectedView, EmptyCfgThrows) {
  EXPECT_THROW(UndirectedView(cfg::Cfg{}), std::invalid_argument);
}

TEST(WalkConfig, Validation) {
  WalkConfig ok;
  EXPECT_NO_THROW(validate(ok));
  WalkConfig bad_len;
  bad_len.length_multiplier = 0.0;
  EXPECT_THROW(validate(bad_len), std::invalid_argument);
  WalkConfig bad_walks;
  bad_walks.walks_per_labeling = 0;
  EXPECT_THROW(validate(bad_walks), std::invalid_argument);
}

TEST(RandomWalk, HasRequestedLengthAndStartsAtEntry) {
  const UndirectedView view(diamond_cfg());
  math::Rng rng(1);
  const auto trace = random_walk_nodes(view, 25, rng);
  ASSERT_EQ(trace.size(), 26U);
  EXPECT_EQ(trace.front(), 0U);
}

TEST(RandomWalk, EveryStepIsAnAdjacentNode) {
  const UndirectedView view(diamond_cfg());
  math::Rng rng(2);
  const auto trace = random_walk_nodes(view, 100, rng);
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    const auto& nbrs = view.neighbors(trace[i]);
    EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), trace[i + 1]) !=
                nbrs.end())
        << "illegal transition " << trace[i] << " -> " << trace[i + 1];
  }
}

TEST(RandomWalk, SingleNodeGraphStaysPut) {
  const cfg::Cfg lone(graph::DiGraph(1), 0);
  const UndirectedView view(lone);
  math::Rng rng(3);
  const auto trace = random_walk_nodes(view, 10, rng);
  ASSERT_EQ(trace.size(), 11U);
  for (graph::NodeId v : trace) EXPECT_EQ(v, 0U);
}

TEST(RandomWalk, DeterministicGivenSeed) {
  const UndirectedView view(diamond_cfg());
  math::Rng a(7);
  math::Rng b(7);
  EXPECT_EQ(random_walk_nodes(view, 50, a), random_walk_nodes(view, 50, b));
}

TEST(RandomWalk, DifferentSeedsDiverge) {
  const UndirectedView view(diamond_cfg());
  math::Rng a(7);
  math::Rng b(8);
  EXPECT_NE(random_walk_nodes(view, 50, a), random_walk_nodes(view, 50, b));
}

TEST(RandomWalk, VisitsProportionalToDegree) {
  // On the diamond's undirected view all nodes have degree 2, so long
  // walks should spread roughly evenly.
  const UndirectedView view(diamond_cfg());
  math::Rng rng(9);
  std::array<std::size_t, 4> visits{};
  const auto trace = random_walk_nodes(view, 40000, rng);
  for (graph::NodeId v : trace) ++visits[v];
  for (std::size_t count : visits) {
    EXPECT_NEAR(static_cast<double>(count) / trace.size(), 0.25, 0.02);
  }
}

TEST(ApplyLabels, MapsThrough) {
  const std::vector<graph::NodeId> nodes{0, 2, 1};
  const std::vector<cfg::Label> labels{5, 6, 7};
  const auto mapped = apply_labels(nodes, labels);
  EXPECT_EQ(mapped, (std::vector<cfg::Label>{5, 7, 6}));

  // labeled_walks is the node walk mapped through the table, with the
  // same rng draws.
  const UndirectedView view(diamond_cfg());
  const std::vector<cfg::Label> diamond_labels{5, 6, 7, 8};
  WalkConfig config;
  config.walks_per_labeling = 1;
  config.length_multiplier = 3.0;
  math::Rng node_rng(6);
  math::Rng label_rng(6);
  const auto walks =
      labeled_walks(diamond_cfg(), diamond_labels, config, label_rng);
  const auto nodes_walk = random_walk_nodes(view, 12, node_rng);
  ASSERT_EQ(walks.size(), 1U);
  EXPECT_EQ(walks[0], apply_labels(nodes_walk, diamond_labels));
  EXPECT_EQ(node_rng.engine()(), label_rng.engine()());
}

TEST(ApplyLabels, ThrowsOnShortTable) {
  const std::vector<graph::NodeId> nodes{0, 9};
  const std::vector<cfg::Label> labels{1, 2};
  EXPECT_THROW((void)apply_labels(nodes, labels), std::out_of_range);
  // Only the entry has a label; the first step leaves it.
  const std::vector<cfg::Label> entry_only{1};
  math::Rng rng(7);
  EXPECT_THROW((void)labeled_walks(diamond_cfg(), entry_only, WalkConfig{},
                                   rng),
               std::out_of_range);
}

TEST(LabeledWalks, ShapeMatchesConfig) {
  const auto cfg = diamond_cfg();
  const auto labels = cfg::label_nodes(cfg, cfg::LabelingMethod::kLevel);
  WalkConfig config;
  config.walks_per_labeling = 4;
  config.length_multiplier = 3.0;
  math::Rng rng(4);
  const auto walks = labeled_walks(cfg, labels, config, rng);
  ASSERT_EQ(walks.size(), 4U);
  for (const auto& walk : walks) {
    EXPECT_EQ(walk.size(), 3 * 4 + 1);  // 3 * |V| steps + start
  }
}

TEST(LabeledWalks, PaperLengthIsFiveTimesNodes) {
  const auto cfg = diamond_cfg();
  const auto labels = cfg::label_nodes(cfg, cfg::LabelingMethod::kDensity);
  math::Rng rng(5);
  const auto walks = labeled_walks(cfg, labels, WalkConfig{}, rng);
  ASSERT_EQ(walks.size(), 10U);
  EXPECT_EQ(walks[0].size(), 5 * 4 + 1);
}

}  // namespace
}  // namespace soteria::features
