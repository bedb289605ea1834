#include "cfg/labeling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cfg/gea.h"
#include "expect_error.h"
#include "graph/shapes.h"
#include "math/rng.h"

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

TEST(Labeling, MethodNames) {
  EXPECT_STREQ(method_name(LabelingMethod::kDensity), "DBL");
  EXPECT_STREQ(method_name(LabelingMethod::kLevel), "LBL");
}

TEST(Labeling, EmptyCfgThrows) {
  EXPECT_ERROR((void)label_nodes(Cfg{}, LabelingMethod::kDensity),
               core::ErrorCode::kInvalidArgument);
}

class BothMethods : public ::testing::TestWithParam<LabelingMethod> {};

TEST_P(BothMethods, LabelsFormPermutation) {
  math::Rng rng(5);
  const auto g = graph::random_connected_dag_plus(40, 0.05, rng);
  const Cfg cfg(g, 0);
  const auto labels = label_nodes(cfg, GetParam());
  std::set<Label> seen(labels.begin(), labels.end());
  EXPECT_EQ(seen.size(), cfg.node_count());
  EXPECT_EQ(*seen.begin(), 0U);
  EXPECT_EQ(*seen.rbegin(), cfg.node_count() - 1);
}

TEST_P(BothMethods, DeterministicAcrossCalls) {
  math::Rng rng(6);
  const auto g = graph::random_connected_dag_plus(30, 0.08, rng);
  const Cfg cfg(g, 0);
  EXPECT_EQ(label_nodes(cfg, GetParam()), label_nodes(cfg, GetParam()));
}

TEST_P(BothMethods, InverseViewIsConsistent) {
  const Cfg cfg = diamond_cfg();
  const auto labels = label_nodes(cfg, GetParam());
  const auto inverse = nodes_by_label(labels);
  for (graph::NodeId v = 0; v < cfg.node_count(); ++v) {
    EXPECT_EQ(inverse[labels[v]], v);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, BothMethods,
                         ::testing::Values(LabelingMethod::kDensity,
                                           LabelingMethod::kLevel),
                         [](const auto& info) {
                           return method_name(info.param);
                         });

TEST(Labeling, LblEntryIsAlwaysLabelZero) {
  // Paper: "the entry block will always have the label 0 when using the
  // LBL method."
  math::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = graph::random_connected_dag_plus(25, 0.1, rng);
    const Cfg cfg(g, 0);
    const auto labels = label_nodes(cfg, LabelingMethod::kLevel);
    EXPECT_EQ(labels[cfg.entry()], 0U);
  }
}

TEST(Labeling, DblRanksDensestFirst) {
  // Star: hub 0 has degree 4, spokes degree 1 -> hub gets label 0.
  graph::DiGraph g(5);
  for (graph::NodeId v = 1; v < 5; ++v) g.add_edge(0, v);
  const Cfg cfg(std::move(g), 0);
  const auto labels = label_nodes(cfg, LabelingMethod::kDensity);
  EXPECT_EQ(labels[0], 0U);
}

TEST(Labeling, DensityTieBrokenByCentralityFactor) {
  // Path 0-1-2-3: ends have degree 1, middles degree 2. Node 1 and 2
  // tie on density AND centrality by symmetry -> falls through to the
  // level tie-break (node 1 is closer to the entry).
  graph::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Cfg cfg(std::move(g), 0);
  const auto labels = label_nodes(cfg, LabelingMethod::kDensity);
  EXPECT_LT(labels[1], labels[2]);  // shallower wins the tie
  EXPECT_LT(labels[1], labels[0]);  // denser beats the entry
  // Ends: entry at level 1 sorts before the far end.
  EXPECT_LT(labels[0], labels[3]);
}

TEST(Labeling, LblOrdersByLevelThenDensity) {
  // 0 -> {1, 2}, 1 -> 2, 2 -> 3: nodes 1 and 2 share level 2, but node
  // 2 has degree 3 vs node 1's degree 2, so it sorts first within the
  // level.
  graph::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Cfg cfg(std::move(g), 0);
  const auto labels = label_nodes(cfg, LabelingMethod::kLevel);
  EXPECT_EQ(labels[0], 0U);
  EXPECT_EQ(labels[2], 1U);  // denser within the level
  EXPECT_EQ(labels[1], 2U);
  EXPECT_EQ(labels[3], 3U);
}

TEST(Labeling, SymmetricTriangleFallsBackToNodeId) {
  // 0 -> 1, 0 -> 2, 1 -> 2 is fully symmetric in density and
  // centrality for nodes 1 and 2; the id tie-break makes it total.
  graph::DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const Cfg cfg(std::move(g), 0);
  const auto labels = label_nodes(cfg, LabelingMethod::kLevel);
  EXPECT_EQ(labels[0], 0U);
  EXPECT_EQ(labels[1], 1U);
  EXPECT_EQ(labels[2], 2U);
}

TEST(Labeling, NodeRanksExposeComputedKeys) {
  const Cfg cfg = diamond_cfg();
  const auto ranks = node_ranks(cfg);
  ASSERT_EQ(ranks.size(), 4U);
  EXPECT_DOUBLE_EQ(ranks[0].density, 2.0 / 4.0);
  EXPECT_EQ(ranks[0].level, 1U);
  EXPECT_EQ(ranks[3].level, 3U);
  // Symmetric middle nodes share all keys.
  EXPECT_DOUBLE_EQ(ranks[1].density, ranks[2].density);
  EXPECT_DOUBLE_EQ(ranks[1].centrality_factor, ranks[2].centrality_factor);
}

// The property the detector leans on: a GEA merge perturbs labels of
// the original sub-graph.
TEST(Labeling, GeaShiftsLabels) {
  math::Rng rng(8);
  const auto a = graph::random_connected_dag_plus(20, 0.08, rng);
  const auto b = graph::random_connected_dag_plus(15, 0.08, rng);
  const Cfg original(a, 0);
  const Cfg target(b, 0);
  const auto gea = gea_combine(original, target);

  const auto before = label_nodes(original, LabelingMethod::kDensity);
  const auto after = label_nodes(gea.combined, LabelingMethod::kDensity);
  std::size_t changed = 0;
  for (graph::NodeId v = 0; v < original.node_count(); ++v) {
    if (after[gea.original_offset + v] != before[v]) ++changed;
  }
  // Not necessarily all change, but a majority must.
  EXPECT_GT(changed, original.node_count() / 2);
}

TEST(Labeling, NodesByLabelValidatesRange) {
  std::vector<Label> bogus{0, 5};
  EXPECT_ERROR((void)nodes_by_label(bogus), core::ErrorCode::kInvalidArgument);
}

// Regression: duplicate labels used to be silently accepted — the later
// node overwrote the earlier one's slot, leaving a stale NodeId at the
// label the earlier node should have held.
TEST(Labeling, NodesByLabelRejectsDuplicates) {
  EXPECT_ERROR((void)nodes_by_label({0, 1, 1}),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)nodes_by_label({2, 2, 2}),
               core::ErrorCode::kInvalidArgument);
  // A valid permutation still inverts.
  const auto inverse = nodes_by_label({2, 0, 1});
  EXPECT_EQ(inverse, (std::vector<graph::NodeId>{1, 2, 0}));
}

// label_both must agree with the per-method entry points exactly — it
// is the same computation over one shared node_ranks pass.
TEST(Labeling, LabelBothMatchesPerMethodLabeling) {
  math::Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    const Cfg cfg(graph::random_connected_dag_plus(30 + 10 * trial, 0.1, rng),
                  0);
    const auto both = label_both(cfg);
    EXPECT_EQ(both.dbl, label_nodes(cfg, LabelingMethod::kDensity));
    EXPECT_EQ(both.lbl, label_nodes(cfg, LabelingMethod::kLevel));
  }
}

TEST(Labeling, LabelBothThrowsOnEmptyCfg) {
  EXPECT_ERROR((void)label_both(Cfg{}), core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::cfg
