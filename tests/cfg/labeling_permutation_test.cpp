// Property test: DBL and LBL orderings are invariant under a random
// permutation of CFG node ids. Density (total_degree / edge_count) and
// BFS level are exactly permutation-equivariant; the centrality factor
// is a floating-point reduction whose summation order follows node ids,
// so it may move by ulps under relabeling. The assertions therefore
// compare orderings through the exact keys and require only label-SET
// equality inside exact-key tie groups — plus full within-group order
// equality whenever the centrality factors in a group are separated by
// more than a fat FP margin.
#include "cfg/labeling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/shapes.h"
#include "math/rng.h"

namespace soteria::cfg {
namespace {

Cfg permuted_cfg(const Cfg& original, const std::vector<std::size_t>& perm) {
  graph::DiGraph g(original.node_count());
  for (const auto& [u, v] : original.graph().edges()) {
    g.add_edge(perm[u], perm[v]);
  }
  return Cfg(std::move(g), perm[original.entry()]);
}

/// Exact sort-prefix key: every comparator key up to (exclusive) the
/// first floating-point one. DBL sorts by density first (density =
/// total_degree / edge_count and edge_count is permutation-invariant,
/// so the integer degree is an exact proxy); LBL sorts by level, then
/// density.
using ExactKey = std::pair<std::size_t, std::size_t>;

ExactKey exact_key(const Cfg& cfg, graph::NodeId v,
                   const std::vector<NodeRank>& ranks,
                   LabelingMethod method) {
  const std::size_t degree = cfg.graph().total_degree(v);
  if (method == LabelingMethod::kDensity) {
    return {degree, 0};
  }
  return {static_cast<std::size_t>(ranks[v].level), degree};
}

void check_permutation_invariance(const Cfg& original,
                                  const std::vector<std::size_t>& perm,
                                  LabelingMethod method) {
  const Cfg permuted = permuted_cfg(original, perm);
  const std::size_t n = original.node_count();

  const auto ranks = node_ranks(original);
  const auto pranks = node_ranks(permuted);

  // Rank equivariance: density and level exactly, centrality to ulps.
  for (graph::NodeId v = 0; v < n; ++v) {
    ASSERT_DOUBLE_EQ(pranks[perm[v]].density, ranks[v].density);
    ASSERT_EQ(pranks[perm[v]].level, ranks[v].level);
    ASSERT_NEAR(pranks[perm[v]].centrality_factor,
                ranks[v].centrality_factor,
                1e-9 * (1.0 + std::abs(ranks[v].centrality_factor)));
  }

  const auto labels = label_nodes(original, method);
  const auto plabels = label_nodes(permuted, method);

  // Both labelings are permutations of [0, n) (throws otherwise).
  const auto order = nodes_by_label(labels);
  (void)nodes_by_label(plabels);

  // (1) The sequence of exact keys read off in label order must be
  // identical: the exact keys dominate the comparison, so label
  // position p holds the same exact key in both graphs.
  for (std::size_t p = 0; p < n; ++p) {
    // Node holding label p in each graph.
    graph::NodeId pv = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (plabels[u] == p) pv = u;
    }
    ASSERT_EQ(exact_key(permuted, pv, pranks, method),
              exact_key(original, order[p], ranks, method))
        << "exact-key sequence diverged at label " << p;
  }

  // (2) Exact-key tie groups occupy identical label sets, and a node's
  // label can only move within its own group under permutation.
  std::map<ExactKey, std::set<std::size_t>> group_labels;
  std::map<ExactKey, std::set<std::size_t>> pgroup_labels;
  for (graph::NodeId v = 0; v < n; ++v) {
    group_labels[exact_key(original, v, ranks, method)].insert(labels[v]);
    pgroup_labels[exact_key(original, v, ranks, method)].insert(
        plabels[perm[v]]);
  }
  ASSERT_EQ(group_labels, pgroup_labels);

  // (3) Where centrality factors within a tie group are clearly
  // separated (and so are ulp-proof), the full within-group order is
  // determined by exact data and must match node for node.
  std::map<ExactKey, std::vector<graph::NodeId>> groups;
  for (graph::NodeId v = 0; v < n; ++v) {
    groups[exact_key(original, v, ranks, method)].push_back(v);
  }
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) {
      const graph::NodeId v = members.front();
      EXPECT_EQ(plabels[perm[v]], labels[v]);
      continue;
    }
    bool separated = true;
    std::vector<double> cfs;
    for (const graph::NodeId v : members) {
      cfs.push_back(ranks[v].centrality_factor);
    }
    std::sort(cfs.begin(), cfs.end());
    for (std::size_t i = 0; i + 1 < cfs.size(); ++i) {
      if (cfs[i + 1] - cfs[i] < 1e-6 * (1.0 + std::abs(cfs[i]))) {
        separated = false;
      }
    }
    // For LBL the comparator still consults density before centrality;
    // members of a (level, degree) group share density, so centrality
    // decides. Same for DBL groups (shared density).
    if (!separated) continue;
    for (const graph::NodeId v : members) {
      EXPECT_EQ(plabels[perm[v]], labels[v])
          << "well-separated node " << v << " changed label";
    }
  }
}

void run_shapes(LabelingMethod method) {
  math::Rng rng(404);

  std::vector<Cfg> shapes;
  shapes.emplace_back(graph::chain_graph(24, 3, rng), 0);
  shapes.emplace_back(graph::binary_tree(4), 0);
  shapes.emplace_back(graph::complete_digraph(7), 0);
  for (const std::size_t n : {12UL, 40UL, 80UL}) {
    shapes.emplace_back(
        graph::random_connected_dag_plus(
            n, 3.0 / static_cast<double>(n), rng),
        0);
    shapes.emplace_back(
        graph::random_connected_dag_plus(
            n, 8.0 / static_cast<double>(n), rng),
        0);
  }

  for (const auto& cfg : shapes) {
    const std::size_t n = cfg.node_count();
    // Identity, reversal, and a few random permutations.
    std::vector<std::vector<std::size_t>> perms;
    std::vector<std::size_t> identity(n);
    for (std::size_t i = 0; i < n; ++i) identity[i] = i;
    perms.push_back(identity);
    std::vector<std::size_t> reversed(identity.rbegin(), identity.rend());
    perms.push_back(reversed);
    for (int k = 0; k < 4; ++k) perms.push_back(rng.permutation(n));

    for (const auto& perm : perms) {
      check_permutation_invariance(cfg, perm, method);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(LabelingPermutation, DblOrderingInvariantUnderNodeRelabeling) {
  run_shapes(LabelingMethod::kDensity);
}

TEST(LabelingPermutation, LblOrderingInvariantUnderNodeRelabeling) {
  run_shapes(LabelingMethod::kLevel);
}

// The identity permutation is a pure determinism check: two labelings
// of the same graph must agree exactly.
TEST(LabelingPermutation, LabelingIsDeterministic) {
  math::Rng rng(405);
  const Cfg cfg(graph::random_connected_dag_plus(50, 0.08, rng), 0);
  for (const auto method :
       {LabelingMethod::kDensity, LabelingMethod::kLevel}) {
    EXPECT_EQ(label_nodes(cfg, method), label_nodes(cfg, method));
  }
}

}  // namespace
}  // namespace soteria::cfg
