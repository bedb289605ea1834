#include "graph/centrality.h"

#include <gtest/gtest.h>

#include "cfg/labeling.h"
#include "graph/shapes.h"
#include "math/rng.h"

namespace soteria::graph {
namespace {

// Path 0 - 1 - 2 (directed 0->1->2; centrality uses the undirected view).
DiGraph path3() {
  DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  return g;
}

TEST(Betweenness, PathCenterCarriesAllPaths) {
  const auto b = centrality_scores(path3()).betweenness;
  // Exactly one shortest path (0-2) passes through node 1, out of the
  // three pair paths {0-1, 0-2, 1-2} -> 1/3 under the paper's
  // Delta(v)/Delta(m) normalization.
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_NEAR(b[1], 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(b[2], 0.0);
}

TEST(Betweenness, StarHubDominates) {
  DiGraph g(5);  // hub 0 with 4 spokes
  for (NodeId v = 1; v < 5; ++v) g.add_edge(0, v);
  const auto b = centrality_scores(g).betweenness;
  EXPECT_GT(b[0], 0.0);
  for (NodeId v = 1; v < 5; ++v) EXPECT_DOUBLE_EQ(b[v], 0.0);
  // Star with 4 spokes: pair paths = 4 (hub-spoke) + 6 (spoke-spoke),
  // all 6 spoke pairs pass the hub -> 6/10.
  EXPECT_NEAR(b[0], 0.6, 1e-9);
}

TEST(Betweenness, TinyGraphsAreZero) {
  EXPECT_TRUE(centrality_scores(DiGraph(0)).betweenness.empty());
  const auto one = centrality_scores(DiGraph(1)).betweenness;
  EXPECT_DOUBLE_EQ(one[0], 0.0);
  DiGraph two(2);
  two.add_edge(0, 1);
  for (double v : centrality_scores(two).betweenness) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(Betweenness, SymmetricNodesTie) {
  // Diamond: 0 -> {1,2} -> 3; nodes 1 and 2 are symmetric.
  DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const auto b = centrality_scores(g).betweenness;
  EXPECT_DOUBLE_EQ(b[1], b[2]);
  EXPECT_GT(b[1], 0.0);
}

TEST(Closeness, PathCenterIsClosest) {
  const auto c = centrality_scores(path3()).closeness;
  // center: distances {1,1} -> 2/2 = 1.0; ends: {1,2} -> 2/3.
  EXPECT_NEAR(c[1], 1.0, 1e-9);
  EXPECT_NEAR(c[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(c[2], 2.0 / 3.0, 1e-9);
}

TEST(Closeness, IsolatedNodeIsZero) {
  DiGraph g(3);
  g.add_edge(0, 1);
  const auto c = centrality_scores(g).closeness;
  EXPECT_DOUBLE_EQ(c[2], 0.0);
  EXPECT_GT(c[0], 0.0);
}

TEST(Closeness, SingleNodeGraph) {
  const auto c = centrality_scores(DiGraph(1)).closeness;
  EXPECT_DOUBLE_EQ(c[0], 0.0);
}

// The centrality factor is the labeling's density tie-break key,
// cfg::NodeRank::centrality_factor.
std::vector<double> centrality_factor(const DiGraph& g) {
  std::vector<double> cf;
  for (const auto& rank : cfg::node_ranks(cfg::Cfg(g, 0))) {
    cf.push_back(rank.centrality_factor);
  }
  return cf;
}

TEST(CentralityFactor, IsSumOfBoth) {
  const auto g = path3();
  const auto cf = centrality_factor(g);
  const auto scores = centrality_scores(g);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_DOUBLE_EQ(cf[v], scores.betweenness[v] + scores.closeness[v]);
  }
}

TEST(CentralityFactor, HigherForStructuralHubs) {
  const auto cf = centrality_factor(binary_tree(3));
  // The root and internal nodes outrank the leaves.
  EXPECT_GT(cf[1], cf[7]);
  EXPECT_GT(cf[0], cf[14]);
}

TEST(Betweenness, AgreesWithBruteForceOnRandomGraphs) {
  // Brute-force Delta(v) via explicit path counting on small graphs.
  math::Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = random_connected_dag_plus(8, 0.15, rng);
    const auto fast = centrality_scores(g).betweenness;

    // Floyd-Warshall distances + path counts over the undirected view.
    const std::size_t n = g.node_count();
    std::vector<std::vector<double>> dist(n,
                                          std::vector<double>(n, 1e18));
    std::vector<std::vector<double>> paths(n, std::vector<double>(n, 0.0));
    for (NodeId v = 0; v < n; ++v) {
      dist[v][v] = 0.0;
      paths[v][v] = 1.0;
    }
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : g.undirected_neighbors(u)) {
        if (u == v) continue;
        dist[u][v] = 1.0;
        paths[u][v] = 1.0;
      }
    }
    for (NodeId k = 0; k < n; ++k) {
      for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = 0; j < n; ++j) {
          if (i == j || i == k || j == k) continue;
          const double through = dist[i][k] + dist[k][j];
          if (through < dist[i][j] - 1e-9) {
            dist[i][j] = through;
            paths[i][j] = paths[i][k] * paths[k][j];
          } else if (std::abs(through - dist[i][j]) < 1e-9) {
            paths[i][j] += paths[i][k] * paths[k][j];
          }
        }
      }
    }
    // Count, for each v, shortest paths through v; normalize by total.
    double total = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (dist[i][j] < 1e17) total += paths[i][j];
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      double through = 0.0;
      for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = i + 1; j < n; ++j) {
          if (i == v || j == v || dist[i][j] > 1e17) continue;
          if (std::abs(dist[i][v] + dist[v][j] - dist[i][j]) < 1e-9) {
            through += paths[i][v] * paths[v][j];
          }
        }
      }
      EXPECT_NEAR(fast[v], through / total, 1e-6)
          << "trial " << trial << " node " << v;
    }
  }
}

}  // namespace
}  // namespace soteria::graph
