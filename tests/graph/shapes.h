// Graph shapes only tests use: chains (with optional random back
// edges), balanced binary trees and complete digraphs. The random,
// scale-free, firmware-shaped and diamond-chain generators, which the
// benches use too, live in src/graph/generators.h.
#pragma once

#include <cstddef>

#include "graph/digraph.h"
#include "math/rng.h"
#include "soteria/error.h"

namespace soteria::graph {

/// A chain 0 -> 1 -> ... -> n-1 with optional extra back edges, useful
/// for level-labeling tests.
inline DiGraph chain_graph(std::size_t n, std::size_t back_edges,
                           math::Rng& rng) {
  if (n == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "chain graph: n must be > 0");
  }
  DiGraph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  for (std::size_t i = 0; i < back_edges && n > 1; ++i) {
    const NodeId from = 1 + rng.index(n - 1);
    const NodeId to = rng.index(from);
    g.add_edge(from, to);
  }
  return g;
}

/// Balanced binary in-tree rooted at node 0 (edges parent -> children),
/// i.e. a CFG-like branching structure of the given depth.
inline DiGraph binary_tree(std::size_t depth) {
  const std::size_t n = (std::size_t{1} << (depth + 1)) - 1;
  DiGraph g(n);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId left = 2 * v + 1;
    const NodeId right = 2 * v + 2;
    if (left < n) g.add_edge(v, left);
    if (right < n) g.add_edge(v, right);
  }
  return g;
}

/// Complete directed graph on n nodes (every ordered pair, no self
/// loops).
inline DiGraph complete_digraph(std::size_t n) {
  DiGraph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v)
      if (u != v) g.add_edge(u, v);
  return g;
}

}  // namespace soteria::graph
