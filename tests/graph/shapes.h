// Graph shapes only tests use: random G(n, p) digraphs, diamond
// chains, scale-free digraphs, chains (with optional random back
// edges), balanced binary trees and complete digraphs. The
// firmware-shaped generator, which the benches use too, lives in
// src/graph/generators.h.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/digraph.h"
#include "math/rng.h"
#include "soteria/error.h"

namespace soteria::graph {

/// Erdos-Renyi-style G(n, p) digraph (no self loops). Node 0 is wired to
/// be an entry: every node is made reachable from 0 by adding a spanning
/// arborescence first.
inline DiGraph random_connected_dag_plus(std::size_t n, double p,
                                         math::Rng& rng) {
  if (n == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "random graph: n must be > 0");
  }
  if (p < 0.0 || p > 1.0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "random graph: p outside [0,1]");
  }
  DiGraph g(n);
  // Spanning structure: each node v > 0 gets one parent among [0, v).
  for (NodeId v = 1; v < n; ++v) {
    const NodeId parent = rng.index(v);
    g.add_edge(parent, v);
  }
  // Extra random edges.
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      if (rng.bernoulli(p)) g.add_edge(u, v);
    }
  }
  return g;
}

/// `count` if/else diamonds in a row (3 * count + 1 nodes): each
/// diamond is a 4-cycle in the undirected view, joined to the next at a
/// cut vertex, and node 0 reaches node 3 * count along 2^count shortest
/// paths — the shape that drives path counts past 2^53.
inline DiGraph diamond_chain(std::size_t count) {
  DiGraph g(3 * count + 1);
  for (NodeId d = 0; d < count; ++d) {
    const NodeId head = 3 * d;
    g.add_edge(head, head + 1);
    g.add_edge(head, head + 2);
    g.add_edge(head + 1, head + 3);
    g.add_edge(head + 2, head + 3);
  }
  return g;
}

/// Barabasi-Albert-style scale-free digraph: nodes arrive one at a
/// time and wire up to `edges_per_node` out-edges to earlier nodes
/// drawn proportionally to current degree (preferential attachment),
/// so a few early hubs collect most of the edges — the heavy-tailed
/// degree profile of call-heavy CFG regions. Connected in the
/// undirected view by construction.
inline DiGraph scale_free_digraph(std::size_t n, std::size_t edges_per_node,
                                  math::Rng& rng) {
  if (n == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "scale-free graph: n must be > 0");
  }
  if (edges_per_node == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "scale-free graph: edges_per_node must be > 0");
  }
  DiGraph g(n);
  // Degree-proportional urn: every edge endpoint is appended, so a
  // uniform draw from the urn is a preferential-attachment draw.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * n * edges_per_node);
  endpoints.push_back(0);
  for (NodeId v = 1; v < n; ++v) {
    const std::size_t wanted = std::min<std::size_t>(edges_per_node, v);
    for (std::size_t e = 0; e < wanted; ++e) {
      const NodeId target = endpoints[rng.index(endpoints.size())];
      if (g.add_edge(v, target)) endpoints.push_back(target);
    }
    endpoints.push_back(v);
  }
  return g;
}

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
