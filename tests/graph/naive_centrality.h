// The pre-fusion two-sweep centrality implementation, preserved
// verbatim as the reference oracle for the fused fast path in
// src/graph/centrality.cpp. The property test
// (centrality_fused_property_test.cpp) pins *exact* floating-point
// agreement between the two: every accumulator on both sides holds
// nonnegative integers until the final normalizing divisions, so the
// results must match bit for bit, not just approximately.
//
// Do not "improve" this file — its value is being the slow, obviously
// correct formulation (textbook Brandes with predecessor lists plus a
// separate all-sources BFS sweep for closeness).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "graph/digraph.h"
#include "graph/traversal.h"

namespace soteria::graph::naive {

// Undirected adjacency snapshot so each BFS avoids re-deduplicating.
inline std::vector<std::vector<NodeId>> undirected_adjacency(
    const DiGraph& g) {
  std::vector<std::vector<NodeId>> adj(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v)
    adj[v] = g.undirected_neighbors(v);
  return adj;
}

inline std::vector<double> betweenness_centrality(const DiGraph& g) {
  const std::size_t n = g.node_count();
  std::vector<double> betweenness(n, 0.0);
  if (n < 3) return betweenness;
  const auto adj = undirected_adjacency(g);

  // Brandes' accumulation (unweighted). Raw dependency scores first.
  std::vector<double> sigma(n);       // # shortest paths from s
  std::vector<double> delta(n);       // dependency of s on v
  std::vector<std::int64_t> dist(n);  // BFS distance, -1 = unseen
  std::vector<std::vector<NodeId>> preds(n);
  std::vector<NodeId> order;  // nodes in non-decreasing distance
  order.reserve(n);

  double total_pair_paths = 0.0;  // Delta(m): total shortest paths between
                                  // distinct unordered pairs

  for (NodeId s = 0; s < n; ++s) {
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    std::fill(dist.begin(), dist.end(), -1);
    for (auto& p : preds) p.clear();
    order.clear();

    sigma[s] = 1.0;
    dist[s] = 0;
    std::deque<NodeId> queue{s};
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      order.push_back(u);
      for (NodeId w : adj[u]) {
        if (dist[w] < 0) {
          dist[w] = dist[u] + 1;
          queue.push_back(w);
        }
        if (dist[w] == dist[u] + 1) {
          sigma[w] += sigma[u];
          preds[w].push_back(u);
        }
      }
    }

    for (NodeId t : order) {
      if (t != s) total_pair_paths += sigma[t];
    }

    // delta[v] accumulates c(v) = number of shortest-path continuations
    // from v to any strictly-downstream target in the BFS DAG; the number
    // of shortest s-t paths through v (summed over t) is sigma[v] * c(v).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId w = *it;
      for (NodeId u : preds[w]) {
        delta[u] += 1.0 + delta[w];
      }
      if (w != s) betweenness[w] += delta[w] * sigma[w];
    }
  }

  // Each unordered pair was visited from both endpoints; halve both the
  // accumulated path counts and the normalizer, which cancels.
  if (total_pair_paths > 0.0) {
    for (double& b : betweenness) b /= total_pair_paths;
  }
  return betweenness;
}

// BFS distances over the undirected view of the graph; kUnreachable
// where no path exists.
inline std::vector<std::size_t> undirected_bfs_distances(const DiGraph& g,
                                                         NodeId source) {
  std::vector<std::size_t> dist(g.node_count(), kUnreachable);
  dist[source] = 0;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.undirected_neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

inline std::vector<double> closeness_centrality(const DiGraph& g) {
  const std::size_t n = g.node_count();
  std::vector<double> closeness(n, 0.0);
  if (n < 2) return closeness;
  for (NodeId v = 0; v < n; ++v) {
    const auto dist = undirected_bfs_distances(g, v);
    double sum = 0.0;
    std::size_t reachable = 0;
    for (std::size_t d : dist) {
      if (d != kUnreachable && d > 0) {
        sum += static_cast<double>(d);
        ++reachable;
      }
    }
    if (sum > 0.0) closeness[v] = static_cast<double>(reachable) / sum;
  }
  return closeness;
}

inline std::vector<double> centrality_factor(const DiGraph& g) {
  auto cf = naive::betweenness_centrality(g);
  const auto close = naive::closeness_centrality(g);
  for (std::size_t i = 0; i < cf.size(); ++i) cf[i] += close[i];
  return cf;
}

}  // namespace soteria::graph::naive
