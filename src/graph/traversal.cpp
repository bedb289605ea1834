#include "graph/traversal.h"

#include <deque>

#include "soteria/error.h"

namespace soteria::graph {

std::vector<std::size_t> bfs_distances(const DiGraph& g, NodeId source) {
  if (source >= g.node_count()) {
    throw core::Error(core::ErrorCode::kOutOfRange, "bfs: source out of range");
  }
  std::vector<std::size_t> dist(g.node_count(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.successors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<std::size_t> node_levels(const DiGraph& g, NodeId entry) {
  auto dist = bfs_distances(g, entry);
  for (std::size_t& d : dist) {
    if (d != kUnreachable) d += 1;  // the paper's levels start at 1
  }
  return dist;
}

std::vector<bool> reachable_from(const DiGraph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::vector<bool> reach(dist.size(), false);
  for (std::size_t i = 0; i < dist.size(); ++i)
    reach[i] = dist[i] != kUnreachable;
  return reach;
}

}  // namespace soteria::graph
