#include "graph/generators.h"

#include "soteria/error.h"

namespace soteria::graph {

DiGraph random_connected_dag_plus(std::size_t n, double p, math::Rng& rng) {
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

DiGraph diamond_chain(std::size_t count) {
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

DiGraph scale_free_digraph(std::size_t n, std::size_t edges_per_node,
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

DiGraph firmware_like_cfg(std::size_t n, math::Rng& rng) {
  if (n == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "firmware cfg: n must be > 0");
  }
  DiGraph g(n);
  // Partition the id range into consecutive function bodies of
  // geometric size; record each body's entry block.
  std::vector<NodeId> entries;
  NodeId v = 0;
  while (v < n) {
    const std::size_t body = std::min<std::size_t>(
        n - v, 3 + static_cast<std::size_t>(rng.positive_geometric(0.2)));
    entries.push_back(v);
    for (NodeId u = v; u + 1 < v + body; ++u) {
      g.add_edge(u, u + 1);  // fallthrough chain
      if (u + 2 < v + body && rng.bernoulli(0.3)) {
        g.add_edge(u, u + 2);  // if/else diamond
      }
      if (u > v && rng.bernoulli(0.05)) {
        g.add_edge(u, v + rng.index(u - v + 1));  // loop back edge
      }
    }
    v += body;
  }
  // Call edges: each body is entered from some earlier body (keeps
  // everything reachable from node 0) and, often, calls into one of a
  // few hub bodies — the library-helper shape of real firmware.
  const std::size_t hubs = std::max<std::size_t>(1, entries.size() / 16);
  for (std::size_t b = 1; b < entries.size(); ++b) {
    g.add_edge(entries[rng.index(b)], entries[b]);
    if (rng.bernoulli(0.6)) {
      const NodeId hub = entries[rng.index(hubs)];
      if (hub != entries[b]) g.add_edge(entries[b], hub);
    }
  }
  return g;
}

}  // namespace soteria::graph
