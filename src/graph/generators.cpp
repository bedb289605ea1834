#include "graph/generators.h"

#include "soteria/error.h"

namespace soteria::graph {

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
