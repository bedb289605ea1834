// Graph generators for benchmarks and tests.
//
// These produce structured directed graphs with known invariants
// (connectivity from node 0, bounded degree) so benchmarks and
// property tests can exercise labeling/walk code on shapes beyond
// what the ISA code generator emits. Fixed test-only shapes (chains,
// trees, complete digraphs) live in tests/graph/shapes.h.
#pragma once

#include <cstddef>

#include "graph/digraph.h"
#include "math/rng.h"

namespace soteria::graph {

/// Erdos-Renyi-style G(n, p) digraph (no self loops). Node 0 is wired to
/// be an entry: every node is made reachable from 0 by adding a spanning
/// arborescence first.
[[nodiscard]] DiGraph random_connected_dag_plus(std::size_t n, double p,
                                                math::Rng& rng);

/// `count` if/else diamonds in a row (3 * count + 1 nodes): each
/// diamond is a 4-cycle in the undirected view, joined to the next at a
/// cut vertex, and node 0 reaches node 3 * count along 2^count shortest
/// paths — the shape that drives path counts past 2^53.
[[nodiscard]] DiGraph diamond_chain(std::size_t count);

/// Barabasi-Albert-style scale-free digraph: nodes arrive one at a
/// time and wire up to `edges_per_node` out-edges to earlier nodes
/// drawn proportionally to current degree (preferential attachment),
/// so a few early hubs collect most of the edges — the heavy-tailed
/// degree profile of call-heavy CFG regions. Connected in the
/// undirected view by construction.
[[nodiscard]] DiGraph scale_free_digraph(std::size_t n,
                                         std::size_t edges_per_node,
                                         math::Rng& rng);

/// Firmware-shaped CFG: many small chain-with-branches "function
/// bodies" stitched together by call edges biased toward a handful of
/// hub bodies (memcpy-style helpers), plus occasional intra-body back
/// edges — the sparse-but-hubby shape of stripped firmware CFGs. Every
/// node is reachable from node 0 (the first body's entry).
[[nodiscard]] DiGraph firmware_like_cfg(std::size_t n, math::Rng& rng);

}  // namespace soteria::graph
