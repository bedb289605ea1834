// The firmware-shaped CFG generator the benches and tests share: a
// directed graph with known invariants (connectivity from node 0,
// small function bodies joined by call edges) that exercises labeling
// and walk code on shapes beyond what the ISA code generator emits.
// Shapes only tests use (random, scale-free, diamond chains, chains,
// trees, complete digraphs) live in tests/graph/shapes.h.
#pragma once

#include <cstddef>

#include "graph/digraph.h"
#include "math/rng.h"

namespace soteria::graph {

/// Firmware-shaped CFG: many small chain-with-branches "function
/// bodies" stitched together by call edges biased toward a handful of
/// hub bodies (memcpy-style helpers), plus occasional intra-body back
/// edges — the sparse-but-hubby shape of stripped firmware CFGs. Every
/// node is reachable from node 0 (the first body's entry).
[[nodiscard]] DiGraph firmware_like_cfg(std::size_t n, math::Rng& rng);

}  // namespace soteria::graph
