// Breadth-first traversal utilities: levels, reachability, shortest-path
// distances. These drive level-based labeling (LBL) and the extractor's
// unreachable-code pruning.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/digraph.h"

namespace soteria::graph {

/// Sentinel for "not reachable" in distance/level arrays.
inline constexpr std::size_t kUnreachable =
    std::numeric_limits<std::size_t>::max();

/// Directed BFS distance (#edges) from `source` to every node;
/// kUnreachable where no path exists. Throws on invalid source.
[[nodiscard]] std::vector<std::size_t> bfs_distances(const DiGraph& g,
                                                     NodeId source);

/// Paper's node level: 1 + (smallest number of steps from the entry),
/// i.e. the entry node has level 1. Unreachable nodes get kUnreachable.
[[nodiscard]] std::vector<std::size_t> node_levels(const DiGraph& g,
                                                   NodeId entry);

/// Nodes reachable from `source` by directed edges (including source).
[[nodiscard]] std::vector<bool> reachable_from(const DiGraph& g,
                                               NodeId source);

}  // namespace soteria::graph
