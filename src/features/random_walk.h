// Random-walk traversal over labeled CFGs (paper Section III-B.2).
//
// A marker starts at the entry block and repeatedly moves to a uniformly
// random neighbour in the *undirected* view of the graph (probability
// 1/deg(v)), recording the label of every visited node. Soteria uses
// walks of length 5·|V| and repeats each walk ten times per labeling,
// which is the randomization that prevents an adversary from predicting
// the classifier's feature vector.
#pragma once

#include <cstddef>
#include <vector>

#include "cfg/cfg.h"
#include "cfg/labeling.h"
#include "math/rng.h"

namespace soteria::features {

/// Immutable undirected adjacency snapshot of a CFG, built once and
/// shared by all walks over that graph.
class UndirectedView {
 public:
  /// Throws std::invalid_argument for an empty CFG.
  explicit UndirectedView(const cfg::Cfg& cfg);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] graph::NodeId entry() const noexcept { return entry_; }
  [[nodiscard]] const std::vector<graph::NodeId>& neighbors(
      graph::NodeId v) const {
    return adjacency_.at(v);
  }

 private:
  std::vector<std::vector<graph::NodeId>> adjacency_;
  graph::NodeId entry_;
};

/// Walk parameters.
struct WalkConfig {
  /// |W| = multiplier * |V| steps (the paper uses 5).
  double length_multiplier = 5.0;
  /// Walks per labeling method (the paper uses 10).
  std::size_t walks_per_labeling = 10;
};

/// Throws std::invalid_argument on non-positive multiplier or zero walk
/// count.
void validate(const WalkConfig& config);

/// One random walk of `steps` steps from the entry; returns the visited
/// *node* sequence of length steps+1. A node with no neighbours (only
/// possible for a single-block CFG) repeats in place so walk lengths
/// stay uniform.
[[nodiscard]] std::vector<graph::NodeId> random_walk_nodes(
    const UndirectedView& view, std::size_t steps, math::Rng& rng);

/// Steps per walk over a CFG of `node_count` blocks:
/// length_multiplier * |V|, rounded to nearest.
[[nodiscard]] std::size_t walk_steps(const WalkConfig& config,
                                     std::size_t node_count);

/// One random walk of `steps` steps from the entry, written to `out`
/// (overwritten) as the labels of the steps+1 visited nodes. Draws from
/// `rng` exactly like random_walk_nodes and fails like apply_labels
/// (std::out_of_range) when a visited node has no label.
void random_walk_labels(const UndirectedView& view,
                        const std::vector<cfg::Label>& labels,
                        std::size_t steps, math::Rng& rng,
                        std::vector<cfg::Label>& out);

/// Maps a node sequence through a label assignment.
[[nodiscard]] std::vector<cfg::Label> apply_labels(
    const std::vector<graph::NodeId>& nodes,
    const std::vector<cfg::Label>& labels);

/// Full per-labeling walk bundle: `walks_per_labeling` label traces of
/// length multiplier*|V| + 1 each.
[[nodiscard]] std::vector<std::vector<cfg::Label>> labeled_walks(
    const cfg::Cfg& cfg, const std::vector<cfg::Label>& labels,
    const WalkConfig& config, math::Rng& rng);

}  // namespace soteria::features
