// Random-walk traversal over labeled CFGs (paper Section III-B.2).
//
// A marker starts at the entry block and repeatedly moves to a uniformly
// random neighbour in the *undirected* view of the graph (probability
// 1/deg(v)), recording the label of every visited node. Soteria uses
// walks of length 5·|V| and repeats each walk ten times per labeling,
// which is the randomization that prevents an adversary from predicting
// the classifier's feature vector.
//
// The undirected view is CSR (row offsets plus one flat neighbour
// array) and step() is the one walk step: fit's labeled_walks and
// FeaturePipeline::extract, which feeds each visited node straight into
// the vocabulary automaton without materializing a label trace, both
// walk through it, so they draw from the rng identically.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cfg/cfg.h"
#include "cfg/labeling.h"
#include "math/rng.h"

namespace soteria::features {

/// Undirected adjacency snapshot of a CFG in CSR form, built once and
/// shared by all walks over that graph. Row v lists the neighbours in
/// DiGraph::undirected_neighbors order (sorted, deduplicated).
class UndirectedView {
 public:
  /// Builds the two arrays in place, with no per-node allocation.
  /// Throws core::Error{kInvalidArgument} for an empty CFG.
  explicit UndirectedView(const cfg::Cfg& cfg);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.size() - 1;
  }
  [[nodiscard]] graph::NodeId entry() const noexcept { return entry_; }
  [[nodiscard]] std::span<const graph::NodeId> neighbors(
      graph::NodeId v) const noexcept {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// One walk step from `v`: a uniformly drawn neighbour (one
  /// rng.index(degree) draw), or `v` itself without a draw when it has
  /// no neighbours (only possible for a single-block CFG).
  [[nodiscard]] graph::NodeId step(graph::NodeId v,
                                   math::Rng& rng) const {
    const std::size_t begin = offsets_[v];
    const std::size_t degree = offsets_[v + 1] - begin;
    return degree == 0 ? v : neighbors_[begin + rng.index(degree)];
  }

 private:
  std::vector<std::size_t> offsets_;  // node_count() + 1 row starts
  std::vector<graph::NodeId> neighbors_;
  graph::NodeId entry_;
};

/// Walk parameters.
struct WalkConfig {
  /// |W| = multiplier * |V| steps (the paper uses 5).
  double length_multiplier = 5.0;
  /// Walks per labeling method (the paper uses 10).
  std::size_t walks_per_labeling = 10;
};

/// Throws core::Error{kInvalidArgument} on non-positive multiplier or zero walk
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

/// Maps a node sequence through a label assignment.
[[nodiscard]] std::vector<cfg::Label> apply_labels(
    const std::vector<graph::NodeId>& nodes,
    const std::vector<cfg::Label>& labels);

/// Full per-labeling walk bundle: `walks_per_labeling` label traces of
/// length multiplier*|V| + 1 each. Throws core::Error{kOutOfRange} when a
/// visited node has no label.
[[nodiscard]] std::vector<std::vector<cfg::Label>> labeled_walks(
    const cfg::Cfg& cfg, const std::vector<cfg::Label>& labels,
    const WalkConfig& config, math::Rng& rng);

}  // namespace soteria::features
