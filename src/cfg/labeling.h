// Consistent CFG node labeling (paper Section III-B.1).
//
// Soteria assigns each node a label in [0, |V|-1] under two schemes:
//
//  * Density-based (DBL): rank by density (in+out degree over total edge
//    count), densest first; ties broken by centrality factor
//    CF(v) = betweenness + closeness (higher first), then by level
//    (shallower first), then by node id ascending ("symmetric" nodes).
//
//  * Level-based (LBL): rank by level (1 + BFS distance from the entry),
//    shallowest first — so the entry always gets label 0; ties within a
//    level broken like DBL (density, then CF, then id).
//
// Both schemes are strict total orders, so *any* structural modification
// of the graph (e.g. GEA embedding) perturbs the whole label assignment,
// which is what makes the downstream features attack-sensitive.
#pragma once

#include <cstddef>
#include <vector>

#include "cfg/cfg.h"

namespace soteria::cfg {

/// Node label: position in [0, |V|-1].
using Label = std::size_t;

/// Which labeling scheme to apply.
enum class LabelingMethod { kDensity, kLevel };

/// Short scheme name ("DBL" / "LBL") for reports.
[[nodiscard]] const char* method_name(LabelingMethod method) noexcept;

/// Per-node ranking keys, exposed for tests and diagnostics.
struct NodeRank {
  double density = 0.0;
  double centrality_factor = 0.0;
  std::size_t level = 0;  ///< 1-based; kUnreachable if not reachable
};

/// Labeling has no settings: centrality is always exact. This empty
/// tag is the type of features::PipelineConfig::labeling, which
/// label_both and LabelingCache::labels accept and ignore, so callers
/// that pass a pipeline's labeling settings keep compiling.
struct ExactLabeling {};

/// Computes the ranking keys for every node of `cfg` in one fused
/// graph-analytics pass (exact betweenness + closeness from one Brandes
/// pass composed per biconnected block, graph/centrality.h; levels from
/// one BFS).
[[nodiscard]] std::vector<NodeRank> node_ranks(const Cfg& cfg);

/// Orders nodes under `method` given precomputed ranking keys — the
/// sort-only tail of label_nodes, so both labelings can share one
/// node_ranks computation. Throws core::Error{kInvalidArgument} for empty
/// `ranks`.
[[nodiscard]] std::vector<Label> labels_from_ranks(
    const std::vector<NodeRank>& ranks, LabelingMethod method);

/// Labels all nodes under `method`. Returns labels indexed by node id:
/// result[v] is node v's label. Throws core::Error{kInvalidArgument} for an
/// empty CFG. Unreachable nodes (possible only in unpruned CFGs) sort
/// after all reachable ones.
[[nodiscard]] std::vector<Label> label_nodes(const Cfg& cfg,
                                             LabelingMethod method);

/// Both labelings of one CFG.
struct NodeLabelings {
  std::vector<Label> dbl;
  std::vector<Label> lbl;
};

/// Labels all nodes under *both* schemes from one shared node_ranks
/// computation — the graph analytics (centrality + levels) that
/// dominate labeling cost run exactly once. Equivalent to calling
/// label_nodes twice; throws core::Error{kInvalidArgument} for an empty CFG.
[[nodiscard]] NodeLabelings label_both(const Cfg& cfg, ExactLabeling = {});

/// Inverse view: node id holding each label (result[label] = node).
/// Throws core::Error{kInvalidArgument} if any label is out of range or
/// duplicated (a valid labeling is a permutation of [0, |V|-1]).
[[nodiscard]] std::vector<graph::NodeId> nodes_by_label(
    const std::vector<Label>& labels);

}  // namespace soteria::cfg
