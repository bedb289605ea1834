#include "cfg/labeling.h"

#include <algorithm>
#include <numeric>

#include "graph/centrality.h"
#include "graph/traversal.h"
#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::cfg {

const char* method_name(LabelingMethod method) noexcept {
  return method == LabelingMethod::kDensity ? "DBL" : "LBL";
}

std::vector<NodeRank> node_ranks(const Cfg& cfg) {
  const auto& g = cfg.graph();
  const std::size_t n = g.node_count();
  std::vector<NodeRank> ranks(n);
  if (n == 0) return ranks;
  const obs::Span span("cfg.label.ranks");

  const auto centrality = graph::centrality_scores(g);
  const auto levels = graph::node_levels(g, cfg.entry());
  const auto edge_count = static_cast<double>(g.edge_count());
  for (graph::NodeId v = 0; v < n; ++v) {
    ranks[v].density =
        edge_count > 0.0
            ? static_cast<double>(g.total_degree(v)) / edge_count
            : 0.0;
    ranks[v].centrality_factor =
        centrality.betweenness[v] + centrality.closeness[v];
    ranks[v].level = levels[v];
  }
  return ranks;
}

std::vector<Label> labels_from_ranks(const std::vector<NodeRank>& ranks,
                                     LabelingMethod method) {
  const std::size_t n = ranks.size();
  if (n == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "labels_from_ranks: empty ranks");
  }

  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});

  // Shared tie-break chain: density desc, CF desc, level asc, id asc.
  const auto density_chain = [&ranks](graph::NodeId a, graph::NodeId b) {
    if (ranks[a].density != ranks[b].density)
      return ranks[a].density > ranks[b].density;
    if (ranks[a].centrality_factor != ranks[b].centrality_factor)
      return ranks[a].centrality_factor > ranks[b].centrality_factor;
    if (ranks[a].level != ranks[b].level)
      return ranks[a].level < ranks[b].level;
    return a < b;
  };

  if (method == LabelingMethod::kDensity) {
    std::sort(order.begin(), order.end(), density_chain);
  } else {
    std::sort(order.begin(), order.end(),
              [&ranks, &density_chain](graph::NodeId a, graph::NodeId b) {
                if (ranks[a].level != ranks[b].level)
                  return ranks[a].level < ranks[b].level;
                return density_chain(a, b);
              });
  }

  std::vector<Label> labels(n);
  for (std::size_t position = 0; position < n; ++position) {
    labels[order[position]] = position;
  }
  return labels;
}

std::vector<Label> label_nodes(const Cfg& cfg, LabelingMethod method) {
  if (cfg.node_count() == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "label_nodes: empty CFG");
  }
  const obs::Span span(method == LabelingMethod::kDensity ? "cfg.label.dbl"
                                                          : "cfg.label.lbl");
  return labels_from_ranks(node_ranks(cfg), method);
}

NodeLabelings label_both(const Cfg& cfg, ExactLabeling) {
  if (cfg.node_count() == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "label_both: empty CFG");
  }
  const auto ranks = node_ranks(cfg);
  NodeLabelings labelings;
  {
    const obs::Span span("cfg.label.dbl");
    labelings.dbl = labels_from_ranks(ranks, LabelingMethod::kDensity);
  }
  {
    const obs::Span span("cfg.label.lbl");
    labelings.lbl = labels_from_ranks(ranks, LabelingMethod::kLevel);
  }
  return labelings;
}

std::vector<graph::NodeId> nodes_by_label(const std::vector<Label>& labels) {
  std::vector<graph::NodeId> inverse(labels.size());
  std::vector<bool> seen(labels.size(), false);
  for (graph::NodeId v = 0; v < labels.size(); ++v) {
    if (labels[v] >= labels.size()) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "nodes_by_label: label out of range");
    }
    if (seen[labels[v]]) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "nodes_by_label: duplicate label " +
                        std::to_string(labels[v]));
    }
    seen[labels[v]] = true;
    inverse[labels[v]] = v;
  }
  return inverse;
}

}  // namespace soteria::cfg
