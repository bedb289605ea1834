#include "features/random_walk.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::features {

UndirectedView::UndirectedView(const cfg::Cfg& cfg) : entry_(cfg.entry()) {
  if (cfg.node_count() == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "UndirectedView: empty CFG");
  }
  const graph::DiGraph& g = cfg.graph();
  const std::size_t n = cfg.node_count();
  std::size_t capacity = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    capacity += g.successors(v).size() + g.predecessors(v).size();
  }
  offsets_.resize(n + 1);
  neighbors_.resize(capacity);
  // Each row is written in place (successors, then predecessors),
  // sorted and deduplicated: DiGraph::undirected_neighbors without
  // its per-node vector.
  std::size_t end = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    offsets_[v] = end;
    const auto row = neighbors_.begin() + static_cast<std::ptrdiff_t>(end);
    auto tail = std::copy(g.successors(v).begin(), g.successors(v).end(), row);
    tail = std::copy(g.predecessors(v).begin(), g.predecessors(v).end(), tail);
    std::sort(row, tail);
    end = static_cast<std::size_t>(std::unique(row, tail) - neighbors_.begin());
  }
  offsets_[n] = end;
  neighbors_.resize(end);
}

void validate(const WalkConfig& config) {
  if (!(config.length_multiplier > 0.0)) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "WalkConfig: length_multiplier must be positive");
  }
  if (config.walks_per_labeling == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "WalkConfig: walks_per_labeling must be positive");
  }
}

std::vector<graph::NodeId> random_walk_nodes(const UndirectedView& view,
                                             std::size_t steps,
                                             math::Rng& rng) {
  std::vector<graph::NodeId> trace;
  trace.reserve(steps + 1);
  graph::NodeId current = view.entry();
  trace.push_back(current);
  for (std::size_t i = 0; i < steps; ++i) {
    current = view.step(current, rng);
    trace.push_back(current);
  }
  return trace;
}

std::size_t walk_steps(const WalkConfig& config, std::size_t node_count) {
  return static_cast<std::size_t>(std::llround(
      config.length_multiplier * static_cast<double>(node_count)));
}

std::vector<cfg::Label> apply_labels(
    const std::vector<graph::NodeId>& nodes,
    const std::vector<cfg::Label>& labels) {
  std::vector<cfg::Label> out;
  out.reserve(nodes.size());
  for (graph::NodeId v : nodes) {
    if (v >= labels.size()) {
      throw core::Error(core::ErrorCode::kOutOfRange,
                        "apply_labels: node id beyond label table");
    }
    out.push_back(labels[v]);
  }
  return out;
}

std::vector<std::vector<cfg::Label>> labeled_walks(
    const cfg::Cfg& cfg, const std::vector<cfg::Label>& labels,
    const WalkConfig& config, math::Rng& rng) {
  validate(config);
  const obs::Span span("features.walks");
  const UndirectedView view(cfg);
  const std::size_t steps = walk_steps(config, cfg.node_count());
  obs::registry().counter_add("soteria.features.walks",
                              config.walks_per_labeling);
  obs::registry().counter_add("soteria.features.walk_steps",
                              config.walks_per_labeling * steps);
  std::vector<std::vector<cfg::Label>> walks(config.walks_per_labeling);
  for (auto& walk : walks) {
    walk = apply_labels(random_walk_nodes(view, steps, rng), labels);
  }
  return walks;
}

}  // namespace soteria::features
