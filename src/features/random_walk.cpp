#include "features/random_walk.h"

#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace soteria::features {

UndirectedView::UndirectedView(const cfg::Cfg& cfg) : entry_(cfg.entry()) {
  if (cfg.node_count() == 0) {
    throw std::invalid_argument("UndirectedView: empty CFG");
  }
  adjacency_.resize(cfg.node_count());
  for (graph::NodeId v = 0; v < cfg.node_count(); ++v) {
    adjacency_[v] = cfg.graph().undirected_neighbors(v);
  }
}

void validate(const WalkConfig& config) {
  if (!(config.length_multiplier > 0.0)) {
    throw std::invalid_argument(
        "WalkConfig: length_multiplier must be positive");
  }
  if (config.walks_per_labeling == 0) {
    throw std::invalid_argument(
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
    const auto& nbrs = view.neighbors(current);
    if (!nbrs.empty()) {
      current = nbrs[rng.index(nbrs.size())];
    }
    trace.push_back(current);
  }
  return trace;
}

void random_walk_labels(const UndirectedView& view,
                        const std::vector<cfg::Label>& labels,
                        std::size_t steps, math::Rng& rng,
                        std::vector<cfg::Label>& out) {
  out.clear();
  out.reserve(steps + 1);
  graph::NodeId current = view.entry();
  for (std::size_t i = 0;; ++i) {
    if (current >= labels.size()) {
      throw std::out_of_range(
          "random_walk_labels: node id beyond label table");
    }
    out.push_back(labels[current]);
    if (i == steps) return;
    const auto& nbrs = view.neighbors(current);
    if (!nbrs.empty()) {
      current = nbrs[rng.index(nbrs.size())];
    }
  }
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
      throw std::out_of_range("apply_labels: node id beyond label table");
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
    random_walk_labels(view, labels, steps, rng, walk);
  }
  return walks;
}

}  // namespace soteria::features
