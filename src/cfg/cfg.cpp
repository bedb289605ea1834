#include "cfg/cfg.h"

#include <string>

#include "soteria/error.h"

namespace soteria::cfg {

Cfg::Cfg(graph::DiGraph graph, graph::NodeId entry,
         std::vector<BasicBlock> blocks)
    : graph_(std::move(graph)), entry_(entry), blocks_(std::move(blocks)) {
  if (!graph_.empty() && entry_ >= graph_.node_count()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Cfg: entry " + std::to_string(entry_) +
                      " out of range for " +
                      std::to_string(graph_.node_count()) +
                      " nodes");
  }
  if (!blocks_.empty() && blocks_.size() != graph_.node_count()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Cfg: block metadata count " +
                          std::to_string(blocks_.size()) + " != node count " +
                          std::to_string(graph_.node_count()));
  }
}

std::vector<graph::NodeId> Cfg::exit_nodes() const {
  std::vector<graph::NodeId> exits;
  for (graph::NodeId v = 0; v < graph_.node_count(); ++v) {
    if (graph_.out_degree(v) == 0) exits.push_back(v);
  }
  return exits;
}

}  // namespace soteria::cfg
