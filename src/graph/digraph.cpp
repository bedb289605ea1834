#include "graph/digraph.h"

#include <algorithm>
#include <string>

#include "soteria/error.h"

namespace soteria::graph {

void DiGraph::check_node(NodeId v, const char* what) const {
  if (v >= out_.size()) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      std::string(what) + ": node " +
                      std::to_string(v) + " >= node count " +
                      std::to_string(out_.size()));
  }
}

NodeId DiGraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return out_.size() - 1;
}

bool DiGraph::add_edge(NodeId u, NodeId v) {
  check_node(u, "DiGraph::add_edge (source)");
  check_node(v, "DiGraph::add_edge (target)");
  auto& succ = out_[u];
  if (std::find(succ.begin(), succ.end(), v) != succ.end()) return false;
  succ.push_back(v);
  in_[v].push_back(u);
  ++edge_count_;
  return true;
}

bool DiGraph::has_edge(NodeId u, NodeId v) const {
  check_node(u, "DiGraph::has_edge (source)");
  check_node(v, "DiGraph::has_edge (target)");
  const auto& succ = out_[u];
  return std::find(succ.begin(), succ.end(), v) != succ.end();
}

std::span<const NodeId> DiGraph::successors(NodeId v) const {
  check_node(v, "DiGraph::successors");
  return out_[v];
}

std::span<const NodeId> DiGraph::predecessors(NodeId v) const {
  check_node(v, "DiGraph::predecessors");
  return in_[v];
}

std::size_t DiGraph::out_degree(NodeId v) const {
  check_node(v, "DiGraph::out_degree");
  return out_[v].size();
}

std::size_t DiGraph::in_degree(NodeId v) const {
  check_node(v, "DiGraph::in_degree");
  return in_[v].size();
}

std::size_t DiGraph::total_degree(NodeId v) const {
  return in_degree(v) + out_degree(v);
}

std::vector<NodeId> DiGraph::undirected_neighbors(NodeId v) const {
  check_node(v, "DiGraph::undirected_neighbors");
  std::vector<NodeId> nbrs(out_[v]);
  nbrs.insert(nbrs.end(), in_[v].begin(), in_[v].end());
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  return nbrs;
}

std::vector<std::pair<NodeId, NodeId>> DiGraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> all;
  all.reserve(edge_count_);
  for (NodeId u = 0; u < out_.size(); ++u)
    for (NodeId v : out_[u]) all.emplace_back(u, v);
  return all;
}

NodeId DiGraph::merge_disjoint(const DiGraph& other) {
  const NodeId offset = out_.size();
  out_.reserve(offset + other.node_count());
  in_.reserve(offset + other.node_count());
  for (NodeId v = 0; v < other.node_count(); ++v) {
    out_.emplace_back();
    in_.emplace_back();
    out_.back().reserve(other.out_[v].size());
    for (NodeId w : other.out_[v]) out_.back().push_back(w + offset);
    in_.back().reserve(other.in_[v].size());
    for (NodeId w : other.in_[v]) in_.back().push_back(w + offset);
  }
  edge_count_ += other.edge_count_;
  return offset;
}

}  // namespace soteria::graph
