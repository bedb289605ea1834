// Directed graph with adjacency lists; the backbone of every CFG.
//
// Nodes are dense indices [0, node_count). Parallel edges are rejected
// (a CFG has at most one edge between two blocks); self-loops are
// allowed (tight single-block loops exist in real firmware).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace soteria::graph {

/// Node identifier: dense index into the graph's node array.
using NodeId = std::size_t;

/// Directed graph over dense node ids with O(1) amortized edge insert
/// and O(deg) adjacency iteration.
class DiGraph {
 public:
  DiGraph() = default;

  /// Graph with `n` isolated nodes.
  explicit DiGraph(std::size_t n) : out_(n), in_(n) {}

  [[nodiscard]] std::size_t node_count() const noexcept {
    return out_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_count_;
  }
  [[nodiscard]] bool empty() const noexcept { return out_.empty(); }

  /// Appends a new isolated node and returns its id.
  NodeId add_node();

  /// Adds edge u -> v. Throws core::Error{kOutOfRange} for invalid endpoints.
  /// Returns false (and changes nothing) if the edge already exists.
  bool add_edge(NodeId u, NodeId v);

  /// True if edge u -> v exists. Throws on invalid endpoints.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Successors / predecessors of `v`. Throw on invalid node.
  [[nodiscard]] std::span<const NodeId> successors(NodeId v) const;
  [[nodiscard]] std::span<const NodeId> predecessors(NodeId v) const;

  [[nodiscard]] std::size_t out_degree(NodeId v) const;
  [[nodiscard]] std::size_t in_degree(NodeId v) const;

  /// in_degree + out_degree (self-loops count twice, once per direction).
  [[nodiscard]] std::size_t total_degree(NodeId v) const;

  /// Neighbours in the undirected view of the graph, deduplicated and
  /// sorted. A node u appears once even if both u->v and v->u exist.
  [[nodiscard]] std::vector<NodeId> undirected_neighbors(NodeId v) const;

  /// All edges as (u, v) pairs, ordered by source then insertion.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Disjoint union: appends `other`, returning the id offset its nodes
  /// received (other's node k becomes offset + k).
  NodeId merge_disjoint(const DiGraph& other);

 private:
  void check_node(NodeId v, const char* what) const;

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::size_t edge_count_ = 0;
};

}  // namespace soteria::graph
