// Control-flow graph type.
//
// A `Cfg` is a directed graph over basic blocks plus a designated entry
// block. Blocks carry optional instruction-range metadata when the CFG
// came from a binary; CFGs produced by graph-level transforms (GEA) have
// synthetic blocks with zero instruction count.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace soteria::cfg {

/// Metadata for one basic block: a half-open instruction index range
/// into the disassembled image it was extracted from.
struct BasicBlock {
  std::size_t first_instruction = 0;
  std::size_t instruction_count = 0;
};

/// A control-flow graph: directed block graph + entry block.
class Cfg {
 public:
  Cfg() = default;

  /// Builds a CFG over `graph` with entry block `entry`. Throws
  /// core::Error{kInvalidArgument} if entry is out of range (unless the graph
  /// is empty) or if `blocks` is non-empty but mismatched in size.
  Cfg(graph::DiGraph graph, graph::NodeId entry,
      std::vector<BasicBlock> blocks = {});

  [[nodiscard]] const graph::DiGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] graph::NodeId entry() const noexcept { return entry_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return graph_.node_count();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return graph_.edge_count();
  }

  /// Block metadata; empty for synthetic CFGs.
  [[nodiscard]] const std::vector<BasicBlock>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] bool has_block_metadata() const noexcept {
    return !blocks_.empty();
  }

  /// Blocks with no successors (program exits: ret-to-caller at top
  /// level, halt, or dead ends).
  [[nodiscard]] std::vector<graph::NodeId> exit_nodes() const;

 private:
  graph::DiGraph graph_;
  graph::NodeId entry_ = 0;
  std::vector<BasicBlock> blocks_;
};

}  // namespace soteria::cfg
