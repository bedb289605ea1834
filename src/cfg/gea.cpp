#include "cfg/gea.h"

#include "graph/traversal.h"
#include "soteria/error.h"

namespace soteria::cfg {

namespace {

/// Exit nodes of `c`, falling back to the deepest reachable node when
/// the sub-CFG has none (everything loops).
std::vector<graph::NodeId> exits_or_deepest(const Cfg& c) {
  auto exits = c.exit_nodes();
  if (!exits.empty()) return exits;
  const auto dist = graph::bfs_distances(c.graph(), c.entry());
  graph::NodeId deepest = c.entry();
  std::size_t best = 0;
  for (graph::NodeId v = 0; v < dist.size(); ++v) {
    if (dist[v] != graph::kUnreachable && dist[v] >= best) {
      best = dist[v];
      deepest = v;
    }
  }
  return {deepest};
}

/// Joins the exits of `c`, merged into `g` at `offset`, to `exit`.
void join_exits(graph::DiGraph& g, const Cfg& c, graph::NodeId offset,
                graph::NodeId exit) {
  for (graph::NodeId v : exits_or_deepest(c)) g.add_edge(offset + v, exit);
}

void require_nonempty(const Cfg& c, const char* what) {
  if (c.node_count() == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string("gea: empty ") + what + " CFG");
  }
}

}  // namespace

const char* insertion_point_name(InsertionPoint p) noexcept {
  switch (p) {
    case InsertionPoint::kEntryGuard: return "entry";
    case InsertionPoint::kMidBlock: return "mid";
  }
  return "unknown";
}

GeaResult gea_chain(const Cfg& original, std::span<const Cfg> targets) {
  require_nonempty(original, "original");
  if (targets.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "gea_chain: no targets");
  }
  for (const Cfg& t : targets) require_nonempty(t, "target");

  graph::DiGraph g;
  GeaResult result;
  result.guards.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    result.guards.push_back(g.add_node());
  }
  result.original_offset = g.merge_disjoint(original.graph());
  result.target_offsets.reserve(targets.size());
  for (const Cfg& t : targets) {
    result.target_offsets.push_back(g.merge_disjoint(t.graph()));
  }
  result.shared_exit = g.add_node();

  // Guard chain: guard i falls through to the next guard (or, after the
  // last one, into the original) and branches into target i.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const graph::NodeId next =
        i + 1 < targets.size()
            ? result.guards[i + 1]
            : result.original_offset + original.entry();
    g.add_edge(result.guards[i], next);
    g.add_edge(result.guards[i],
               result.target_offsets[i] + targets[i].entry());
  }
  join_exits(g, original, result.original_offset, result.shared_exit);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    join_exits(g, targets[i], result.target_offsets[i], result.shared_exit);
  }

  result.combined = Cfg(std::move(g), result.guards.front());
  return result;
}

GeaResult gea_combine(const Cfg& original, const Cfg& target) {
  return gea_chain(original, std::span(&target, 1));
}

GeaResult gea_attach(const Cfg& original, const Cfg& target,
                     graph::NodeId anchor) {
  require_nonempty(original, "original");
  require_nonempty(target, "target");
  if (anchor >= original.node_count()) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "gea_attach: anchor " + std::to_string(anchor) +
                          " out of range for an original of " +
                          std::to_string(original.node_count()) + " nodes");
  }

  graph::DiGraph g;
  GeaResult result;
  result.original_offset = g.merge_disjoint(original.graph());
  result.target_offsets = {g.merge_disjoint(target.graph())};
  result.shared_exit = g.add_node();

  g.add_edge(result.original_offset + anchor,
             result.target_offsets[0] + target.entry());
  join_exits(g, original, result.original_offset, result.shared_exit);
  join_exits(g, target, result.target_offsets[0], result.shared_exit);

  result.combined =
      Cfg(std::move(g), result.original_offset + original.entry());
  return result;
}

}  // namespace soteria::cfg
