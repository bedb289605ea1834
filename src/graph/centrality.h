// Betweenness and closeness centrality, fused into one Brandes pass —
// exact or sampled-pivot approximate.
//
// Soteria's labeling breaks density ties with the *centrality factor*
// CF(v) = betweenness(v) + closeness(v) (paper, Section III-B.1). We
// compute both over the undirected view of the CFG: a CFG is weakly
// connected from its entry, so the undirected view gives every node a
// finite closeness and makes the tie-break total.
//
// Exact path, composed per biconnected block (Brandes 2001; the same
// decomposition as Puzis et al. 2012 and Sariyuce et al. 2013). Every
// shortest path between two vertices of one block stays inside it, and
// a path between blocks crosses the cut vertices that join them, so
// exact betweenness and closeness compose block by block at a cost of
// sum |B| * |E_B| instead of n * m. Firmware CFGs attach each function
// body to the rest only through its entry block, so they split into
// many small blocks. An iterative Hopcroft-Tarjan pass (self-loops
// dropped) splits the undirected view into blocks, each with a local
// CSR, and roots every component's block-cut tree. For every (block B,
// vertex x of B) three integer aggregates describe the region hanging
// off x away from B: the shortest paths into x from it (x counts 1),
// its size, and its distance sum to x. A post-order BFS per block and
// the sweeps themselves, run level by level from the roots, fill them
// in. One Brandes sweep per (block, source) over the block CSR then
// weights each target by its region: the dependencies count the
// through-paths of B's vertices, and the sweep's region sums give the
// pair-path normalizer and both closeness sums. A cut vertex also
// carries the paths that enter it through one block and leave through
// another. The sweep kernel is one: the whole-graph CSR with unit
// weights is the approximate path's sweep.
//
// Approximate path (opt-in, for large graphs that one giant block
// spans, where exact still costs a sweep per node over the whole
// graph): Brandes sweeps run only from a sample of r pivot sources,
// and both metrics are estimated from those sweeps — betweenness as
// the ratio of pivot-accumulated through-paths to pivot-accumulated
// pair paths (the n/r scale factors cancel), closeness per node from
// the pivot distances the sweeps produce anyway (undirected BFS
// distances are symmetric). The pivot count follows the
// Hoeffding/union-bound form of the Riondato-style additive-error
// guarantee: r >= ln(2n/delta) / (2 epsilon^2) pivots bound the
// normalized-betweenness error by epsilon for every node
// simultaneously with probability 1 - delta.
// Pivots are drawn from a fixed-seed generator hashed through
// *structural node signatures* (Weisfeiler-Leman-style refinement of
// degrees over the undirected view), so the sample is a deterministic
// pure function of (graph content, seed): reproducible across runs and
// thread counts, and equivariant under node-id permutation whenever
// the signatures separate the nodes — the property the labeling
// permutation suite relies on.
//
// Parallelism and determinism: both paths cut their sources into
// fixed-size chunks (a function of the source count alone) that
// runtime::ThreadPool runners claim dynamically; each chunk accumulates
// into its own partial, and partials fold into the totals in chunk
// order, serially exactly as in parallel. So results are bit-identical
// at every thread count, always — including graphs whose path counts
// pass 2^53, where the sums round. Every accumulator (path counts,
// dependency counts, pair totals, distance sums) holds integers until
// the final normalizing divisions, so while path totals stay below 2^53
// the sums are exact and the exact path equals the naive whole-graph
// formulation bit for bit; beyond that only thread invariance holds.
// The naive two-sweep reference lives on as
// `tests/graph/naive_centrality.h` with property tests pinning exact
// agreement; `tests/graph/rank_stability_test.cpp` pins the approximate
// path's rank-level agreement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"

namespace soteria::graph {

/// Both centrality vectors from one fused pass.
struct CentralityScores {
  std::vector<double> betweenness;
  std::vector<double> closeness;
};

/// Parameters of the sampled-pivot approximation.
struct ApproxCentralityOptions {
  /// Explicit number of pivot sources; 0 (default) derives the count
  /// from (epsilon, delta) via riondato_pivot_count. Counts >= the
  /// node count run the exact path (which the estimator then equals
  /// bit for bit).
  std::size_t pivot_count = 0;

  /// Additive error target on the normalized betweenness scores.
  double epsilon = 0.1;

  /// Failure probability of the epsilon bound (union over all nodes).
  double delta = 0.01;

  /// Seed of the pivot draw. Same (graph, seed) => same pivots, same
  /// scores, at any thread count; different seeds draw independent
  /// samples.
  std::uint64_t seed = 0x536f7465;  // "Sote"

  [[nodiscard]] bool operator==(const ApproxCentralityOptions&) const =
      default;
};

/// Throws std::invalid_argument for epsilon/delta outside (0, 1).
void validate(const ApproxCentralityOptions& options);

/// Pivot count guaranteeing additive error <= epsilon on every node's
/// normalized betweenness with probability >= 1 - delta (Hoeffding +
/// union bound): ceil(ln(2 * nodes / delta) / (2 * epsilon^2)).
[[nodiscard]] std::size_t riondato_pivot_count(std::size_t nodes,
                                               double epsilon,
                                               double delta);

/// Inverse of riondato_pivot_count: the additive error bound that
/// `pivots` samples buy on an n-node graph at failure probability
/// delta — sqrt(ln(2 * nodes / delta) / (2 * pivots)).
[[nodiscard]] double approx_error_bound(std::size_t nodes,
                                        std::size_t pivots, double delta);

/// The number of pivot sweeps an approximate run on an n-node graph
/// will perform: pivot_count when set, else
/// riondato_pivot_count(nodes, epsilon, delta), capped at nodes.
/// When this returns `nodes`, the approximate path IS the exact path.
[[nodiscard]] std::size_t resolved_pivot_count(
    std::size_t nodes, const ApproxCentralityOptions& options);

/// Per-call knobs of centrality_scores / centrality_factor.
struct CentralityOptions {
  /// Worker threads, runtime convention (0 = all hardware threads,
  /// 1 = serial). Results are bit-identical at any setting, even where
  /// path counts pass 2^53.
  std::size_t num_threads = 1;

  /// Run the sampled-pivot approximation instead of the exact sweep.
  bool approximate = false;

  /// Approximation parameters (ignored unless `approximate`).
  ApproxCentralityOptions approx;
};

/// Fused computation of betweenness and closeness over the undirected
/// view — exact (composed per biconnected block), or the sampled-pivot
/// estimate when `options.approximate` (see the header comment for both
/// designs).
[[nodiscard]] CentralityScores centrality_scores(
    const DiGraph& g, const CentralityOptions& options);

/// Exact fused pass at a given thread count (historical signature).
[[nodiscard]] CentralityScores centrality_scores(const DiGraph& g,
                                                 std::size_t num_threads = 1);

/// Normalized betweenness centrality over the undirected view:
/// B(v) = (# shortest paths through v) / (total # shortest paths between
/// distinct pairs), matching the paper's Delta(v)/Delta(m) definition.
/// Returns one value per node; all zeros for graphs with < 3 nodes.
[[nodiscard]] std::vector<double> betweenness_centrality(const DiGraph& g);

/// Closeness centrality over the undirected view:
/// C(v) = (reachable_count) / (sum of distances to reachable nodes),
/// 0 for isolated nodes. Higher = more central (the reciprocal of the
/// paper's "average shortest path" phrasing, oriented so that larger CF
/// means more central, as the paper's labeling examples require).
[[nodiscard]] std::vector<double> closeness_centrality(const DiGraph& g);

/// CF(v) = betweenness(v) + closeness(v), from one fused pass.
[[nodiscard]] std::vector<double> centrality_factor(
    const DiGraph& g, std::size_t num_threads = 1);

/// CF(v) under the full option set (exact or approximate).
[[nodiscard]] std::vector<double> centrality_factor(
    const DiGraph& g, const CentralityOptions& options);

/// The structural signature each node carries into the pivot draw:
/// a fixed number of Weisfeiler-Leman refinement rounds over the
/// undirected view, folded with `seed`. Exposed for tests and
/// diagnostics — when all values are distinct, the pivot sample (and
/// therefore every approximate score) is exactly equivariant under
/// node-id permutation.
[[nodiscard]] std::vector<std::uint64_t> pivot_priorities(
    const DiGraph& g, std::uint64_t seed);

/// The pivot sources an approximate run would sweep from (the
/// resolved_pivot_count nodes with the smallest priorities, ties by
/// node id), in ascending node-id order. Exposed for tests.
[[nodiscard]] std::vector<NodeId> pivot_nodes(
    const DiGraph& g, const ApproxCentralityOptions& options);

}  // namespace soteria::graph
