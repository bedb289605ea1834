// Betweenness and closeness centrality, fused into one exact Brandes
// pass composed per biconnected block.
//
// Soteria's labeling breaks density ties with the *centrality factor*
// CF(v) = betweenness(v) + closeness(v) (paper, Section III-B.1). We
// compute both over the undirected view of the CFG: a CFG is weakly
// connected from its entry, so the undirected view gives every node a
// finite closeness and makes the tie-break total.
//
// The pass is composed per biconnected block (Brandes 2001; the same
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
// another.
//
// Parallelism and determinism: the sources of each block-cut tree
// level are cut into fixed-size chunks (a function of the source count
// alone) that runtime::ThreadPool runners claim dynamically; each chunk
// accumulates into its own partial, and partials fold into the totals
// in chunk order, serially exactly as in parallel. So results are
// bit-identical at every thread count, always — including graphs whose
// path counts pass 2^53, where the sums round. Every accumulator (path
// counts, dependency counts, pair totals, distance sums) holds integers
// until the final normalizing divisions, so while path totals stay
// below 2^53 the sums are exact and the pass equals the naive
// whole-graph formulation bit for bit; beyond that only thread
// invariance holds. The naive two-sweep reference lives on as
// `tests/graph/naive_centrality.h` with property tests pinning exact
// agreement.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace soteria::graph {

/// Both centrality vectors from one fused pass.
struct CentralityScores {
  std::vector<double> betweenness;
  std::vector<double> closeness;
};

/// Fused computation of betweenness and closeness over the undirected
/// view, composed per biconnected block (see the header comment).
/// `num_threads` follows the runtime convention (0 = all hardware
/// threads, 1 = serial); results are bit-identical at any setting, even
/// where path counts pass 2^53.
[[nodiscard]] CentralityScores centrality_scores(const DiGraph& g,
                                                 std::size_t num_threads = 1);

}  // namespace soteria::graph
