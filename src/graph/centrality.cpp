#include "graph/centrality.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "runtime/thread_pool.h"

namespace soteria::graph {

namespace {

// Sources per work unit. Runners claim chunks through the region's
// atomic cursor, so a runner that drew cheap sources goes back for
// more instead of idling behind a fixed partition.
constexpr std::size_t kSourceChunk = 16;

// Most chunks one source set is cut into: larger sets get larger
// chunks instead, which bounds the per-chunk partial buffers of a
// parallel run at kMaxChunks rows.
constexpr std::size_t kMaxChunks = 64;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// Sources per chunk for a set of `sources` sources. A function of the
// set size alone, never of the thread count: the chunking fixes the
// association of every cross-source sum.
[[nodiscard]] std::size_t chunk_size(std::size_t sources) {
  return std::max(kSourceChunk, (sources + kMaxChunks - 1) / kMaxChunks);
}

// Read-only CSR adjacency: the row of node v is
// neighbors[offsets[v], offsets[v + 1]).
struct CsrView {
  const std::size_t* offsets;
  const NodeId* neighbors;

  [[nodiscard]] std::span<const NodeId> row(NodeId v) const noexcept {
    return {neighbors + offsets[v], offsets[v + 1] - offsets[v]};
  }
};

// CSR snapshot of the undirected view: one flat neighbor array plus
// per-node offsets, with each row sorted and deduplicated exactly like
// DiGraph::undirected_neighbors (so a self-loop keeps its node in its
// own row). One allocation pair instead of a vector-of-vectors; the
// block decomposition walks it once.
struct UndirectedCsr {
  std::vector<std::size_t> offsets;  // node_count + 1
  std::vector<NodeId> neighbors;

  explicit UndirectedCsr(const DiGraph& g) {
    const std::size_t n = g.node_count();
    offsets.assign(n + 1, 0);
    neighbors.reserve(2 * g.edge_count());
    std::vector<NodeId> row;
    for (NodeId v = 0; v < n; ++v) {
      const auto succ = g.successors(v);
      const auto pred = g.predecessors(v);
      row.assign(succ.begin(), succ.end());
      row.insert(row.end(), pred.begin(), pred.end());
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      neighbors.insert(neighbors.end(), row.begin(), row.end());
      offsets[v + 1] = neighbors.size();
    }
  }
};

// Flat per-source scratch, reused across sources (one instance per
// runner in parallel runs). `order` doubles as the BFS FIFO: a head
// cursor walks it while discovery appends, so dequeue order equals
// append order and no separate queue is needed.
struct FusedScratch {
  std::vector<double> sigma;       // # shortest paths from the source
  std::vector<double> delta;       // weighted continuation counts
  std::vector<std::int64_t> dist;  // BFS distance, -1 = unseen
  std::vector<NodeId> order;       // nodes in non-decreasing distance

  explicit FusedScratch(std::size_t n) : sigma(n), delta(n), dist(n) {
    order.reserve(n);
  }
};

// Forward half of a sweep over the first `n` nodes of `csr`: BFS from
// `s` fills sigma / dist / order. Returns sum over reached t != s of
// sigma[t] * weights[t] — the shortest paths from s to every endpoint
// the targets stand for.
//
// Both sweep halves are out of line and 64-byte aligned, which also
// aligns this file's code section: their short inner loops then sit at
// the same cache-line offsets in every binary that links them. Left to
// the linker's 16-byte placement, the same object code measured up to
// 1.7x apart on 32-node graphs between two binaries.
[[gnu::noinline, gnu::aligned(64)]] double count_shortest_paths(
    CsrView csr, std::size_t n, NodeId s, std::span<const double> weights,
    FusedScratch& scratch) {
  auto& sigma = scratch.sigma;
  auto& dist = scratch.dist;
  auto& order = scratch.order;
  std::fill_n(sigma.begin(), n, 0.0);
  std::fill_n(dist.begin(), n, -1);
  order.clear();

  sigma[s] = 1.0;
  dist[s] = 0;
  order.push_back(s);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId u = order[head];
    for (NodeId w : csr.row(u)) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        order.push_back(w);
      }
      if (dist[w] == dist[u] + 1) sigma[w] += sigma[u];
    }
  }

  double paths = 0.0;  // unreached nodes add sigma = 0
  for (NodeId t = 0; t < n; ++t) {
    if (t != s) paths += sigma[t] * weights[t];
  }
  return paths;
}

// One weighted Brandes sweep from `s` over a block CSR: node t stands
// for weights[t] path endpoints (its region weight). delta[v]
// accumulates the weighted continuations from v to every
// strictly-downstream target in the BFS DAG, so
// weights[s] * sigma[v] * delta[v] counts the shortest paths through v
// between the endpoints s and the targets stand for.
// Predecessors of w are the CSR neighbors u with dist[u] + 1 ==
// dist[w] — no predecessor lists. The other neighbors receive an exact
// 0.0 instead of a branch: the test mispredicts often, and a
// branch-free loop measured up to a quarter faster on small graphs and
// no slower on large ones. Returns count_shortest_paths; the scratch's
// dist stays valid for the caller's closeness terms.
[[gnu::noinline, gnu::aligned(64)]] double brandes_sweep(
    CsrView csr, std::size_t n, NodeId s, std::span<const double> weights,
    FusedScratch& scratch, std::span<double> betweenness) {
  const double paths = count_shortest_paths(csr, n, s, weights, scratch);
  auto& sigma = scratch.sigma;
  auto& delta = scratch.delta;
  auto& dist = scratch.dist;
  const auto& order = scratch.order;
  std::fill_n(delta.begin(), n, 0.0);
  const double source_weight = weights[s];
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId w = *it;
    const double contribution = weights[w] + delta[w];
    const std::int64_t above = dist[w] - 1;
    for (NodeId u : csr.row(w)) {
      delta[u] += dist[u] == above ? contribution : 0.0;
    }
    if (w != s) betweenness[w] += source_weight * (delta[w] * sigma[w]);
  }
  return paths;
}

// Ordered reduction over `chunks` work units. Chunk c accumulates into
// its own zeroed partial of width(c) doubles, and fold(c, partial)
// folds it into the caller's totals in ascending chunk order: serially
// right after the chunk (one reused buffer), or after the parallel
// region. Either way the association of every sum is fixed by the
// chunking alone, so results are bit-identical at any thread count even
// where they are not exact. body(slot, c, partial) gets a runner slot
// (< the pool's thread count) for its scratch.
template <typename Width, typename Body, typename Fold>
void reduce_chunks_in_order(runtime::ThreadPool* pool, std::size_t chunks,
                            const Width& width, const Body& body,
                            const Fold& fold) {
  if (pool == nullptr) {
    std::vector<double> partial;
    for (std::size_t c = 0; c < chunks; ++c) {
      partial.assign(width(c), 0.0);
      body(std::size_t{0}, c, std::span<double>(partial));
      fold(c, std::span<const double>(partial));
    }
    return;
  }
  std::vector<std::size_t> offsets(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    offsets[c + 1] = offsets[c] + width(c);
  }
  std::vector<double> partials(offsets.back(), 0.0);
  const auto part = [&](std::size_t c) {
    return std::span<double>(partials).subspan(offsets[c],
                                               offsets[c + 1] - offsets[c]);
  };
  pool->parallel_for_slots(chunks, [&](std::size_t slot, std::size_t c) {
    body(slot, c, part(c));
  });
  for (std::size_t c = 0; c < chunks; ++c) fold(c, part(c));
}

// Per-runner scratch, allocated on a runner's first chunk.
class ScratchSlots {
 public:
  ScratchSlots(runtime::ThreadPool* pool, std::size_t nodes)
      : nodes_(nodes), slots_(pool == nullptr ? 1 : pool->thread_count()) {}

  FusedScratch& operator[](std::size_t slot) {
    if (!slots_[slot]) slots_[slot] = std::make_unique<FusedScratch>(nodes_);
    return *slots_[slot];
  }

 private:
  std::size_t nodes_;
  std::vector<std::unique_ptr<FusedScratch>> slots_;
};

// Biconnected blocks of the undirected view (self-loops dropped), each
// with a local CSR, and the rooted block-cut forest they form. A DFS
// from the lowest unvisited id roots each component; a block's *top* is
// its vertex nearest that root — the cut vertex the block hangs from,
// or the DFS root itself — and is local id 0. Every other vertex of a
// block reaches the root through that block: it is the vertex's *home*
// block. Blocks are numbered in Hopcroft–Tarjan emission order, which
// lists every block after all blocks hanging below it.
struct BlockForest {
  // Block b owns slots [first_slot[b], first_slot[b + 1]); slot k is
  // vertex vertex_of[k] at local id k - first_slot[b].
  std::vector<std::size_t> first_slot{0};
  std::vector<NodeId> vertex_of;
  // Local CSR over all slots: the neighbors of slot k are the local ids
  // in neighbors[row_offsets[k], row_offsets[k + 1]).
  std::vector<std::size_t> row_offsets{0};
  std::vector<NodeId> neighbors;
  // The slot of block b's top in the top's home block; kNone when the
  // top is a DFS root.
  std::vector<std::size_t> parent_slot;
  // Hops from block b up to its component's root blocks.
  std::vector<std::size_t> depth;
  std::size_t max_block_size = 0;

  BlockForest(const UndirectedCsr& csr, std::size_t n) {
    std::vector<std::size_t> disc(n, kNone);
    std::vector<std::size_t> low(n);
    std::vector<std::size_t> home_slot(n, kNone);
    struct Frame {
      NodeId v;
      NodeId parent;     // v itself for a DFS root
      std::size_t next;  // cursor into csr.neighbors
    };
    std::vector<Frame> frames;
    std::vector<std::pair<NodeId, NodeId>> edge_stack;
    std::vector<std::size_t> local_of(n, kNone);
    std::vector<std::pair<NodeId, NodeId>> block_edges;
    std::size_t clock = 0;

    for (NodeId root = 0; root < n; ++root) {
      if (disc[root] != kNone) continue;
      disc[root] = low[root] = clock++;
      frames.push_back({root, root, csr.offsets[root]});
      while (!frames.empty()) {
        Frame& frame = frames.back();
        const NodeId v = frame.v;
        if (frame.next < csr.offsets[v + 1]) {
          const NodeId w = csr.neighbors[frame.next++];
          if (w == v) continue;  // self-loop
          if (disc[w] == kNone) {
            edge_stack.emplace_back(v, w);
            disc[w] = low[w] = clock++;
            frames.push_back({w, v, csr.offsets[w]});
          } else if (w != frame.parent && disc[w] < disc[v]) {
            edge_stack.emplace_back(v, w);
            low[v] = std::min(low[v], disc[w]);
          }
          continue;
        }
        const NodeId top = frame.parent;
        frames.pop_back();
        if (frames.empty()) break;
        low[top] = std::min(low[top], low[v]);
        if (low[v] < disc[top]) continue;
        // `top` separates v's subtree: the edges above (top, v) on the
        // stack form one block.
        block_edges.clear();
        std::pair<NodeId, NodeId> edge;
        do {
          edge = edge_stack.back();
          edge_stack.pop_back();
          block_edges.push_back(edge);
        } while (edge != std::pair<NodeId, NodeId>(top, v));
        add_block(top, block_edges, local_of, home_slot);
      }
    }

    const std::size_t blocks = first_slot.size() - 1;
    parent_slot.resize(blocks);
    depth.resize(blocks);
    std::vector<std::size_t> block_of_slot(vertex_of.size());
    for (std::size_t b = 0; b < blocks; ++b) {
      std::fill(block_of_slot.begin() + first_slot[b],
                block_of_slot.begin() + first_slot[b + 1], b);
    }
    // A home block is emitted after the blocks below it, so walking
    // emission order backwards sees every parent before its children.
    for (std::size_t b = blocks; b-- > 0;) {
      parent_slot[b] = home_slot[vertex_of[first_slot[b]]];
      depth[b] = parent_slot[b] == kNone
                     ? 0
                     : depth[block_of_slot[parent_slot[b]]] + 1;
    }
  }

  [[nodiscard]] std::size_t block_count() const noexcept {
    return first_slot.size() - 1;
  }
  [[nodiscard]] std::size_t size(std::size_t b) const noexcept {
    return first_slot[b + 1] - first_slot[b];
  }
  [[nodiscard]] CsrView view(std::size_t b) const noexcept {
    return {row_offsets.data() + first_slot[b], neighbors.data()};
  }

 private:
  void add_block(NodeId top,
                 const std::vector<std::pair<NodeId, NodeId>>& edges,
                 std::vector<std::size_t>& local_of,
                 std::vector<std::size_t>& home_slot) {
    // The top first, then the other vertices in id order: local ids
    // keep the graph's own locality inside a giant block.
    const std::size_t base = vertex_of.size();
    vertex_of.push_back(top);
    local_of[top] = 0;
    for (const auto& [u, w] : edges) {
      for (const NodeId v : {u, w}) {
        if (local_of[v] == kNone) {
          local_of[v] = 0;  // seen; numbered after the sort
          vertex_of.push_back(v);
        }
      }
    }
    std::sort(vertex_of.begin() + static_cast<std::ptrdiff_t>(base) + 1,
              vertex_of.end());
    const std::size_t size = vertex_of.size() - base;
    for (std::size_t i = 0; i < size; ++i) local_of[vertex_of[base + i]] = i;
    // Degrees, then each row's fill cursor.
    cursor_.assign(size, 0);
    for (const auto& [u, w] : edges) {
      ++cursor_[local_of[u]];
      ++cursor_[local_of[w]];
    }
    for (std::size_t i = 0; i < size; ++i) {
      const std::size_t start = row_offsets.back();
      row_offsets.push_back(start + cursor_[i]);
      cursor_[i] = start;
    }
    neighbors.resize(row_offsets.back());
    for (const auto& [u, w] : edges) {
      neighbors[cursor_[local_of[u]]++] = local_of[w];
      neighbors[cursor_[local_of[w]]++] = local_of[u];
    }
    for (std::size_t i = 0; i < size; ++i) {
      std::sort(neighbors.begin() +
                    static_cast<std::ptrdiff_t>(row_offsets[base + i]),
                neighbors.begin() +
                    static_cast<std::ptrdiff_t>(row_offsets[base + i + 1]));
    }
    for (std::size_t k = base; k < vertex_of.size(); ++k) {
      local_of[vertex_of[k]] = kNone;
      if (k != base) home_slot[vertex_of[k]] = k;
    }
    first_slot.push_back(vertex_of.size());
    max_block_size = std::max(max_block_size, size);
  }

  std::vector<std::size_t> cursor_;
};

// Region aggregates per slot (block B, vertex x): `paths` counts the
// shortest paths from x into a region, `nodes` its size, `distance` the
// sum of those endpoints' distances from x. As weights (W) they
// describe the region hanging off x away from B, x itself included; as
// sweep sums (P) the side of x reached through B.
struct RegionColumns {
  std::vector<double> paths;
  std::vector<std::int64_t> nodes;
  std::vector<std::int64_t> distance;

  RegionColumns(std::size_t size, double paths_init, std::int64_t nodes_init)
      : paths(size, paths_init), nodes(size, nodes_init), distance(size, 0) {}
};

// P(B, s) of the sweep just run from local source s of the block whose
// `size` slots start at `base`; `paths` is the sweep's return value. A
// block is connected, so the sweep reached all of it and the integer
// sums run over local ids in order (the source's distance is 0).
void store_side(const FusedScratch& scratch, std::size_t base,
                std::size_t size, NodeId s, double paths,
                const RegionColumns& weights, RegionColumns& sides) {
  std::int64_t nodes = 0;
  std::int64_t distance = 0;
  for (std::size_t i = 0; i < size; ++i) {
    nodes += weights.nodes[base + i];
    distance += scratch.dist[i] * weights.nodes[base + i] +
                weights.distance[base + i];
  }
  sides.paths[base + s] = paths;
  sides.nodes[base + s] = nodes - weights.nodes[base + s];
  sides.distance[base + s] = distance - weights.distance[base + s];
}

// Exact scores, composed block by block. Every shortest path between
// two vertices of one block stays inside it, and a path between blocks
// crosses the cut vertices on the block-cut tree path between them. So
// with each target t of block B weighted by the region hanging off t
// (W), one weighted Brandes sweep per (block, source) counts every
// through-path whose through-vertex is interior to B's leg of the path,
// and its sums (P) give the pair-path normalizer and both closeness
// sums. A cut vertex a also carries the paths entering through one of
// its blocks and leaving through another: (sum_B P(B,a))^2 -
// sum_B P(B,a)^2, accumulated as 2 * sum_{i<j} P_i P_j so no
// intermediate exceeds the final count.
//
// W(B,x) = 1 + sum over the other blocks C of x of P(C,x). A post-order
// BFS per block from its top gives the downward W; the sweeps then run
// level by level from the roots, each block's upward W (at its top)
// reading the parent block's sweep sum. Every quantity is an integer
// until the two final divisions, as in the whole-graph formulation, so
// the results equal it bit for bit while path totals stay below 2^53.
void exact_scores(const UndirectedCsr& csr, std::size_t n,
                  runtime::ThreadPool* pool, CentralityScores& scores) {
  const BlockForest forest(csr, n);
  const std::size_t blocks = forest.block_count();
  const std::size_t slots = forest.vertex_of.size();
  RegionColumns weights(slots, 1.0, 1);
  RegionColumns sides(slots, 0.0, 0);
  // Per vertex: sum of P(D, v) over the blocks D topped at v.
  RegionColumns below(n, 0.0, 0);
  ScratchSlots scratch(pool, forest.max_block_size);
  const auto weight_span = [&](std::size_t b) {
    return std::span<const double>(weights.paths)
        .subspan(forest.first_slot[b], forest.size(b));
  };

  // Post-order: the downward weights of b's non-top vertices are
  // complete once every block below b has reported to `below`.
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = forest.first_slot[b];
    for (std::size_t k = base + 1; k < forest.first_slot[b + 1]; ++k) {
      const NodeId v = forest.vertex_of[k];
      weights.paths[k] = 1.0 + below.paths[v];
      weights.nodes[k] = 1 + below.nodes[v];
      weights.distance[k] = below.distance[v];
    }
    const double paths = count_shortest_paths(
        forest.view(b), forest.size(b), 0, weight_span(b), scratch[0]);
    store_side(scratch[0], base, forest.size(b), 0, paths, weights, sides);
    const NodeId top = forest.vertex_of[base];
    below.paths[top] += sides.paths[base];
    below.nodes[top] += sides.nodes[base];
    below.distance[top] += sides.distance[base];
  }

  std::vector<std::size_t> by_depth(blocks);
  std::iota(by_depth.begin(), by_depth.end(), std::size_t{0});
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [&](std::size_t a, std::size_t b) {
                     return forest.depth[a] < forest.depth[b];
                   });

  struct Chunk {
    std::size_t block;
    NodeId first;
    std::size_t count;
  };
  std::vector<Chunk> chunks;
  for (std::size_t lo = 0; lo < blocks;) {
    std::size_t hi = lo;
    while (hi < blocks &&
           forest.depth[by_depth[hi]] == forest.depth[by_depth[lo]]) {
      ++hi;
    }
    chunks.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t b = by_depth[i];
      // Upward weight at the top: everything off the top except b's
      // own side, i.e. the parent block's side (swept one level up)
      // plus the sibling blocks' sides.
      const std::size_t k = forest.first_slot[b];
      const NodeId top = forest.vertex_of[k];
      const std::size_t up = forest.parent_slot[b];
      weights.paths[k] = 1.0 + (up == kNone ? 0.0 : sides.paths[up]) +
                         (below.paths[top] - sides.paths[k]);
      weights.nodes[k] = 1 + (up == kNone ? 0 : sides.nodes[up]) +
                         (below.nodes[top] - sides.nodes[k]);
      weights.distance[k] = (up == kNone ? 0 : sides.distance[up]) +
                            (below.distance[top] - sides.distance[k]);
      const std::size_t size = forest.size(b);
      const std::size_t step = chunk_size(size);
      for (NodeId first = 0; first < size; first += step) {
        chunks.push_back({b, first, std::min(step, size - first)});
      }
    }
    reduce_chunks_in_order(
        pool, chunks.size(),
        [&](std::size_t c) { return forest.size(chunks[c].block); },
        [&](std::size_t slot, std::size_t c, std::span<double> partial) {
          const Chunk& chunk = chunks[c];
          const std::size_t base = forest.first_slot[chunk.block];
          const std::size_t size = forest.size(chunk.block);
          FusedScratch& local = scratch[slot];
          for (NodeId s = chunk.first; s < chunk.first + chunk.count; ++s) {
            const double paths =
                brandes_sweep(forest.view(chunk.block), size, s,
                              weight_span(chunk.block), local, partial);
            store_side(local, base, size, s, paths, weights, sides);
          }
        },
        [&](std::size_t c, std::span<const double> partial) {
          const std::size_t base = forest.first_slot[chunks[c].block];
          for (std::size_t i = 0; i < partial.size(); ++i) {
            scores.betweenness[forest.vertex_of[base + i]] += partial[i];
          }
        });
    lo = hi;
  }

  // Per vertex, over its blocks in slot order: the pair-path normalizer,
  // both closeness sums, and the cut-vertex crossing paths.
  double total_pair_paths = 0.0;  // Delta(m): shortest paths between
                                  // ordered pairs of distinct nodes
  std::vector<double> side_total(n, 0.0);
  std::vector<double> crossing(n, 0.0);
  std::vector<std::int64_t> reachable(n, 0);
  std::vector<std::int64_t> distance_sum(n, 0);
  for (std::size_t k = 0; k < slots; ++k) {
    const NodeId v = forest.vertex_of[k];
    total_pair_paths += sides.paths[k];
    crossing[v] += side_total[v] * sides.paths[k];
    side_total[v] += sides.paths[k];
    reachable[v] += sides.nodes[k];
    distance_sum[v] += sides.distance[k];
  }
  for (NodeId v = 0; v < n; ++v) {
    scores.betweenness[v] += 2.0 * crossing[v];
    scores.closeness[v] = distance_sum[v] > 0
                              ? static_cast<double>(reachable[v]) /
                                    static_cast<double>(distance_sum[v])
                              : 0.0;
  }
  // The through-path counts and the normalizer both cover ordered
  // pairs; the factor of two cancels.
  if (total_pair_paths > 0.0) {
    for (double& b : scores.betweenness) b /= total_pair_paths;
  }
}

}  // namespace

CentralityScores centrality_scores(const DiGraph& g,
                                   std::size_t num_threads) {
  const std::size_t n = g.node_count();
  CentralityScores scores{std::vector<double>(n, 0.0),
                          std::vector<double>(n, 0.0)};
  if (n < 2) return scores;

  const UndirectedCsr csr(g);
  const std::size_t threads = runtime::resolve_threads(num_threads);
  // Nested inside another region a pool would run inline anyway.
  std::optional<runtime::ThreadPool> pool;
  if (threads > 1 && n > kSourceChunk && !runtime::in_parallel_region()) {
    pool.emplace(threads);
  }
  exact_scores(csr, n, pool ? &*pool : nullptr, scores);
  return scores;
}

}  // namespace soteria::graph
