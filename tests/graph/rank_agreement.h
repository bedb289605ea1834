// Rank-level agreement metrics between score vectors.
//
// Soteria's DBL labeling consumes centrality *rankings*, not raw
// scores, so the right question for the sampled-pivot approximation is
// "does it rank nodes the way the exact sweep does?" — answered here
// with Spearman correlation over fractional ranks and top-k set
// overlap. The rank-stability property suite is the only user, so the
// helpers live beside it in tests/graph.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace soteria::graph {

/// Fractional (average) ranks of `values`, descending: the largest
/// value gets rank 1, and tied values all receive the mean of the rank
/// positions they span — so the ranks of a permuted vector are the
/// same permutation of the original ranks regardless of ties.
[[nodiscard]] std::vector<double> fractional_ranks(
    std::span<const double> values);

/// Spearman rank correlation: Pearson correlation of the two vectors'
/// fractional ranks, in [-1, 1]. Degenerate cases: vectors shorter
/// than 2 or two constant vectors correlate 1.0 (no disagreement is
/// expressible); exactly one constant vector correlates 0.0. Throws
/// std::invalid_argument on length mismatch.
[[nodiscard]] double spearman(std::span<const double> a,
                              std::span<const double> b);

/// Top-k agreement: |topk(a) ∩ topk(b)| / k, where topk takes the k
/// largest values (ties broken toward smaller index, so the set is
/// deterministic). k is clamped to the vector length; k == 0 (or empty
/// vectors) returns 1.0. Throws std::invalid_argument on length
/// mismatch.
[[nodiscard]] double top_k_overlap(std::span<const double> a,
                                   std::span<const double> b, std::size_t k);

}  // namespace soteria::graph
