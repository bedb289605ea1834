// n-gram extraction over random-walk label traces.
//
// Grams of length 1 to 4 (paper default {2, 3, 4}) are packed into a
// single 64-bit key: 4 x 14-bit labels + a length tag. Packed keys are
// the gram identity everywhere a gram is stored: vocabulary files,
// fit's corpus counts, and the Table V analysis.
//
// Counting comes in two forms:
//   - fit (no vocabulary yet) rolls packed keys over label traces:
//     FlatGramCounter, an open-addressing table with power-of-two
//     capacity and linear probing reusable across walks, or
//     count_grams for callers that want a std::unordered_map. Both
//     throw for a label above kMaxGramLabel.
//   - every extraction after fit runs a GramAutomaton over the fitted
//     vocabulary: one DFA transition per walk step, whatever the gram
//     sizes, and no label limit (labels outside the vocabulary are one
//     out-of-vocabulary symbol). FeaturePipeline::extract drives it
//     straight from the undirected view, without a label trace.
// The per-window pack_gram + map oracle lives with the tests
// (tests/oracles/feature_reference.h).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfg/labeling.h"

namespace soteria::features {

/// Packed n-gram identity.
using GramKey = std::uint64_t;

/// Gram occurrence counts.
using GramCounts = std::unordered_map<GramKey, std::uint32_t>;

/// Largest label a gram can carry (14 bits per label).
inline constexpr cfg::Label kMaxGramLabel = (1U << 14) - 1;

/// Longest supported gram.
inline constexpr std::size_t kMaxGramLength = 4;

/// Bits per label in a packed key; label i sits at bits
/// [kGramLabelBits*i, kGramLabelBits*(i+1)).
inline constexpr std::uint64_t kGramLabelBits = 14;

/// Mask selecting one label field.
inline constexpr std::uint64_t kGramLabelMask = (1ULL << kGramLabelBits) - 1;

/// Bit position of the length tag. Because the tag is always >= 1, a
/// packed key is never 0 — which lets 0 serve as the empty-slot
/// sentinel in open-addressing tables.
inline constexpr std::uint64_t kGramLengthShift =
    kGramLabelBits * kMaxGramLength;  // 56

/// Packs `labels` (1..4 entries, each <= kMaxGramLabel) into a key.
/// Throws std::invalid_argument on violation.
[[nodiscard]] GramKey pack_gram(std::span<const cfg::Label> labels);

/// Reverses pack_gram.
[[nodiscard]] std::vector<cfg::Label> unpack_gram(GramKey key);

/// Gram length stored in a key.
[[nodiscard]] std::size_t gram_length(GramKey key) noexcept;

/// Counts all grams of each size in `sizes` over one walk trace,
/// accumulating into `counts`. Throws std::invalid_argument for a size
/// of 0 or > kMaxGramLength, or for a walk label > kMaxGramLabel when
/// at least one size produces windows. Validation is hoisted out of
/// the window loop; the loop itself is one shift+or+mask per step.
void count_grams(std::span<const cfg::Label> walk,
                 std::span<const std::size_t> sizes, GramCounts& counts);

/// Total number of gram occurrences recorded in `counts`.
[[nodiscard]] std::uint64_t total_occurrences(const GramCounts& counts);

/// Human-readable gram, e.g. "3-1-4".
[[nodiscard]] std::string gram_to_string(GramKey key);

/// Open-addressing gram counter: power-of-two capacity, linear
/// probing, key 0 as the empty sentinel (a packed key is never 0).
/// clear() keeps the allocation, so one counter amortizes across all
/// walks a thread processes. Produces counts identical to the
/// reference map (integer accumulation is order-independent).
class FlatGramCounter {
 public:
  FlatGramCounter() = default;
  /// Pre-sizes the table for about `expected_distinct` distinct grams.
  explicit FlatGramCounter(std::size_t expected_distinct);

  /// Removes all entries but keeps capacity.
  void clear() noexcept;

  /// Adds `count` occurrences of `key` (key must be a valid packed
  /// gram, i.e. non-zero).
  void add(GramKey key, std::uint32_t count);

  /// Counts all grams of each size over one walk via the rolling
  /// update. Same validation contract as count_grams.
  void count_walk(std::span<const cfg::Label> walk,
                  std::span<const std::size_t> sizes);

  /// Number of distinct grams currently stored.
  [[nodiscard]] std::size_t distinct() const noexcept { return size_; }

  /// Total occurrences across all stored grams.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Visits every (key, count) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], vals_[i]);
    }
  }

  /// Accumulates the stored counts into `out`.
  void export_into(GramCounts& out) const;

  /// The stored counts as a fresh map.
  [[nodiscard]] GramCounts to_counts() const;

 private:
  [[nodiscard]] std::size_t slot_for(GramKey key) const noexcept;
  void grow(std::size_t min_capacity);

  std::vector<GramKey> keys_;
  std::vector<std::uint32_t> vals_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

/// Occurrences of each gram length in a `sizes` list: entry n is how
/// many times n appears (a repeated size counts each window once per
/// repeat; a length absent from `sizes` gets 0). Throws
/// std::invalid_argument for a size of 0 or > kMaxGramLength.
using GramMultiplicity = std::array<std::uint32_t, kMaxGramLength + 1>;
[[nodiscard]] GramMultiplicity gram_multiplicity(
    std::span<const std::size_t> sizes);

/// Windows of every size in `sizes` over a trace of `trace_length`
/// labels: sum over n of max(0, trace_length - n + 1). This is the
/// TF denominator, and it counts out-of-vocabulary windows too.
[[nodiscard]] std::uint64_t window_count(std::size_t trace_length,
                                         std::span<const std::size_t> sizes);

/// Aho-Corasick automaton over a fixed gram set (a fitted vocabulary),
/// completed into a DFA. Built by Vocabulary at fit and load
/// time from Vocabulary::grams(); never serialized.
///
/// Every label that occurs in some gram maps to a dense symbol >= 1;
/// every other label (any value, including those above kMaxGramLabel)
/// maps to symbol 0, which no gram contains. Feeding a trace one
/// symbol at a time through next() keeps the state equal to the
/// longest suffix of the trace that is a prefix of some gram, so gram
/// g ends at a position exactly when the state there has g as a
/// suffix. A counter therefore only records one visit per position
/// (`++visits[state]`) and spread() turns the visits into per-gram
/// occurrence counts afterwards: each state's visits flow up its
/// failure links, and gram g's count is the total reaching its state.
///
/// The DFA stores a transition row (one entry per symbol) only for
/// states with trie children; every other state moves like its failure
/// state and shares that row. Under sizes {1,2,3,4} a top-k
/// vocabulary is close to prefix-closed (every occurrence of a gram
/// contains an occurrence of its prefix), so a product top-500
/// vocabulary has ~500 states but only ~100 rows of ~200 symbols.
class GramAutomaton {
 public:
  static constexpr std::uint32_t kRoot = 0;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The empty automaton: only the root, no grams.
  GramAutomaton();

  /// Builds over `grams` (gram i gets index i). Throws
  /// std::invalid_argument for a key that is not a valid packed gram
  /// (0, a length outside [1, kMaxGramLength], or bits outside its
  /// label fields) or for duplicate keys.
  [[nodiscard]] static GramAutomaton build(std::span<const GramKey> grams);

  /// Symbol of `label`: >= 1 if some gram contains it, else 0.
  [[nodiscard]] std::uint32_t symbol(cfg::Label label) const noexcept {
    return label < symbol_of_label_.size() ? symbol_of_label_[label] : 0;
  }

  /// State after reading `symbol` in `state`.
  [[nodiscard]] std::uint32_t next(std::uint32_t state,
                                   std::uint32_t symbol) const noexcept {
    return delta_[row_[state] + symbol];
  }

  [[nodiscard]] std::size_t state_count() const noexcept {
    return fail_.size();
  }

  /// Index of `key` in the build set, or npos if absent.
  [[nodiscard]] std::size_t find(GramKey key) const noexcept;

  /// Adds each gram's occurrences to `counts` (one entry per build
  /// gram): visits[s] is how many trace positions ended in state s
  /// (state_count() entries, consumed: overwritten with failure-tree
  /// sums), and gram i's occurrences are weighted by
  /// multiplicity[length of gram i].
  void spread(std::span<std::uint32_t> visits,
              const GramMultiplicity& multiplicity,
              std::span<std::uint32_t> counts) const noexcept;

 private:
  std::vector<std::uint32_t> symbol_of_label_;  // label -> symbol
  // Transition rows, one per state with trie children (symbol count
  // entries each); a childless state shares its failure state's row.
  std::vector<std::uint32_t> delta_;
  std::vector<std::uint32_t> row_;         // state -> offset of its row
  std::vector<std::uint32_t> fail_;        // state -> failure state
  std::vector<std::uint32_t> bfs_order_;   // states, breadth-first
  std::vector<std::uint32_t> gram_state_;  // gram index -> its state
  std::vector<std::uint32_t> gram_length_; // gram index -> length
  std::vector<std::uint32_t> state_gram_;  // state -> gram index or ~0
};

}  // namespace soteria::features
