// n-gram extraction over random-walk label traces.
//
// Grams of length 2, 3 and 4 (paper default) are packed into a single
// 64-bit key: 4 x 14-bit labels + a length tag. Packing keeps gram
// counting allocation-free in the hot loop and makes vocabulary lookup a
// single hash probe.
//
// Counting comes in three forms, all driven by one rolling packed-key
// update:
//   - count_into_vocab: resolves each window through a fitted
//     vocabulary's DirectGramTable and accumulates straight into a
//     dense TF vector (no intermediate map) — every extraction after
//     fit;
//   - FlatGramCounter: an open-addressing table with power-of-two
//     capacity and linear probing, reusable across walks (fit, where
//     the vocabulary does not exist yet);
//   - count_grams: the std::unordered_map API for callers that want a
//     plain map.
// The per-window pack_gram + map oracle lives with the tests
// (tests/oracles/feature_reference.h).
#pragma once

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

/// Direct-mapped vocabulary lookup: a 4x-oversized power-of-two
/// open-addressing table over the selected grams. A lookup is one
/// multiply-xorshift hash, one mask, and (at ~25% load) almost always
/// a single probe, which keeps the per-window cost of the fused
/// walk+count loop low. Built by Vocabulary at fit and load time from
/// Vocabulary::grams(); never serialized.
class DirectGramTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DirectGramTable() = default;

  /// Builds over `keys` (distinct, non-zero). The i-th key maps to
  /// index i. Throws std::invalid_argument on duplicates or key 0.
  [[nodiscard]] static DirectGramTable build(std::span<const GramKey> keys);

  /// Index of `key` in the build set, or npos if absent.
  [[nodiscard]] std::size_t lookup(GramKey key) const noexcept {
    if (slot_key_.empty()) return npos;
    std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    std::size_t slot = static_cast<std::size_t>(h) & mask_;
    while (true) {
      const GramKey stored = slot_key_[slot];
      if (stored == key) return slot_index_[slot];
      if (stored == 0) return npos;
      slot = (slot + 1) & mask_;
    }
  }

  /// Number of keys in the build set.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::vector<GramKey> slot_key_;          // 0 = empty slot
  std::vector<std::uint32_t> slot_index_;  // slot -> build-set index
  std::size_t mask_ = 0;                   // capacity - 1 (power of two)
  std::size_t size_ = 0;
};

/// Fused counting for extraction: counts all grams of each size over
/// `walk` with the rolling update, resolves each key through `table`,
/// and accumulates in-vocabulary hits directly into the dense `counts`
/// vector (counts.size() must equal table.size()). Returns the total
/// number of windows — which equals total_occurrences of the full
/// (unfiltered) gram map, since every window yields exactly one gram.
/// Same validation contract as count_grams.
std::uint64_t count_into_vocab(std::span<const cfg::Label> walk,
                               std::span<const std::size_t> sizes,
                               const DirectGramTable& table,
                               std::span<std::uint32_t> counts);

}  // namespace soteria::features
