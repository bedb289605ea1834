#include "features/ngram.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "math/rng.h"

namespace soteria::features {

namespace {

[[noreturn]] void throw_bad_size(std::size_t n) {
  throw std::invalid_argument("count_grams: gram size " + std::to_string(n) +
                              " outside [1, " +
                              std::to_string(kMaxGramLength) + "]");
}

[[noreturn]] void throw_bad_label(cfg::Label label) {
  throw std::invalid_argument("count_grams: label " + std::to_string(label) +
                              " exceeds kMaxGramLabel");
}

void validate_sizes(std::span<const std::size_t> sizes) {
  for (std::size_t n : sizes) {
    if (n == 0 || n > kMaxGramLength) throw_bad_size(n);
  }
}

/// Validates walk labels when at least one size produces windows.
/// Every walk position is covered by some window of any size n <=
/// walk.size(), so this throws exactly when the per-window reference
/// would have thrown — just before counting instead of mid-stream.
void validate_walk(std::span<const cfg::Label> walk,
                   std::span<const std::size_t> sizes) {
  bool any_windows = false;
  for (std::size_t n : sizes) any_windows |= walk.size() >= n;
  if (!any_windows) return;
  for (cfg::Label label : walk) {
    if (label > kMaxGramLabel) throw_bad_label(label);
  }
}

/// Per-size state for the rolling packed-key update. Advancing a
/// size-n window by one label is: mask off the length tag, drop the
/// oldest label with one right shift, insert the new label at position
/// n-1, re-apply the tag — one shift+or+mask per step, no per-window
/// pack_gram call.
struct RollingKey {
  std::uint64_t key = 0;
  std::uint64_t tag = 0;          // n << kGramLengthShift
  std::uint64_t body_mask = 0;    // low 14*n bits
  std::uint64_t insert_shift = 0; // 14*(n-1)
  std::size_t length = 0;

  void init(std::size_t n) noexcept {
    key = 0;
    tag = static_cast<std::uint64_t>(n) << kGramLengthShift;
    body_mask = (n == kMaxGramLength) ? ((1ULL << kGramLengthShift) - 1)
                                      : ((1ULL << (kGramLabelBits * n)) - 1);
    insert_shift = kGramLabelBits * (n - 1);
    length = n;
  }

  void roll(std::uint64_t label) noexcept {
    key = tag | (((key & body_mask) >> kGramLabelBits) |
                 (label << insert_shift));
  }
};

/// Drives the rolling update over one walk, invoking `emit(key, mult)`
/// once per window position. Inputs must already be validated.
///
/// `sizes` may be arbitrarily long and may repeat a size — the
/// reference counts each repeat as its own pass over the walk. Folding
/// repeats into a per-size multiplicity keeps the state bounded by the
/// kMaxGramLength distinct valid sizes (so the fixed arrays can never
/// overflow) while emitting the same totals: integer accumulation is
/// order-independent, so `emit(key, m)` equals m separate passes.
template <typename Emit>
void roll_walk(std::span<const cfg::Label> walk,
               std::span<const std::size_t> sizes, Emit&& emit) {
  RollingKey rolling[kMaxGramLength];
  std::uint32_t multiplicity[kMaxGramLength];
  std::size_t active = 0;
  for (std::size_t n : sizes) {
    if (walk.size() < n) continue;
    std::size_t s = 0;
    while (s < active && rolling[s].length != n) ++s;
    if (s == active) {
      rolling[active].init(n);
      multiplicity[active] = 0;
      ++active;
    }
    ++multiplicity[s];
  }
  if (active == 0) return;
  for (std::size_t p = 0; p < walk.size(); ++p) {
    const auto label = static_cast<std::uint64_t>(walk[p]);
    for (std::size_t s = 0; s < active; ++s) {
      RollingKey& r = rolling[s];
      r.roll(label);
      if (p + 1 >= r.length) emit(r.key, multiplicity[s]);
    }
  }
}

/// Probe hash decorrelated from the raw key bits (which are highly
/// structured: small labels in fixed fields).
inline std::size_t probe_hash(GramKey key) noexcept {
  return static_cast<std::size_t>(math::split_mix64(key));
}

}  // namespace

GramKey pack_gram(std::span<const cfg::Label> labels) {
  if (labels.empty() || labels.size() > kMaxGramLength) {
    throw std::invalid_argument("pack_gram: gram length " +
                                std::to_string(labels.size()) +
                                " outside [1, " +
                                std::to_string(kMaxGramLength) + "]");
  }
  GramKey key = static_cast<std::uint64_t>(labels.size()) << kGramLengthShift;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] > kMaxGramLabel) {
      throw std::invalid_argument("pack_gram: label " +
                                  std::to_string(labels[i]) +
                                  " exceeds kMaxGramLabel");
    }
    key |= static_cast<std::uint64_t>(labels[i]) << (kGramLabelBits * i);
  }
  return key;
}

std::vector<cfg::Label> unpack_gram(GramKey key) {
  const std::size_t len = gram_length(key);
  std::vector<cfg::Label> labels(len);
  for (std::size_t i = 0; i < len; ++i) {
    labels[i] = static_cast<cfg::Label>((key >> (kGramLabelBits * i)) &
                                        kGramLabelMask);
  }
  return labels;
}

std::size_t gram_length(GramKey key) noexcept {
  return static_cast<std::size_t>(key >> kGramLengthShift);
}

void count_grams(std::span<const cfg::Label> walk,
                 std::span<const std::size_t> sizes, GramCounts& counts) {
  validate_sizes(sizes);
  validate_walk(walk, sizes);
  roll_walk(walk, sizes, [&counts](GramKey key, std::uint32_t mult) {
    counts[key] += mult;
  });
}

std::uint64_t total_occurrences(const GramCounts& counts) {
  std::uint64_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  return total;
}

std::string gram_to_string(GramKey key) {
  const auto labels = unpack_gram(key);
  std::string text;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) text += '-';
    text += std::to_string(labels[i]);
  }
  return text;
}

// ---------------------------------------------------------------------------
// FlatGramCounter

FlatGramCounter::FlatGramCounter(std::size_t expected_distinct) {
  std::size_t capacity = 16;
  // Target <= 70% load at the expected population.
  while (capacity * 7 < expected_distinct * 10) capacity <<= 1;
  keys_.assign(capacity, 0);
  vals_.assign(capacity, 0);
}

void FlatGramCounter::clear() noexcept {
  std::fill(keys_.begin(), keys_.end(), 0);
  size_ = 0;
  total_ = 0;
}

std::size_t FlatGramCounter::slot_for(GramKey key) const noexcept {
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = probe_hash(key) & mask;
  while (keys_[slot] != 0 && keys_[slot] != key) slot = (slot + 1) & mask;
  return slot;
}

void FlatGramCounter::grow(std::size_t min_capacity) {
  std::size_t capacity = keys_.empty() ? 16 : keys_.size();
  while (capacity < min_capacity) capacity <<= 1;
  std::vector<GramKey> old_keys = std::move(keys_);
  std::vector<std::uint32_t> old_vals = std::move(vals_);
  keys_.assign(capacity, 0);
  vals_.assign(capacity, 0);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == 0) continue;
    const std::size_t slot = slot_for(old_keys[i]);
    keys_[slot] = old_keys[i];
    vals_[slot] = old_vals[i];
  }
}

void FlatGramCounter::add(GramKey key, std::uint32_t count) {
  if (keys_.empty()) grow(16);
  std::size_t slot = slot_for(key);
  if (keys_[slot] == 0) {
    // Keep load factor <= 70%.
    if ((size_ + 1) * 10 > keys_.size() * 7) {
      grow(keys_.size() * 2);
      slot = slot_for(key);
    }
    keys_[slot] = key;
    vals_[slot] = 0;
    ++size_;
  }
  vals_[slot] += count;
  total_ += count;
}

void FlatGramCounter::count_walk(std::span<const cfg::Label> walk,
                                 std::span<const std::size_t> sizes) {
  validate_sizes(sizes);
  validate_walk(walk, sizes);
  roll_walk(walk, sizes,
            [this](GramKey key, std::uint32_t mult) { add(key, mult); });
}

void FlatGramCounter::export_into(GramCounts& out) const {
  for_each([&out](GramKey key, std::uint32_t count) { out[key] += count; });
}

GramCounts FlatGramCounter::to_counts() const {
  GramCounts out;
  out.reserve(size_);
  export_into(out);
  return out;
}

// ---------------------------------------------------------------------------
// DirectGramTable

DirectGramTable DirectGramTable::build(std::span<const GramKey> keys) {
  DirectGramTable table;
  if (keys.empty()) return table;

  // ~25% load: next power of two >= 4 * n. Most counting-loop lookups
  // are out-of-vocabulary probes that must run to an empty slot, so
  // load factor matters more than table residency — but past 4x the
  // extra slots only add cache misses. Measured sweet spot on the
  // paper-default 500-gram vocabulary (2048 slots, 24 KiB).
  std::size_t capacity = 64;
  while (capacity < keys.size() * 4) capacity <<= 1;
  table.slot_key_.assign(capacity, 0);
  table.slot_index_.assign(capacity, 0);
  table.mask_ = capacity - 1;
  table.size_ = keys.size();

  for (std::size_t i = 0; i < keys.size(); ++i) {
    const GramKey key = keys[i];
    if (key == 0) {
      throw std::invalid_argument("DirectGramTable: key 0 is reserved");
    }
    std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    std::size_t slot = static_cast<std::size_t>(h) & table.mask_;
    while (table.slot_key_[slot] != 0) {
      if (table.slot_key_[slot] == key) {
        throw std::invalid_argument("DirectGramTable: duplicate keys");
      }
      slot = (slot + 1) & table.mask_;
    }
    table.slot_key_[slot] = key;
    table.slot_index_[slot] = static_cast<std::uint32_t>(i);
  }
  return table;
}

std::uint64_t count_into_vocab(std::span<const cfg::Label> walk,
                               std::span<const std::size_t> sizes,
                               const DirectGramTable& table,
                               std::span<std::uint32_t> counts) {
  validate_sizes(sizes);
  validate_walk(walk, sizes);
  std::uint64_t windows = 0;
  roll_walk(walk, sizes,
            [&table, counts, &windows](GramKey key, std::uint32_t mult) {
              windows += mult;
              const std::size_t idx = table.lookup(key);
              if (idx != DirectGramTable::npos) counts[idx] += mult;
            });
  return windows;
}

}  // namespace soteria::features
