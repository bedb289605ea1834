#include "features/ngram.h"

#include <algorithm>
#include <limits>
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

/// Drives the rolling update over one walk, invoking `emit(key, m)`
/// once per window position of each size n with m = multiplicity[n]
/// > 0. A repeated size is one pass emitting its repeat count: integer
/// accumulation is order-independent, so that equals m separate
/// passes, and the state stays bounded by kMaxGramLength sizes. Inputs
/// must already be validated.
template <typename Emit>
void roll_walk(std::span<const cfg::Label> walk,
               const GramMultiplicity& multiplicity, Emit&& emit) {
  RollingKey rolling[kMaxGramLength];
  std::size_t active = 0;
  for (std::size_t n = 1; n <= kMaxGramLength; ++n) {
    if (multiplicity[n] > 0 && walk.size() >= n) rolling[active++].init(n);
  }
  for (std::size_t p = 0; p < walk.size(); ++p) {
    const auto label = static_cast<std::uint64_t>(walk[p]);
    for (std::size_t s = 0; s < active; ++s) {
      RollingKey& r = rolling[s];
      r.roll(label);
      if (p + 1 >= r.length) emit(r.key, multiplicity[r.length]);
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
  const GramMultiplicity multiplicity = gram_multiplicity(sizes);
  validate_walk(walk, sizes);
  roll_walk(walk, multiplicity, [&counts](GramKey key, std::uint32_t mult) {
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
  const GramMultiplicity multiplicity = gram_multiplicity(sizes);
  validate_walk(walk, sizes);
  roll_walk(walk, multiplicity,
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

GramMultiplicity gram_multiplicity(std::span<const std::size_t> sizes) {
  GramMultiplicity multiplicity{};
  for (std::size_t n : sizes) {
    if (n == 0 || n > kMaxGramLength) throw_bad_size(n);
    ++multiplicity[n];
  }
  return multiplicity;
}

std::uint64_t window_count(std::size_t trace_length,
                           std::span<const std::size_t> sizes) {
  std::uint64_t windows = 0;
  for (std::size_t n : sizes) {
    if (trace_length >= n) windows += trace_length - n + 1;
  }
  return windows;
}

// ---------------------------------------------------------------------------
// GramAutomaton

namespace {

constexpr std::uint32_t kNoState = std::numeric_limits<std::uint32_t>::max();

/// The key of the first `n` labels of `key`: its low n label fields
/// under a length-n tag.
GramKey prefix_key(GramKey key, std::size_t n) noexcept {
  return (static_cast<std::uint64_t>(n) << kGramLengthShift) |
         (key & ((1ULL << (kGramLabelBits * n)) - 1));
}

/// A packed gram: length in [1, kMaxGramLength], no bits outside its
/// label fields.
bool is_valid_key(GramKey key) noexcept {
  const std::size_t n = gram_length(key);
  return n >= 1 && n <= kMaxGramLength && prefix_key(key, n) == key;
}

cfg::Label label_at(GramKey key, std::size_t i) noexcept {
  return static_cast<cfg::Label>((key >> (kGramLabelBits * i)) &
                                 kGramLabelMask);
}

}  // namespace

GramAutomaton::GramAutomaton()
    : delta_(1, kRoot), row_(1, 0), fail_(1, kRoot), bfs_order_(1, kRoot),
      state_gram_(1, kNoState) {}

GramAutomaton GramAutomaton::build(std::span<const GramKey> grams) {
  GramAutomaton a;
  // Symbols go in label order, so the tables depend on the gram set
  // only. Trie states are the root plus the distinct gram prefixes,
  // and only the root and the proper prefixes have trie children;
  // counting both first sizes every table in one allocation.
  std::vector<cfg::Label> labels;
  std::vector<GramKey> prefixes;
  std::vector<GramKey> proper_prefixes;
  for (GramKey key : grams) {
    if (!is_valid_key(key)) {
      throw std::invalid_argument("GramAutomaton: invalid gram key " +
                                  std::to_string(key));
    }
    const std::size_t n = gram_length(key);
    for (std::size_t i = 0; i < n; ++i) {
      labels.push_back(label_at(key, i));
      prefixes.push_back(prefix_key(key, i + 1));
      if (i + 1 < n) proper_prefixes.push_back(prefix_key(key, i + 1));
    }
  }
  const auto distinct = [](auto& values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values.size();
  };
  const std::size_t width = distinct(labels) + 1;
  a.symbol_of_label_.assign(labels.empty() ? 0 : labels.back() + 1, 0);
  for (std::size_t s = 0; s < labels.size(); ++s) {
    a.symbol_of_label_[labels[s]] = static_cast<std::uint32_t>(s + 1);
  }
  const std::size_t states = 1 + distinct(prefixes);
  const std::size_t rows = 1 + distinct(proper_prefixes);

  // The trie. A state gets a transition row when it gains its first
  // child; kNoState marks a missing edge until the failure pass.
  a.delta_.assign(rows * width, kNoState);
  a.row_.assign(states, kNoState);
  a.row_[kRoot] = 0;
  a.state_gram_.assign(states, kNoState);
  a.gram_state_.reserve(grams.size());
  a.gram_length_.reserve(grams.size());
  std::uint32_t created = 1;
  std::uint32_t rows_used = 1;
  for (std::size_t g = 0; g < grams.size(); ++g) {
    const std::size_t n = gram_length(grams[g]);
    std::uint32_t state = kRoot;
    for (std::size_t i = 0; i < n; ++i) {
      if (a.row_[state] == kNoState) {
        a.row_[state] = static_cast<std::uint32_t>(width * rows_used++);
      }
      const std::size_t edge = a.row_[state] + a.symbol(label_at(grams[g], i));
      if (a.delta_[edge] == kNoState) a.delta_[edge] = created++;
      state = a.delta_[edge];
    }
    if (a.state_gram_[state] != kNoState) {
      throw std::invalid_argument("GramAutomaton: duplicate gram key " +
                                  gram_to_string(grams[g]));
    }
    a.state_gram_[state] = static_cast<std::uint32_t>(g);
    a.gram_state_.push_back(state);
    a.gram_length_.push_back(static_cast<std::uint32_t>(n));
  }

  // Breadth-first failure links; each missing edge takes its failure
  // state's transition, completing the trie into a DFA. A state
  // without children moves exactly like its failure state, so it
  // shares that state's row (already final: failure states are
  // shallower, hence earlier in the breadth-first order).
  a.fail_.assign(states, kRoot);
  a.bfs_order_.reserve(states);
  a.bfs_order_.assign(1, kRoot);
  for (std::size_t head = 0; head < a.bfs_order_.size(); ++head) {
    const std::uint32_t state = a.bfs_order_[head];
    if (a.row_[state] == kNoState) {
      a.row_[state] = a.row_[a.fail_[state]];
      continue;
    }
    const std::size_t row = a.row_[state];
    const std::size_t fail_row = a.row_[a.fail_[state]];
    for (std::size_t sym = 0; sym < width; ++sym) {
      const std::uint32_t child = a.delta_[row + sym];
      const std::uint32_t fallback =
          state == kRoot ? kRoot : a.delta_[fail_row + sym];
      if (child == kNoState) {
        a.delta_[row + sym] = fallback;
        continue;
      }
      a.fail_[child] = fallback;
      a.bfs_order_.push_back(child);
    }
  }
  return a;
}

std::size_t GramAutomaton::find(GramKey key) const noexcept {
  if (!is_valid_key(key)) return npos;
  const std::size_t n = gram_length(key);
  std::uint32_t state = kRoot;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t sym = symbol(label_at(key, i));
    if (sym == 0) return npos;
    state = next(state, sym);
  }
  // The DFA ends on the longest suffix of the key that is a trie path:
  // the key itself exactly when that state holds a gram of its length.
  const std::uint32_t gram = state_gram_[state];
  if (gram == kNoState || gram_length_[gram] != n) return npos;
  return gram;
}

void GramAutomaton::spread(std::span<std::uint32_t> visits,
                           const GramMultiplicity& multiplicity,
                           std::span<std::uint32_t> counts) const noexcept {
  // Deeper states first: a state's failure state is strictly shallower,
  // so each state has its whole failure subtree summed when it passes
  // the total on.
  for (std::size_t i = bfs_order_.size(); i-- > 1;) {
    const std::uint32_t state = bfs_order_[i];
    visits[fail_[state]] += visits[state];
  }
  for (std::size_t g = 0; g < gram_state_.size(); ++g) {
    counts[g] += visits[gram_state_[g]] * multiplicity[gram_length_[g]];
  }
}

}  // namespace soteria::features
