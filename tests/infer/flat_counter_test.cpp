// Bit-level contracts of the gram-counting fast paths: the rolling
// packed-key update (count_grams, FlatGramCounter) must agree exactly
// with the per-window oracle (tests/oracles), and a label trace run
// through a GramAutomaton and spread must match the oracle's map
// filtered to the automaton's grams, window totals included. Counting
// is pure integer arithmetic, so every comparison here is exact
// equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "expect_error.h"
#include "features/ngram.h"
#include "math/rng.h"
#include "oracles/feature_reference.h"

namespace soteria::features {
namespace {

using oracles::count_grams_reference;

/// Random walk of `length` labels drawn from [0, max_label].
std::vector<cfg::Label> random_walk(std::size_t length, cfg::Label max_label,
                                    math::Rng& rng) {
  std::vector<cfg::Label> walk(length);
  for (auto& label : walk) {
    label = static_cast<cfg::Label>(
        rng.index(static_cast<std::size_t>(max_label) + 1));
  }
  return walk;
}

/// `walk` through `automaton` (one transition and one visit per
/// label), spread into `counts`; returns the window total.
std::uint64_t count_through(const GramAutomaton& automaton,
                            const std::vector<cfg::Label>& walk,
                            const std::vector<std::size_t>& sizes,
                            std::vector<std::uint32_t>& counts) {
  std::vector<std::uint32_t> visits(automaton.state_count(), 0);
  std::uint32_t state = GramAutomaton::kRoot;
  for (cfg::Label label : walk) {
    state = automaton.next(state, automaton.symbol(label));
    ++visits[state];
  }
  automaton.spread(visits, gram_multiplicity(sizes), counts);
  return window_count(walk.size(), sizes);
}

GramCounts reference_counts(const std::vector<cfg::Label>& walk,
                            const std::vector<std::size_t>& sizes) {
  GramCounts counts;
  count_grams_reference(walk, sizes, counts);
  return counts;
}

TEST(RollingCountTest, MatchesReferenceAcrossRandomWalks) {
  math::Rng rng(101);
  const std::vector<std::vector<std::size_t>> size_sets = {
      {1}, {2}, {4}, {2, 3, 4}, {1, 2, 3, 4}, {3, 1}};
  for (std::size_t trial = 0; trial < 50; ++trial) {
    const std::size_t length = rng.index(40);  // includes 0..3: no windows
    const auto walk = random_walk(length, 17, rng);
    for (const auto& sizes : size_sets) {
      GramCounts rolling;
      count_grams(walk, sizes, rolling);
      EXPECT_EQ(rolling, reference_counts(walk, sizes))
          << "trial " << trial << " length " << length;
    }
  }
}

TEST(RollingCountTest, MaxLabelsAndRepeats) {
  const std::vector<std::size_t> sizes = {1, 2, 3, 4};
  // All-max labels exercise the full 14-bit fields and the length-4
  // body mask edge (body occupies all 56 label bits).
  const std::vector<cfg::Label> maxed(10, kMaxGramLabel);
  GramCounts rolling;
  count_grams(maxed, sizes, rolling);
  EXPECT_EQ(rolling, reference_counts(maxed, sizes));

  const std::vector<cfg::Label> repeated(25, 7);
  GramCounts rep;
  count_grams(repeated, sizes, rep);
  EXPECT_EQ(rep, reference_counts(repeated, sizes));
}

TEST(RollingCountTest, DuplicateSizesMatchReferenceWithoutOverflow) {
  math::Rng rng(505);
  // More entries than there are distinct valid sizes: each repeat is
  // individually valid and the reference counts it as its own pass
  // over the walk, so the rolling path must reproduce the
  // double-counting while keeping its per-size state bounded by
  // kMaxGramLength distinct sizes (regression: this used to overflow
  // a fixed array sized for kMaxGramLength entries of `sizes`).
  const std::vector<std::size_t> sizes = {2, 2, 3, 2, 4, 1, 3, 2, 1};
  ASSERT_GT(sizes.size(), kMaxGramLength);
  for (std::size_t trial = 0; trial < 20; ++trial) {
    const auto walk = random_walk(rng.index(40), 15, rng);
    const GramCounts expected = reference_counts(walk, sizes);

    GramCounts rolling;
    count_grams(walk, sizes, rolling);
    EXPECT_EQ(rolling, expected) << "trial " << trial;

    FlatGramCounter counter;
    counter.count_walk(walk, sizes);
    EXPECT_EQ(counter.to_counts(), expected) << "trial " << trial;
    EXPECT_EQ(counter.total(), total_occurrences(expected));
  }
}

TEST(GramAutomatonTest, DuplicateSizesDoubleCountLikeReference) {
  math::Rng rng(606);
  const std::vector<std::size_t> sizes = {3, 2, 3, 3, 2, 4, 2};
  ASSERT_GT(sizes.size(), kMaxGramLength);
  GramCounts vocab_pool;
  const std::vector<std::size_t> canonical = {2, 3, 4};
  for (std::size_t w = 0; w < 4; ++w) {
    count_grams_reference(random_walk(30, 10, rng), canonical, vocab_pool);
  }
  std::vector<GramKey> vocab;
  for (const auto& [key, count] : vocab_pool) vocab.push_back(key);
  const auto automaton = GramAutomaton::build(vocab);

  for (std::size_t trial = 0; trial < 10; ++trial) {
    const auto walk = random_walk(10 + rng.index(40), 12, rng);
    const GramCounts full = reference_counts(walk, sizes);

    std::vector<std::uint32_t> dense(vocab.size(), 0);
    const std::uint64_t windows = count_through(automaton, walk, sizes, dense);

    EXPECT_EQ(windows, total_occurrences(full)) << "trial " << trial;
    for (std::size_t i = 0; i < vocab.size(); ++i) {
      const auto it = full.find(vocab[i]);
      const std::uint32_t expected = it == full.end() ? 0 : it->second;
      EXPECT_EQ(dense[i], expected)
          << "trial " << trial << " gram " << gram_to_string(vocab[i]);
    }
  }
}

TEST(RollingCountTest, ShortWalkWithBadLabelStillProducesNothing) {
  // The reference ignores labels when no size fits the walk; the
  // rolling path must preserve that (validation only when windows
  // exist).
  const std::vector<cfg::Label> walk = {kMaxGramLabel + 1};
  const std::vector<std::size_t> sizes = {2, 3, 4};
  GramCounts counts;
  count_grams(walk, sizes, counts);
  EXPECT_TRUE(counts.empty());
  const std::vector<std::size_t> unigrams = {1};
  EXPECT_ERROR(count_grams(walk, unigrams, counts),
               core::ErrorCode::kInvalidArgument);
}

TEST(FlatGramCounterTest, AccumulatesLikeReferenceAcrossWalks) {
  math::Rng rng(202);
  const std::vector<std::size_t> sizes = {2, 3, 4};
  FlatGramCounter counter(4);  // tiny initial table: forces growth
  GramCounts expected;
  for (std::size_t w = 0; w < 20; ++w) {
    const auto walk = random_walk(5 + rng.index(60), 30, rng);
    counter.count_walk(walk, sizes);
    count_grams_reference(walk, sizes, expected);
  }
  EXPECT_EQ(counter.to_counts(), expected);
  EXPECT_EQ(counter.distinct(), expected.size());
  EXPECT_EQ(counter.total(), total_occurrences(expected));

  // clear() keeps capacity but drops all state.
  counter.clear();
  EXPECT_EQ(counter.distinct(), 0U);
  EXPECT_EQ(counter.total(), 0U);
  const auto walk = random_walk(12, 5, rng);
  counter.count_walk(walk, sizes);
  EXPECT_EQ(counter.to_counts(), reference_counts(walk, sizes));
}

TEST(GramAutomatonTest, FindIsBijectiveOverBuildSetAndMissesOutside) {
  math::Rng rng(303);
  const std::vector<std::size_t> sizes = {2, 3, 4};
  // Distinct keys from real walks, so lengths and label mixes vary.
  GramCounts pool;
  for (std::size_t w = 0; w < 12; ++w) {
    const auto walk = random_walk(40, 200, rng);
    count_grams_reference(walk, sizes, pool);
  }
  std::vector<GramKey> keys;
  for (const auto& [key, count] : pool) keys.push_back(key);
  ASSERT_GE(keys.size(), 50U);

  const auto automaton = GramAutomaton::build(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(automaton.find(keys[i]), i) << gram_to_string(keys[i]);
  }
  // Probing with keys outside the build set must miss, never alias:
  // random grams, every proper prefix and suffix of a build key (trie
  // paths that end on no gram, or on a shorter one), and build keys
  // with a stray bit outside their label fields.
  std::size_t miss_probes = 0;
  const auto expect_miss = [&](GramKey key) {
    if (pool.contains(key)) return;
    ++miss_probes;
    EXPECT_EQ(automaton.find(key), GramAutomaton::npos) << key;
  };
  for (std::size_t trial = 0; trial < 500; ++trial) {
    expect_miss(pack_gram(random_walk(1 + rng.index(4), kMaxGramLabel, rng)));
  }
  for (const GramKey key : keys) {
    const auto labels = unpack_gram(key);
    const std::span<const cfg::Label> all(labels);
    for (std::size_t n = 1; n < labels.size(); ++n) {
      expect_miss(pack_gram(all.first(n)));
      expect_miss(pack_gram(all.last(n)));
    }
    expect_miss(key | (GramKey{1} << (kGramLengthShift - 1)));
  }
  EXPECT_GT(miss_probes, 500U);
}

TEST(GramAutomatonTest, DuplicateOrInvalidKeysThrow) {
  const std::vector<cfg::Label> pair = {1, 2};
  const std::vector<cfg::Label> single = {3};
  const std::vector<GramKey> duplicate = {pack_gram(pair), pack_gram(single),
                                          pack_gram(pair)};
  EXPECT_ERROR((void)GramAutomaton::build(duplicate),
               core::ErrorCode::kInvalidArgument);
  // Zero, a length tag past kMaxGramLength, and a label bit outside a
  // 2-gram's two fields.
  for (const GramKey bad :
       {GramKey{0}, GramKey{5} << kGramLengthShift,
        pack_gram(pair) | (GramKey{1} << (2 * kGramLabelBits))}) {
    const std::vector<GramKey> keys = {pack_gram(pair), bad};
    EXPECT_ERROR((void)GramAutomaton::build(keys),
                 core::ErrorCode::kInvalidArgument)
        << bad;
  }
}

TEST(GramAutomatonTest, MatchesFilteredMapAndWindowTotal) {
  math::Rng rng(404);
  const std::vector<std::size_t> sizes = {2, 3, 4};
  // Vocabulary = the grams of a few "training" walks.
  GramCounts vocab_pool;
  for (std::size_t w = 0; w < 6; ++w) {
    count_grams_reference(random_walk(30, 12, rng), sizes, vocab_pool);
  }
  std::vector<GramKey> vocab;
  for (const auto& [key, count] : vocab_pool) vocab.push_back(key);
  const auto automaton = GramAutomaton::build(vocab);

  for (std::size_t trial = 0; trial < 25; ++trial) {
    // Wider label range than the vocabulary pool: some grams miss.
    const auto walk = random_walk(rng.index(50), 20, rng);
    std::vector<std::uint32_t> dense(vocab.size(), 0);
    const std::uint64_t windows = count_through(automaton, walk, sizes, dense);

    const GramCounts full = reference_counts(walk, sizes);
    EXPECT_EQ(windows, total_occurrences(full)) << "trial " << trial;
    for (std::size_t i = 0; i < vocab.size(); ++i) {
      const auto it = full.find(vocab[i]);
      const std::uint32_t expected = it == full.end() ? 0 : it->second;
      EXPECT_EQ(dense[i], expected)
          << "trial " << trial << " gram " << gram_to_string(vocab[i]);
    }
  }
}

TEST(GramAutomatonTest, LabelsPastGramLimitCountAsOutOfVocabulary) {
  math::Rng rng(707);
  const std::vector<std::size_t> sizes = {1, 2, 3, 4};
  GramCounts vocab_pool;
  for (std::size_t w = 0; w < 6; ++w) {
    count_grams_reference(random_walk(30, 8, rng), sizes, vocab_pool);
  }
  std::vector<GramKey> vocab;
  for (const auto& [key, count] : vocab_pool) vocab.push_back(key);
  const auto automaton = GramAutomaton::build(vocab);
  EXPECT_EQ(automaton.symbol(kMaxGramLabel + 1), 0U);
  EXPECT_EQ(automaton.symbol(~cfg::Label{0}), 0U);

  for (std::size_t trial = 0; trial < 25; ++trial) {
    // Labels 0..8 are in the vocabulary; the rest of each trace is
    // unpackable (and different unpackable labels must not match each
    // other through the shared out-of-vocabulary symbol).
    auto walk = random_walk(rng.index(60), 12, rng);
    for (auto& label : walk) {
      if (label > 8) label += kMaxGramLabel;
    }
    std::vector<std::uint32_t> dense(vocab.size(), 0);
    const std::uint64_t windows = count_through(automaton, walk, sizes, dense);

    oracles::WideGramCounts full;
    oracles::count_grams_wide(walk, sizes, full);
    std::uint64_t total = 0;
    for (const auto& [gram, count] : full) total += count;
    EXPECT_EQ(windows, total) << "trial " << trial;
    for (std::size_t i = 0; i < vocab.size(); ++i) {
      const auto it = full.find(unpack_gram(vocab[i]));
      const std::uint32_t expected = it == full.end() ? 0 : it->second;
      EXPECT_EQ(dense[i], expected)
          << "trial " << trial << " gram " << gram_to_string(vocab[i]);
    }
  }
}

}  // namespace
}  // namespace soteria::features
