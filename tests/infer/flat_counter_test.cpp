// Bit-level contracts of the gram-counting fast paths: the rolling
// packed-key update (count_grams, FlatGramCounter) must agree exactly
// with the per-window oracle (tests/oracles), and count_into_vocab
// must match the oracle's map filtered through the vocabulary's
// DirectGramTable, window totals included. Counting is pure integer
// arithmetic, so every comparison here is exact equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

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

TEST(CountIntoVocabTest, DuplicateSizesDoubleCountLikeReference) {
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
  const auto table = DirectGramTable::build(vocab);

  for (std::size_t trial = 0; trial < 10; ++trial) {
    const auto walk = random_walk(10 + rng.index(40), 12, rng);
    const GramCounts full = reference_counts(walk, sizes);

    std::vector<std::uint32_t> dense(vocab.size(), 0);
    const std::uint64_t windows = count_into_vocab(walk, sizes, table, dense);

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
  EXPECT_THROW(count_grams(walk, unigrams, counts), std::invalid_argument);
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

TEST(DirectGramTableTest, BijectiveOverBuildSetAndMissesOutside) {
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

  const auto table = DirectGramTable::build(keys);
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.lookup(keys[i]), i) << gram_to_string(keys[i]);
  }
  // Probing with keys outside the build set must miss, never alias.
  std::size_t miss_probes = 0;
  for (std::size_t trial = 0; trial < 500; ++trial) {
    const auto walk = random_walk(4, kMaxGramLabel, rng);
    const GramKey key = pack_gram(walk);
    if (pool.contains(key)) continue;
    ++miss_probes;
    EXPECT_EQ(table.lookup(key), DirectGramTable::npos);
  }
  EXPECT_GT(miss_probes, 0U);
}

TEST(DirectGramTableTest, DuplicateOrZeroKeysThrow) {
  const std::vector<cfg::Label> pair = {1, 2};
  const std::vector<cfg::Label> single = {3};
  const std::vector<GramKey> duplicate = {pack_gram(pair), pack_gram(single),
                                          pack_gram(pair)};
  EXPECT_THROW((void)DirectGramTable::build(duplicate),
               std::invalid_argument);
  const std::vector<GramKey> zero = {pack_gram(pair), 0};
  EXPECT_THROW((void)DirectGramTable::build(zero), std::invalid_argument);
}

TEST(CountIntoVocabTest, MatchesFilteredMapAndWindowTotal) {
  math::Rng rng(404);
  const std::vector<std::size_t> sizes = {2, 3, 4};
  // Vocabulary = the grams of a few "training" walks.
  GramCounts vocab_pool;
  for (std::size_t w = 0; w < 6; ++w) {
    count_grams_reference(random_walk(30, 12, rng), sizes, vocab_pool);
  }
  std::vector<GramKey> vocab;
  for (const auto& [key, count] : vocab_pool) vocab.push_back(key);
  const auto table = DirectGramTable::build(vocab);

  for (std::size_t trial = 0; trial < 25; ++trial) {
    // Wider label range than the vocabulary pool: some grams miss.
    const auto walk = random_walk(rng.index(50), 20, rng);
    std::vector<std::uint32_t> dense(vocab.size(), 0);
    const std::uint64_t windows = count_into_vocab(walk, sizes, table, dense);

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

}  // namespace
}  // namespace soteria::features
