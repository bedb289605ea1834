#include "features/vocabulary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "expect_error.h"
#include "io/binary_io.h"
#include "oracles/feature_reference.h"
#include "soteria/error.h"

namespace soteria::features {
namespace {

GramCounts make_counts(
    std::initializer_list<std::pair<std::vector<cfg::Label>, std::uint32_t>>
        entries) {
  GramCounts counts;
  for (const auto& [labels, count] : entries) {
    counts[pack_gram(labels)] = count;
  }
  return counts;
}

/// Vocabulary::tfidf_into over the dense row of `counts` (placed by
/// index_of; the total spans all grams), checked bitwise against the
/// map-based oracle.
std::vector<float> tfidf(const Vocabulary& vocab, const GramCounts& counts,
                         bool l2_normalize = true) {
  std::vector<std::uint32_t> dense(vocab.size(), 0);
  for (const auto& [key, count] : counts) {
    if (const auto idx = vocab.index_of(key)) dense[*idx] = count;
  }
  std::vector<float> out(vocab.size());
  vocab.tfidf_into(dense, total_occurrences(counts), out, l2_normalize);
  const auto oracle = oracles::tfidf_reference(vocab, counts, l2_normalize);
  EXPECT_EQ(0, std::memcmp(out.data(), oracle.data(),
                           out.size() * sizeof(float)));
  return out;
}

TEST(Vocabulary, SelectsTopKByTotalFrequency) {
  std::vector<GramCounts> corpus{
      make_counts({{{1, 2}, 10}, {{2, 3}, 5}, {{3, 4}, 1}}),
      make_counts({{{1, 2}, 10}, {{2, 3}, 5}}),
  };
  const auto vocab = Vocabulary::build(corpus, 2);
  EXPECT_EQ(vocab.size(), 2U);
  EXPECT_TRUE(vocab.index_of(pack_gram(std::vector<cfg::Label>{1, 2}))
                  .has_value());
  EXPECT_TRUE(vocab.index_of(pack_gram(std::vector<cfg::Label>{2, 3}))
                  .has_value());
  EXPECT_FALSE(vocab.index_of(pack_gram(std::vector<cfg::Label>{3, 4}))
                   .has_value());
  // Most frequent gram gets index 0.
  EXPECT_EQ(*vocab.index_of(pack_gram(std::vector<cfg::Label>{1, 2})), 0U);
  EXPECT_EQ(vocab.frequencies()[0], 20U);
}

TEST(Vocabulary, KeepsFewerWhenCorpusIsSmall) {
  std::vector<GramCounts> corpus{make_counts({{{1, 2}, 3}})};
  const auto vocab = Vocabulary::build(corpus, 500);
  EXPECT_EQ(vocab.size(), 1U);
}

TEST(Vocabulary, TieBrokenByKeyForDeterminism) {
  std::vector<GramCounts> corpus{
      make_counts({{{5, 5}, 4}, {{1, 1}, 4}, {{9, 9}, 4}})};
  const auto a = Vocabulary::build(corpus, 2);
  const auto b = Vocabulary::build(corpus, 2);
  EXPECT_EQ(a.grams(), b.grams());
  // Lower key wins the tie.
  EXPECT_EQ(a.grams()[0], pack_gram(std::vector<cfg::Label>{1, 1}));
}

TEST(Vocabulary, BuildValidation) {
  EXPECT_ERROR((void)Vocabulary::build({}, 10),
               core::ErrorCode::kInvalidArgument);
  std::vector<GramCounts> corpus{make_counts({{{1, 2}, 1}})};
  EXPECT_ERROR((void)Vocabulary::build(corpus, 0),
               core::ErrorCode::kInvalidArgument);
}

TEST(Vocabulary, IdfIsSmoothedLog) {
  // Gram A in both docs, gram B in one of two docs.
  std::vector<GramCounts> corpus{
      make_counts({{{1, 2}, 5}, {{2, 3}, 1}}),
      make_counts({{{1, 2}, 5}}),
  };
  const auto vocab = Vocabulary::build(corpus, 2);
  const auto idx_a = *vocab.index_of(pack_gram(std::vector<cfg::Label>{1, 2}));
  const auto idx_b = *vocab.index_of(pack_gram(std::vector<cfg::Label>{2, 3}));
  EXPECT_NEAR(vocab.idf()[idx_a], std::log(3.0 / 3.0) + 1.0, 1e-12);
  EXPECT_NEAR(vocab.idf()[idx_b], std::log(3.0 / 2.0) + 1.0, 1e-12);
  EXPECT_GT(vocab.idf()[idx_b], vocab.idf()[idx_a]);  // rarer = heavier
}

TEST(Vocabulary, TfidfVectorIsUnitNorm) {
  std::vector<GramCounts> corpus{
      make_counts({{{1, 2}, 5}, {{2, 3}, 3}, {{3, 4}, 2}})};
  const auto vocab = Vocabulary::build(corpus, 3);
  const auto vec = tfidf(vocab, corpus[0]);
  ASSERT_EQ(vec.size(), 3U);
  double norm = 0.0;
  for (float x : vec) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-5);
}

TEST(Vocabulary, TfidfWithoutNormalizationKeepsMassFraction) {
  std::vector<GramCounts> corpus{make_counts({{{1, 2}, 1}})};
  const auto vocab = Vocabulary::build(corpus, 1);
  // Sample where the vocab gram is only half the mass.
  const auto sample = make_counts({{{1, 2}, 2}, {{7, 7}, 2}});
  const auto vec = tfidf(vocab, sample, /*l2_normalize=*/false);
  // tf = 2/4, idf = ln(2/2)+1 = 1.
  EXPECT_NEAR(vec[0], 0.5F, 1e-6);
}

TEST(Vocabulary, TfidfOfEmptyCountsIsZero) {
  std::vector<GramCounts> corpus{make_counts({{{1, 2}, 1}})};
  const auto vocab = Vocabulary::build(corpus, 1);
  const auto vec = tfidf(vocab, GramCounts{});
  EXPECT_FLOAT_EQ(vec[0], 0.0F);
}

TEST(Vocabulary, UnknownGramsAreIgnoredButCountInTotal) {
  std::vector<GramCounts> corpus{make_counts({{{1, 2}, 4}})};
  const auto vocab = Vocabulary::build(corpus, 1);
  const auto with_noise = make_counts({{{1, 2}, 4}, {{8, 8}, 4}});
  const auto clean = make_counts({{{1, 2}, 4}});
  const auto v_noise = tfidf(vocab, with_noise, false);
  const auto v_clean = tfidf(vocab, clean, false);
  EXPECT_LT(v_noise[0], v_clean[0]);  // diluted term frequency
}

TEST(Vocabulary, SaveLoadRoundTrips) {
  std::vector<GramCounts> corpus{
      make_counts({{{1, 2}, 5}, {{2, 3}, 3}, {{1, 2, 3}, 2}})};
  const auto vocab = Vocabulary::build(corpus, 3);
  std::stringstream stream;
  vocab.save(stream);
  const auto loaded = Vocabulary::load(stream);
  EXPECT_EQ(loaded.grams(), vocab.grams());
  EXPECT_EQ(loaded.frequencies(), vocab.frequencies());
  EXPECT_EQ(loaded.idf(), vocab.idf());
  EXPECT_EQ(tfidf(loaded, corpus[0]), tfidf(vocab, corpus[0]));
  for (const GramKey key : vocab.grams()) {
    EXPECT_EQ(loaded.index_of(key), vocab.index_of(key));
  }
}

TEST(Vocabulary, LoadRejectsTruncatedStream) {
  std::stringstream stream;
  stream.write("junk", 4);
  EXPECT_ERROR((void)Vocabulary::load(stream), core::ErrorCode::kCorruptModel);
}

TEST(Vocabulary, LoadRejectsDuplicateOrZeroGramKeys) {
  // Duplicate or zero keys cannot come out of build(), only out of a
  // corrupt stream; the lookup table refuses them and load() reports
  // a corrupt model.
  const GramKey key = pack_gram(std::vector<cfg::Label>{1, 2});
  for (const std::vector<GramKey>& grams :
       {std::vector<GramKey>{key, key}, std::vector<GramKey>{key, 0}}) {
    std::stringstream stream;
    io::write_vector(stream, grams);
    io::write_vector(stream, std::vector<std::uint64_t>(grams.size(), 1));
    io::write_vector(stream, std::vector<double>(grams.size(), 1.0));
    try {
      (void)Vocabulary::load(stream);
      ADD_FAILURE() << "load accepted keys " << grams[0] << ", " << grams[1];
    } catch (const core::Error& error) {
      EXPECT_EQ(error.code(), core::ErrorCode::kCorruptModel);
    }
  }
}

}  // namespace
}  // namespace soteria::features
