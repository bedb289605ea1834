#include "features/ngram.h"

#include <gtest/gtest.h>

#include "expect_error.h"

namespace soteria::features {
namespace {

class GramLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GramLength, PackUnpackRoundTrips) {
  const std::size_t n = GetParam();
  std::vector<cfg::Label> labels;
  for (std::size_t i = 0; i < n; ++i) labels.push_back(100 * i + 7);
  const GramKey key = pack_gram(labels);
  EXPECT_EQ(gram_length(key), n);
  EXPECT_EQ(unpack_gram(key), labels);
}

INSTANTIATE_TEST_SUITE_P(Lengths, GramLength, ::testing::Values(1, 2, 3, 4));

TEST(Gram, MaxLabelRoundTrips) {
  const std::vector<cfg::Label> labels{kMaxGramLabel, 0, kMaxGramLabel};
  EXPECT_EQ(unpack_gram(pack_gram(labels)), labels);
}

TEST(Gram, DistinctGramsGetDistinctKeys) {
  const std::vector<cfg::Label> a{1, 2};
  const std::vector<cfg::Label> b{2, 1};
  const std::vector<cfg::Label> c{1, 2, 0};
  EXPECT_NE(pack_gram(a), pack_gram(b));
  EXPECT_NE(pack_gram(a), pack_gram(c));  // length differs
}

TEST(Gram, PackValidation) {
  EXPECT_ERROR((void)pack_gram(std::vector<cfg::Label>{}),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)pack_gram(std::vector<cfg::Label>{1, 2, 3, 4, 5}),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)pack_gram(std::vector<cfg::Label>{kMaxGramLabel + 1}),
               core::ErrorCode::kInvalidArgument);
}

TEST(CountGrams, CountsSlidingWindows) {
  const std::vector<cfg::Label> walk{1, 2, 1, 2, 1};
  const std::vector<std::size_t> sizes{2};
  GramCounts counts;
  count_grams(walk, sizes, counts);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{1, 2})), 2U);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{2, 1})), 2U);
  EXPECT_EQ(counts.size(), 2U);
  EXPECT_EQ(total_occurrences(counts), 4U);
}

TEST(CountGrams, MultipleSizesAccumulate) {
  const std::vector<cfg::Label> walk{3, 3, 3};
  const std::vector<std::size_t> sizes{2, 3};
  GramCounts counts;
  count_grams(walk, sizes, counts);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{3, 3})), 2U);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{3, 3, 3})), 1U);
}

TEST(CountGrams, ShortWalksProduceNothing) {
  const std::vector<cfg::Label> walk{1};
  const std::vector<std::size_t> sizes{2, 3, 4};
  GramCounts counts;
  count_grams(walk, sizes, counts);
  EXPECT_TRUE(counts.empty());
}

TEST(CountGrams, ValidatesSizes) {
  const std::vector<cfg::Label> walk{1, 2, 3};
  GramCounts counts;
  const std::vector<std::size_t> zero{0};
  const std::vector<std::size_t> huge{5};
  EXPECT_ERROR(count_grams(walk, zero, counts),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(count_grams(walk, huge, counts),
               core::ErrorCode::kInvalidArgument);
}

TEST(CountGrams, AccumulatesAcrossWalks) {
  const std::vector<std::vector<cfg::Label>> walks{{1, 2}, {1, 2}};
  const std::vector<std::size_t> sizes{2};
  GramCounts counts;
  for (const auto& walk : walks) count_grams(walk, sizes, counts);
  EXPECT_EQ(counts.at(pack_gram(std::vector<cfg::Label>{1, 2})), 2U);
}

TEST(Gram, ToStringFormatsDashSeparated) {
  EXPECT_EQ(gram_to_string(pack_gram(std::vector<cfg::Label>{3, 1, 4})),
            "3-1-4");
  EXPECT_EQ(gram_to_string(pack_gram(std::vector<cfg::Label>{9})), "9");
}

}  // namespace
}  // namespace soteria::features
