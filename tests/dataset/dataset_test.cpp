#include "dataset/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "dataset/adversarial.h"
#include "dataset/family_profiles.h"
#include "expect_error.h"
#include "graph/traversal.h"

namespace soteria::dataset {
namespace {

TEST(Family, IndexRoundTrips) {
  for (Family f : all_families()) {
    EXPECT_EQ(family_from_index(family_index(f)), f);
  }
  EXPECT_ERROR((void)family_from_index(4), core::ErrorCode::kInvalidArgument);
}

TEST(Family, NamesAreDistinct) {
  std::set<std::string> names;
  for (Family f : all_families()) names.insert(family_name(f));
  EXPECT_EQ(names.size(), kFamilyCount);
}

TEST(DatasetConfig, Validation) {
  EXPECT_NO_THROW(validate(DatasetConfig{}));
  DatasetConfig bad_scale;
  bad_scale.scale = 0.0;
  EXPECT_ERROR(validate(bad_scale), core::ErrorCode::kInvalidArgument);
  DatasetConfig bad_fraction;
  bad_fraction.train_fraction = 1.0;
  EXPECT_ERROR(validate(bad_fraction), core::ErrorCode::kInvalidArgument);
  DatasetConfig bad_variants;
  bad_variants.min_variants = 0;
  EXPECT_ERROR(validate(bad_variants), core::ErrorCode::kInvalidArgument);
  DatasetConfig bad_ratio;
  bad_ratio.variant_ratio[1] = 0.0;
  EXPECT_ERROR(validate(bad_ratio), core::ErrorCode::kInvalidArgument);
}

TEST(ScaledCount, FloorsWithMinimum) {
  EXPECT_EQ(scaled_count(1000, 0.5), 500U);
  EXPECT_EQ(scaled_count(1000, 0.001), 5U);  // floor of 1 -> min 5
  EXPECT_EQ(scaled_count(10, 1.0), 10U);
}

TEST(VariantCount, RespectsRatiosAndBounds) {
  DatasetConfig config;
  EXPECT_EQ(variant_count(config, Family::kGafgyt, 1000),
            static_cast<std::size_t>(1000 * config.variant_ratio[1]));
  EXPECT_EQ(variant_count(config, Family::kTsunami, 10),
            config.min_variants);
  EXPECT_LE(variant_count(config, Family::kBenign, 2), 2U);
}

TEST(GenerateSample, ProducesReachableCfg) {
  math::Rng rng(1);
  for (Family f : all_families()) {
    const auto sample = generate_sample(f, 7, rng);
    EXPECT_EQ(sample.family, f);
    EXPECT_EQ(sample.id, 7U);
    EXPECT_FALSE(sample.binary.empty());
    EXPECT_GE(sample.cfg.node_count(), 8U);
    const auto reach =
        graph::reachable_from(sample.cfg.graph(), sample.cfg.entry());
    for (bool r : reach) EXPECT_TRUE(r);
  }
}

TEST(GenerateVariantSample, SameSeedGivesClusteredCfgs) {
  math::Rng rng(2);
  isa::MutationConfig mutation;
  const auto a = generate_variant_sample(Family::kMirai, 0, 555, mutation,
                                         rng);
  const auto b = generate_variant_sample(Family::kMirai, 1, 555, mutation,
                                         rng);
  const auto c = generate_variant_sample(Family::kMirai, 2, 777, mutation,
                                         rng);
  // Same strain: node counts within mutation distance of each other.
  const auto na = static_cast<double>(a.cfg.node_count());
  const auto nb = static_cast<double>(b.cfg.node_count());
  EXPECT_LT(std::abs(na - nb), 16.0);
  // Mutations actually changed something between strain-mates.
  EXPECT_NE(a.binary, b.binary);
  (void)c;
}

TEST(GenerateDataset, SplitsAreStratified) {
  DatasetConfig config;
  config.scale = 0.005;
  math::Rng rng(3);
  const auto data = generate_dataset(config, rng);
  const auto train_counts = Dataset::class_counts(data.train);
  const auto test_counts = Dataset::class_counts(data.test);
  for (Family f : all_families()) {
    const auto i = family_index(f);
    EXPECT_GE(train_counts[i], 1U) << family_name(f);
    EXPECT_GE(test_counts[i], 1U) << family_name(f);
    const double total =
        static_cast<double>(train_counts[i] + test_counts[i]);
    EXPECT_NEAR(static_cast<double>(train_counts[i]) / total, 0.8, 0.15);
  }
}

TEST(GenerateDataset, DeterministicGivenSeed) {
  DatasetConfig config;
  config.scale = 0.003;
  math::Rng a(4);
  math::Rng b(4);
  const auto da = generate_dataset(config, a);
  const auto db = generate_dataset(config, b);
  ASSERT_EQ(da.train.size(), db.train.size());
  for (std::size_t i = 0; i < da.train.size(); ++i) {
    EXPECT_EQ(da.train[i].binary, db.train[i].binary);
    EXPECT_EQ(da.train[i].family, db.train[i].family);
  }
}

TEST(GenerateDataset, ClassRatiosFollowPaper) {
  DatasetConfig config;
  config.scale = 0.02;
  math::Rng rng(5);
  const auto data = generate_dataset(config, rng);
  const auto train = Dataset::class_counts(data.train);
  const auto test = Dataset::class_counts(data.test);
  const double gafgyt = static_cast<double>(train[1] + test[1]);
  const double benign = static_cast<double>(train[0] + test[0]);
  // Paper: Gafgyt ~3.7x Benign.
  EXPECT_NEAR(gafgyt / benign, 11085.0 / 3016.0, 0.8);
}

TEST(SelectTargets, OrdersSmallMedianLarge) {
  DatasetConfig config;
  config.scale = 0.004;
  math::Rng rng(6);
  const auto data = generate_dataset(config, rng);
  for (Family f : all_families()) {
    const auto targets = select_targets(data.train, f);
    ASSERT_EQ(targets.size(), 3U);
    EXPECT_EQ(targets[0].size, TargetSize::kSmall);
    EXPECT_EQ(targets[2].size, TargetSize::kLarge);
    EXPECT_LE(targets[0].node_count, targets[1].node_count);
    EXPECT_LE(targets[1].node_count, targets[2].node_count);
    EXPECT_EQ(targets[0].family, f);
  }
}

TEST(SelectTargets, MissingClassThrows) {
  std::vector<Sample> only_benign;
  math::Rng rng(7);
  only_benign.push_back(generate_sample(Family::kBenign, 0, rng));
  EXPECT_ERROR((void)select_targets(only_benign, Family::kMirai),
               core::ErrorCode::kInvalidArgument);
}

TEST(AdversarialSet, ExcludesTargetClassAndCountsMatch) {
  DatasetConfig config;
  config.scale = 0.004;
  math::Rng rng(8);
  const auto data = generate_dataset(config, rng);
  const auto targets = select_targets(data.train, Family::kBenign);
  const auto aes = generate_adversarial_set(data.test, targets[1]);

  const auto test_counts = Dataset::class_counts(data.test);
  const std::size_t expected = data.test.size() - test_counts[0];
  EXPECT_EQ(aes.size(), expected);
  for (const auto& ae : aes) {
    EXPECT_NE(ae.original_family, Family::kBenign);
    EXPECT_EQ(ae.target_family, Family::kBenign);
    EXPECT_EQ(ae.target_size, TargetSize::kMedium);
    EXPECT_GT(ae.cfg.node_count(), targets[1].node_count);
  }
}

TEST(AdversarialSet, FullSetCoversTwelveTargets) {
  DatasetConfig config;
  config.scale = 0.004;
  math::Rng rng(9);
  const auto data = generate_dataset(config, rng);
  const auto targets = select_all_targets(data.train);
  ASSERT_EQ(targets.size(), 12U);
  std::size_t total = 0;
  std::size_t expected = 0;
  const auto test_counts = Dataset::class_counts(data.test);
  for (const auto& t : targets) {
    total += generate_adversarial_set(data.test, t).size();
    expected += data.test.size() - test_counts[family_index(t.family)];
  }
  EXPECT_EQ(total, expected);
}

TEST(TargetSize, NamesAreDistinct) {
  EXPECT_STREQ(target_size_name(TargetSize::kSmall), "Small");
  EXPECT_STREQ(target_size_name(TargetSize::kMedium), "Medium");
  EXPECT_STREQ(target_size_name(TargetSize::kLarge), "Large");
}

}  // namespace
}  // namespace soteria::dataset
