#include <gtest/gtest.h>

#include "baseline/graph_features.h"
#include "baseline/image_classifier.h"
#include "dataset/generator.h"
#include "expect_error.h"

namespace soteria::baseline {
namespace {

dataset::Dataset tiny_dataset() {
  dataset::DatasetConfig config;
  config.scale = 0.006;
  math::Rng rng(31);
  return dataset::generate_dataset(config, rng);
}

TEST(GraphBaseline, RawFeaturesHaveFixedLayout) {
  math::Rng rng(1);
  const auto sample =
      dataset::generate_sample(dataset::Family::kMirai, 0, rng);
  const auto features = GraphFeatureBaseline::raw_features(sample.cfg);
  EXPECT_EQ(features.size(), graph::kGraphFeatureCount);
  EXPECT_FLOAT_EQ(features[0],
                  static_cast<float>(sample.cfg.node_count()));
}

TEST(GraphBaseline, TrainsAndPredictsValidClasses) {
  const auto data = tiny_dataset();
  GraphBaselineConfig config;
  config.training = nn::make_train_config(20, 32);
  auto baseline = GraphFeatureBaseline::train(data.train, config);
  EXPECT_GT(baseline.train_report().epoch_losses.size(), 0U);
  std::size_t correct = 0;
  for (const auto& sample : data.test) {
    const auto predicted = baseline.predict(sample.cfg);
    EXPECT_LT(dataset::family_index(predicted), dataset::kFamilyCount);
    correct += predicted == sample.family;
  }
  // Graph statistics separate these families far better than chance.
  EXPECT_GT(correct * 2, data.test.size());
}

TEST(GraphBaseline, StandardizationUsesTrainStatistics) {
  const auto data = tiny_dataset();
  GraphBaselineConfig config;
  config.training = nn::make_train_config(2, 32);
  auto baseline = GraphFeatureBaseline::train(data.train, config);
  const auto standardized = baseline.features_for(data.test[0].cfg);
  EXPECT_EQ(standardized.size(), graph::kGraphFeatureCount);
  // Standardized features should be O(1), not raw node counts.
  for (float v : standardized) EXPECT_LT(std::abs(v), 50.0F);
}

TEST(GraphBaseline, UntrainedThrows) {
  GraphFeatureBaseline baseline;
  math::Rng rng(2);
  const auto sample =
      dataset::generate_sample(dataset::Family::kBenign, 0, rng);
  EXPECT_ERROR((void)baseline.features_for(sample.cfg),
               core::ErrorCode::kInvalidArgument);
}

TEST(GraphBaseline, EmptyTrainingThrows) {
  EXPECT_ERROR(
      (void)GraphFeatureBaseline::train({}, GraphBaselineConfig{}),
               core::ErrorCode::kInvalidArgument);
}

TEST(ImageBaseline, ToImageResamplesAndNormalizes) {
  const std::vector<std::uint8_t> binary{0, 255, 128, 64};
  const auto image = ImageBaseline::to_image(binary, 2);
  ASSERT_EQ(image.size(), 4U);
  EXPECT_FLOAT_EQ(image[0], 0.0F);
  EXPECT_FLOAT_EQ(image[1], 1.0F);
  for (float p : image) {
    EXPECT_GE(p, 0.0F);
    EXPECT_LE(p, 1.0F);
  }
}

TEST(ImageBaseline, ToImageHandlesAnyBinarySize) {
  std::vector<std::uint8_t> tiny{42};
  const auto small = ImageBaseline::to_image(tiny, 8);
  EXPECT_EQ(small.size(), 64U);
  for (float p : small) EXPECT_FLOAT_EQ(p, 42.0F / 255.0F);

  std::vector<std::uint8_t> large(10000);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(ImageBaseline::to_image(large, 16).size(), 256U);
}

TEST(ImageBaseline, ToImageValidation) {
  EXPECT_ERROR((void)ImageBaseline::to_image({}, 8),
               core::ErrorCode::kInvalidArgument);
  const std::vector<std::uint8_t> bytes{1};
  EXPECT_ERROR((void)ImageBaseline::to_image(bytes, 0),
               core::ErrorCode::kInvalidArgument);
}

TEST(ImageBaseline, AppendedBytesChangeTheImage) {
  // The weakness the paper contrasts against CFG features: appended
  // (unreachable) bytes change the image representation.
  math::Rng rng(3);
  auto sample = dataset::generate_sample(dataset::Family::kGafgyt, 0, rng);
  const auto before = ImageBaseline::to_image(sample.binary, 16);
  sample.binary.insert(sample.binary.end(), 512, 0xAB);
  const auto after = ImageBaseline::to_image(sample.binary, 16);
  EXPECT_NE(before, after);
}

TEST(ImageBaseline, TrainsAndPredicts) {
  const auto data = tiny_dataset();
  ImageBaselineConfig config;
  config.image_side = 16;
  config.training = nn::make_train_config(15, 32);
  auto baseline = ImageBaseline::train(data.train, config);
  EXPECT_EQ(baseline.image_side(), 16U);
  std::size_t valid = 0;
  for (const auto& sample : data.test) {
    const auto predicted = baseline.predict(sample.binary);
    valid += dataset::family_index(predicted) < dataset::kFamilyCount;
  }
  EXPECT_EQ(valid, data.test.size());
}

TEST(ImageBaseline, UntrainedThrows) {
  ImageBaseline baseline;
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  EXPECT_ERROR((void)baseline.predict(bytes),
               core::ErrorCode::kInvalidArgument);
}

TEST(ImageBaseline, EmptyTrainingThrows) {
  EXPECT_ERROR((void)ImageBaseline::train({}, ImageBaselineConfig{}),
               core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::baseline
