#include "soteria/classifier.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "expect_error.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "soteria/error.h"

namespace soteria::core {
namespace {

constexpr std::size_t kDim = 24;

// Class-c vectors carry an elevated contiguous block (conv-friendly
// spatial pattern): dims [6c, 6c+6).
std::vector<float> class_vector(std::size_t class_index, math::Rng& rng) {
  std::vector<float> v(kDim, 0.0F);
  for (std::size_t i = 6 * class_index; i < 6 * class_index + 6; ++i) {
    v[i] = 0.8F + static_cast<float>(rng.normal(0.0, 0.05));
  }
  for (float& x : v) x += static_cast<float>(rng.normal(0.0, 0.02));
  return v;
}

LabeledVectors make_training(std::size_t per_class, std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<std::vector<float>> rows;
  std::vector<std::size_t> labels;
  for (std::size_t c = 0; c < dataset::kFamilyCount; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      rows.push_back(class_vector(c, rng));
      labels.push_back(c);
    }
  }
  return LabeledVectors{pack_rows(rows), std::move(labels)};
}

nn::CnnConfig tiny_cnn() {
  nn::CnnConfig config;
  config.filters = 4;
  config.dense_units = 16;
  return config;
}

FamilyClassifier trained_classifier(std::uint64_t seed = 1) {
  math::Rng rng(seed);
  const auto dbl = make_training(32, seed + 100);
  const auto lbl = make_training(32, seed + 200);
  return FamilyClassifier::train(dbl, lbl, tiny_cnn(),
                                 nn::make_train_config(60, 16), 5e-3, rng);
}

features::SampleFeatures features_for_class(std::size_t class_index,
                                            std::uint64_t seed) {
  math::Rng rng(seed);
  features::SampleFeatures features;
  for (int w = 0; w < 5; ++w) {
    features.dbl.push_back(class_vector(class_index, rng));
    features.lbl.push_back(class_vector(class_index, rng));
  }
  return features;
}

TEST(PackRows, BuildsMatrixAndValidates) {
  const auto m = pack_rows({{1.0F, 2.0F}, {3.0F, 4.0F}});
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_FLOAT_EQ(m(1, 0), 3.0F);
  EXPECT_ERROR((void)pack_rows({}), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)pack_rows({{1.0F}, {1.0F, 2.0F}}),
               core::ErrorCode::kInvalidArgument);
}

TEST(FamilyClassifier, LearnsSyntheticClasses) {
  auto classifier = trained_classifier();
  std::size_t correct = 0;
  for (std::size_t c = 0; c < dataset::kFamilyCount; ++c) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto features =
          features_for_class(c, 1000 + 10 * c + trial);
      if (classifier.predict(features) == dataset::family_from_index(c)) {
        ++correct;
      }
    }
  }
  EXPECT_GE(correct, 17U);  // 85%+ on clean synthetic classes
}

TEST(FamilyClassifier, VoteCountsSumToAllVectors) {
  auto classifier = trained_classifier();
  const auto features = features_for_class(1, 77);
  const auto tally = classifier.tally(features);
  std::size_t total = 0;
  for (std::size_t v : tally.votes) total += v;
  EXPECT_EQ(total, features.dbl.size() + features.lbl.size());
  EXPECT_EQ(tally.winner(), classifier.predict(features));
}

TEST(FamilyClassifier, SingleLabelingPredictionsWork) {
  auto classifier = trained_classifier();
  const auto features = features_for_class(2, 88);
  EXPECT_EQ(classifier.predict_dbl_only(features),
            dataset::family_from_index(2));
  EXPECT_EQ(classifier.predict_lbl_only(features),
            dataset::family_from_index(2));
}

TEST(FamilyClassifier, TrainValidation) {
  math::Rng rng(5);
  LabeledVectors empty;
  const auto good = make_training(4, 6);
  EXPECT_ERROR((void)FamilyClassifier::train(empty, good, tiny_cnn(),
                                             nn::make_train_config(1, 4),
                                             1e-3, rng),
               core::ErrorCode::kInvalidArgument);
  LabeledVectors mismatched = make_training(4, 7);
  mismatched.labels.pop_back();
  EXPECT_ERROR((void)FamilyClassifier::train(mismatched, good, tiny_cnn(),
                                             nn::make_train_config(1, 4),
                                             1e-3, rng),
               core::ErrorCode::kInvalidArgument);
}

TEST(FamilyClassifier, SaveLoadRoundTripsPredictions) {
  auto classifier = trained_classifier(3);
  std::stringstream stream;
  classifier.save(stream);
  auto loaded = FamilyClassifier::load(stream, kDim, kDim);
  for (std::size_t c = 0; c < dataset::kFamilyCount; ++c) {
    const auto features = features_for_class(c, 500 + c);
    EXPECT_EQ(loaded.predict(features), classifier.predict(features));
  }
}

TEST(FamilyClassifier, LoadRejectsOtherInputLengths) {
  const auto classifier = trained_classifier(3);
  std::stringstream stream;
  classifier.save(stream);
  const std::string bytes = stream.str();
  for (const auto& [dbl, lbl] : {std::pair{kDim + 1, kDim},
                                 std::pair{kDim, kDim - 1}}) {
    std::istringstream in(bytes);
    try {
      (void)FamilyClassifier::load(in, dbl, lbl);
      FAIL() << "CNNs for " << kDim << "-long vectors loaded for " << dbl
             << "/" << lbl;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptModel);
    }
  }
}

TEST(FamilyClassifier, TrainingLossDecreases) {
  // The DBL half of trained_classifier(4), step for step: build_cnn and
  // nn::train_classifier on one rng, as FamilyClassifier::train runs
  // them. The per-epoch losses must fall.
  math::Rng rng(4);
  const auto dbl = make_training(32, 104);
  nn::CnnConfig arch = tiny_cnn();
  arch.input_length = kDim;
  nn::Sequential model = nn::build_cnn(arch, rng);
  nn::Adam optimizer(5e-3);
  const auto report =
      nn::train_classifier(model, dbl.features, dbl.labels, optimizer,
                           nn::make_train_config(60, 16), rng);
  ASSERT_GE(report.epoch_losses.size(), 2U);
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front());
}

}  // namespace
}  // namespace soteria::core
