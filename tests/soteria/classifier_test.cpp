#include "soteria/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <utility>

#include "expect_error.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
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

// Rows each CNN alone votes for one known class: pool[m][c] holds
// vectors that the DBL (m = 0) or LBL (m = 1) CNN votes class c for.
using VotePools =
    std::array<std::array<std::vector<std::vector<float>>,
                          dataset::kFamilyCount>,
               2>;

VotePools vote_pools(const FamilyClassifier& classifier,
                     std::uint64_t seed) {
  math::Rng rng(seed);
  VotePools pools;
  for (std::size_t i = 0; i < 200; ++i) {
    const auto row = class_vector(i % dataset::kFamilyCount, rng);
    features::SampleFeatures dbl_only;
    dbl_only.dbl = {row};
    pools[0][dataset::family_index(classifier.tally(dbl_only).winner())]
        .push_back(row);
    features::SampleFeatures lbl_only;
    lbl_only.lbl = {row};
    pools[1][dataset::family_index(classifier.tally(lbl_only).winner())]
        .push_back(row);
  }
  return pools;
}

// `count` rows the model-`m` CNN votes class `c` for, cycling the pool.
std::vector<std::vector<float>> voted_rows(const VotePools& pools,
                                           std::size_t m, std::size_t c,
                                           std::size_t count) {
  const auto& pool = pools[m][c];
  std::vector<std::vector<float>> rows;
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back(pool[i % pool.size()]);
  }
  return rows;
}

// predict's class and the rows it ran, read from the
// soteria.classifier.rows record it leaves in a fresh registry.
std::pair<dataset::Family, std::size_t> predict_counting_rows(
    const FamilyClassifier& classifier,
    const features::SampleFeatures& features) {
  obs::registry().reset();
  obs::set_enabled(true);
  const dataset::Family family = classifier.predict(features);
  obs::set_enabled(false);
  const auto snapshot = obs::registry().snapshot();
  obs::registry().reset();
  const auto& rows = snapshot.histograms.at("soteria.classifier.rows");
  EXPECT_EQ(rows.count, 1U);
  return {family, static_cast<std::size_t>(rows.sum)};
}

TEST(FamilyClassifier, PredictEqualsFullTallyWinner) {
  const auto classifier = trained_classifier();
  const auto pools = vote_pools(classifier, 4242);
  // Two classes that both CNNs vote for, to build decided and tied
  // bundles from.
  std::vector<std::size_t> voted;
  for (std::size_t c = 0; c < dataset::kFamilyCount; ++c) {
    if (!pools[0][c].empty() && !pools[1][c].empty()) voted.push_back(c);
  }
  ASSERT_GE(voted.size(), 2U);
  const std::size_t a = voted[0];
  const std::size_t b = voted[1];

  std::vector<features::SampleFeatures> bundles;
  // Empty labelings, one row each, and odd row counts.
  for (const auto& [dbl, lbl] :
       {std::pair{0, 10}, std::pair{10, 0}, std::pair{0, 0},
        std::pair{1, 1}, std::pair{1, 0}, std::pair{0, 1},
        std::pair{3, 7}, std::pair{7, 3}, std::pair{5, 1},
        std::pair{9, 11}, std::pair{11, 9}, std::pair{1, 13}}) {
    features::SampleFeatures f;
    math::Rng rng(static_cast<std::uint64_t>(700 + dbl * 20 + lbl));
    for (int i = 0; i < dbl; ++i) {
      f.dbl.push_back(class_vector(rng.index(dataset::kFamilyCount), rng));
    }
    for (int i = 0; i < lbl; ++i) {
      f.lbl.push_back(class_vector(rng.index(dataset::kFamilyCount), rng));
    }
    bundles.push_back(std::move(f));
  }
  // The first 11 rows agree: the vote is fixed before the last row.
  const std::size_t decided_begin = bundles.size();
  for (const std::size_t c : voted) {
    features::SampleFeatures f;
    f.dbl = voted_rows(pools, 0, c, 10);
    f.lbl = voted_rows(pools, 1, c, 1);
    const std::size_t other = c == a ? b : a;
    for (const auto& row : voted_rows(pools, 1, other, 9)) {
      f.lbl.push_back(row);
    }
    bundles.push_back(std::move(f));
  }
  const std::size_t decided_end = bundles.size();
  // 10-10 ties: every row counts and probability mass decides.
  const std::size_t tied_begin = bundles.size();
  {
    features::SampleFeatures f;
    f.dbl = voted_rows(pools, 0, a, 10);
    f.lbl = voted_rows(pools, 1, b, 10);
    bundles.push_back(std::move(f));
  }
  {
    features::SampleFeatures f;
    f.dbl = voted_rows(pools, 0, a, 5);
    for (const auto& row : voted_rows(pools, 0, b, 5)) f.dbl.push_back(row);
    f.lbl = voted_rows(pools, 1, b, 5);
    for (const auto& row : voted_rows(pools, 1, a, 5)) f.lbl.push_back(row);
    bundles.push_back(std::move(f));
  }
  const std::size_t tied_end = bundles.size();
  // Random bundles: mostly 10 + 10 rows drawn from two classes, so that
  // votes split and ties are common; every fourth has 0-12 rows each.
  math::Rng rng(31337);
  for (std::size_t i = 0; i < 600; ++i) {
    const std::size_t first = rng.index(dataset::kFamilyCount);
    const std::size_t second = rng.index(dataset::kFamilyCount);
    const bool ragged = i % 4 == 3;
    const std::size_t dbl_rows = ragged ? rng.index(13) : 10;
    const std::size_t lbl_rows = ragged ? rng.index(13) : 10;
    features::SampleFeatures f;
    for (std::size_t r = 0; r < dbl_rows; ++r) {
      f.dbl.push_back(class_vector(rng.bernoulli(0.5) ? first : second, rng));
    }
    for (std::size_t r = 0; r < lbl_rows; ++r) {
      f.lbl.push_back(class_vector(rng.bernoulli(0.5) ? first : second, rng));
    }
    bundles.push_back(std::move(f));
  }

  // predict records the rows it ran as soteria.classifier.rows; a
  // bundle whose full tally ties must run every row.
  std::size_t stopped_early = 0;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    const VoteTally tally = classifier.tally(bundles[i]);
    const std::size_t all_rows = bundles[i].dbl.size() + bundles[i].lbl.size();
    const auto [family, rows] = predict_counting_rows(classifier, bundles[i]);
    EXPECT_EQ(family, tally.winner())
        << "bundle " << i << " (" << bundles[i].dbl.size() << " DBL + "
        << bundles[i].lbl.size() << " LBL rows)";
    EXPECT_LE(rows, all_rows) << "bundle " << i;
    std::vector<std::size_t> votes = tally.votes;
    std::sort(votes.rbegin(), votes.rend());
    if (votes[0] == votes[1]) {
      EXPECT_EQ(rows, all_rows) << "bundle " << i;
      ++ties;
    }
    if (i >= tied_begin && i < tied_end) {
      EXPECT_EQ(tally.votes[a], 10U);
      EXPECT_EQ(tally.votes[b], 10U);
      EXPECT_EQ(rows, 20U);
    }
    if (i >= decided_begin && i < decided_end) {
      EXPECT_GE(votes[0], 11U);
      EXPECT_LT(rows, 20U);
    }
    if (rows < all_rows) ++stopped_early;
  }
  EXPECT_GT(stopped_early, bundles.size() / 4);
  EXPECT_GT(ties, 10U);
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
