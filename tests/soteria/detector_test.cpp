#include "soteria/detector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "expect_error.h"
#include "soteria/error.h"

namespace soteria::core {
namespace {

// Clean data: tight cluster around a fixed sparse pattern. Anomalies:
// a shifted pattern.
math::Matrix cluster(std::size_t rows, float center, std::uint64_t seed,
                     std::size_t dim = 24) {
  math::Rng rng(seed);
  math::Matrix m(rows, dim);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      const float base = (c % 4 == 0) ? center : 0.1F;
      m(r, c) = base + static_cast<float>(rng.normal(0.0, 0.02));
    }
  }
  return m;
}

nn::AutoencoderConfig tiny_arch() {
  nn::AutoencoderConfig config;
  config.hidden_dims = {16, 24, 16};
  return config;
}

AeDetector trained_detector(double alpha = 1.0) {
  math::Rng rng(1);
  const auto train = cluster(64, 1.0F, 2);
  const auto calibration = cluster(16, 1.0F, 3);
  return AeDetector::train(train, calibration, tiny_arch(),
                           nn::make_train_config(40, 16), alpha, 1e-2, rng);
}

TEST(AeDetector, SeparatesShiftedCluster) {
  auto detector = trained_detector();
  const auto clean = cluster(8, 1.0F, 4);
  const auto anomalous = cluster(8, 3.0F, 5);
  const auto clean_scores = detector.scores(clean);
  const auto anomaly_scores = detector.scores(anomalous);
  double clean_mean = 0.0;
  double anomaly_mean = 0.0;
  for (double v : clean_scores) clean_mean += v;
  for (double v : anomaly_scores) anomaly_mean += v;
  EXPECT_GT(anomaly_mean / 8.0, 3.0 * clean_mean / 8.0);
  EXPECT_GT(detector.sample_error(anomalous), detector.threshold());
}

TEST(AeDetector, CleanSamplesScoreNearCalibrationMean) {
  auto detector = trained_detector();
  const auto clean = cluster(16, 1.0F, 6);
  const double score = detector.sample_error(clean);
  EXPECT_LT(score, detector.training_mean() +
                       4.0 * detector.training_stddev() + 0.5);
}

TEST(AeDetector, ThresholdFormula) {
  auto detector = trained_detector(1.5);
  EXPECT_DOUBLE_EQ(detector.threshold(), detector.training_mean() +
                                             1.5 * detector.training_stddev());
  EXPECT_DOUBLE_EQ(detector.alpha(), 1.5);
}

TEST(AeDetector, SetAlphaRederivesThreshold) {
  auto detector = trained_detector();
  const double mean = detector.training_mean();
  const double stddev = detector.training_stddev();
  detector.set_alpha(0.0);
  EXPECT_DOUBLE_EQ(detector.threshold(), mean);
  detector.set_alpha(2.0);
  EXPECT_DOUBLE_EQ(detector.threshold(), mean + 2.0 * stddev);
  EXPECT_ERROR(detector.set_alpha(-0.5), core::ErrorCode::kInvalidArgument);
}

TEST(AeDetector, TrainValidation) {
  math::Rng rng(7);
  const auto good = cluster(16, 1.0F, 8);
  const auto calibration = cluster(8, 1.0F, 9);
  EXPECT_ERROR((void)AeDetector::train(math::Matrix{}, calibration,
                                       tiny_arch(),
                                       nn::make_train_config(1, 4), 1.0,
                                       1e-2, rng),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)AeDetector::train(good, math::Matrix(8, 3),
                                       tiny_arch(),
                                       nn::make_train_config(1, 4), 1.0,
                                       1e-2, rng),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)AeDetector::train(good, cluster(2, 1.0F, 10),
                                       tiny_arch(),
                                       nn::make_train_config(1, 4), 1.0,
                                       1e-2, rng),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)AeDetector::train(good, calibration, tiny_arch(),
                                       nn::make_train_config(1, 4), -1.0,
                                       1e-2, rng),
               core::ErrorCode::kInvalidArgument);
}

TEST(AeDetector, ScoresValidateWidth) {
  auto detector = trained_detector();
  EXPECT_ERROR((void)detector.scores(math::Matrix(2, 7)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)detector.sample_error(math::Matrix(0, 24)),
               core::ErrorCode::kInvalidArgument);
}

TEST(AeDetector, UntrainedDetectorThrows) {
  AeDetector detector;
  EXPECT_ERROR((void)detector.scores(math::Matrix(1, 4)),
               core::ErrorCode::kInvalidArgument);
}

TEST(AeDetector, TrainingLossDecreases) {
  auto detector = trained_detector();
  const auto& losses = detector.train_report().epoch_losses;
  ASSERT_GE(losses.size(), 2U);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(AeDetector, SaveLoadRoundTripsScores) {
  auto detector = trained_detector();
  std::stringstream stream;
  detector.save(stream);
  auto loaded = AeDetector::load(stream, 24);
  EXPECT_DOUBLE_EQ(loaded.threshold(), detector.threshold());
  const auto probe = cluster(4, 1.0F, 11);
  EXPECT_EQ(loaded.scores(probe), detector.scores(probe));
  EXPECT_EQ(loaded.reconstruction_errors(probe),
            detector.reconstruction_errors(probe));
}

TEST(AeDetector, LoadRejectsGarbage) {
  std::stringstream stream;
  stream.write("nonsense", 8);
  EXPECT_ERROR((void)AeDetector::load(stream, 24),
               core::ErrorCode::kCorruptModel);
}

TEST(AeDetector, LoadRejectsOtherInputWidth) {
  auto detector = trained_detector();
  std::stringstream stream;
  detector.save(stream);
  try {
    (void)AeDetector::load(stream, 25);
    FAIL() << "a 24-wide detector loaded for 25-wide rows";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptModel);
  }
}

// A calibration set whose rows are bit-identical produces identical
// reconstruction-error scores: sigma must collapse to exactly 0 and the
// threshold to exactly the mean — never NaN, never a spurious epsilon
// from FP cancellation in the variance.
TEST(AeDetector, DegenerateCalibrationYieldsMeanThreshold) {
  math::Rng rng(12);
  const auto train = cluster(64, 1.0F, 13);
  math::Matrix calibration(16, 24);
  for (std::size_t r = 0; r < calibration.rows(); ++r) {
    for (std::size_t c = 0; c < calibration.cols(); ++c) {
      calibration(r, c) = (c % 4 == 0) ? 1.0F : 0.1F;
    }
  }
  auto detector =
      AeDetector::train(train, calibration, tiny_arch(),
                        nn::make_train_config(10, 16), 1.0, 1e-2, rng);
  EXPECT_TRUE(std::isfinite(detector.threshold()));
  EXPECT_FALSE(std::isnan(detector.threshold()));
  EXPECT_DOUBLE_EQ(detector.training_stddev(), 0.0);
  EXPECT_EQ(detector.threshold(), detector.training_mean());

  // Re-deriving the threshold from any alpha keeps Th == mu.
  detector.set_alpha(100.0);
  EXPECT_EQ(detector.threshold(), detector.training_mean());
}

TEST(AeDetector, EmptyCalibrationSetIsRejected) {
  math::Rng rng(14);
  const auto train = cluster(16, 1.0F, 15);
  EXPECT_ERROR(
      {
        try {
          (void)AeDetector::train(train, math::Matrix(0, 24), tiny_arch(),
                                  nn::make_train_config(1, 4), 1.0, 1e-2,
                                  rng);
        } catch (const core::Error& e) {
          EXPECT_NE(std::string(e.what()).find("empty calibration set"),
                    std::string::npos);
          throw;
        }
      }, core::ErrorCode::kInvalidArgument);
  // A default-constructed (0 x 0) matrix hits the same guard.
  EXPECT_ERROR((void)AeDetector::train(train, math::Matrix{}, tiny_arch(),
                                       nn::make_train_config(1, 4), 1.0,
                                       1e-2, rng),
               core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::core
