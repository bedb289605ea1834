// Adversarial-example detector (paper Section III-B.3).
//
// An autoencoder is trained to reconstruct the pooled combined
// (DBL ++ LBL) feature vectors of *clean training samples only* — it
// never sees an AE. Scoring standardizes the per-dimension
// reconstruction residuals with statistics estimated on one half of a
// held-out clean calibration split (so dimensions the autoencoder
// reconstructs tightly contribute at full weight), and the sample score
// is the RMS of those standardized residuals. The threshold
//   Th = mean(score) + alpha * stddev(score)
// is calibrated on the *other* half of the split (fresh walks, unseen
// samples), keeping the whole procedure blind to the test set and to
// any adversarial data — the paper's operational requirement.
//
// Every scoring call runs the autoencoder through Sequential::infer,
// and the threshold is read live, so set_alpha() takes effect
// immediately.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "nn/autoencoder.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace soteria::core {

class AeDetector {
 public:
  /// Trains the autoencoder on `clean_features` (rows = pooled combined
  /// vectors of clean training samples) and calibrates residual
  /// statistics + threshold from `calibration_features` — fresh
  /// extractions of held-out clean samples (first half: per-dimension
  /// residual standardization; second half: score distribution).
  /// `config.input_dim` is overridden by the feature width. Throws
  /// core::Error{kInvalidArgument} on empty matrices, width mismatch, or fewer
  /// than 4 calibration rows.
  static AeDetector train(const math::Matrix& clean_features,
                          const math::Matrix& calibration_features,
                          const nn::AutoencoderConfig& config,
                          const nn::TrainConfig& training, double alpha,
                          double learning_rate, math::Rng& rng);

  /// Standardized-residual score for every row of `features`.
  /// Const and safe for concurrent callers.
  [[nodiscard]] std::vector<double> scores(const math::Matrix& features)
      const;

  /// Plain per-row reconstruction RMSE (unstandardized), for diagnostics
  /// and the Fig. 12 raw-RE sweep.
  [[nodiscard]] std::vector<double> reconstruction_errors(
      const math::Matrix& features) const;

  /// Mean score over a sample's vectors (the detector input is one
  /// pooled row, but batches work too). Throws core::Error{kInvalidArgument} on
  /// an empty matrix.
  [[nodiscard]] double sample_error(const math::Matrix& sample_vectors)
      const;

  /// Per-dimension residual standardization tables (calibration A).
  [[nodiscard]] const std::vector<double>& residual_mean() const noexcept {
    return residual_mean_;
  }
  [[nodiscard]] const std::vector<double>& residual_stddev() const noexcept {
    return residual_stddev_;
  }

  /// Current threshold Th = mu + alpha * sigma.
  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  [[nodiscard]] double training_mean() const noexcept { return mean_; }
  [[nodiscard]] double training_stddev() const noexcept { return stddev_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Re-derives the threshold for a different alpha without retraining
  /// (used by the Fig. 13 sweep). Throws core::Error{kInvalidArgument} for a
  /// negative alpha.
  void set_alpha(double alpha);

  /// Training losses per epoch.
  [[nodiscard]] const nn::TrainReport& train_report() const noexcept {
    return report_;
  }

  /// Binary (de)serialization: architecture, weights, residual
  /// statistics, and threshold calibration. `load` reads a detector
  /// for `input_dim`-wide feature rows. It throws
  /// core::Error{kCorruptModel} on any corrupt stream, and before
  /// building the autoencoder when the stream's input width or residual
  /// tables disagree with `input_dim` or its architecture is invalid or
  /// needs more weights than the stream holds.
  void save(std::ostream& out) const;
  [[nodiscard]] static AeDetector load(std::istream& in,
                                       std::size_t input_dim);

  /// Default-constructed untrained detector; a placeholder until
  /// assigned from train().
  AeDetector() = default;

 private:
  nn::AutoencoderConfig arch_;  ///< architecture actually built
  nn::Sequential model_;
  nn::TrainReport report_;
  std::vector<double> residual_mean_;    ///< per-dimension, calibration A
  std::vector<double> residual_stddev_;  ///< per-dimension, calibration A
  double mean_ = 0.0;    ///< score mean over calibration B
  double stddev_ = 0.0;  ///< score stddev over calibration B
  double alpha_ = 1.0;
  double threshold_ = 0.0;
};

}  // namespace soteria::core
