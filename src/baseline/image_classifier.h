// Baseline 2: image-based malware classifier (Cui et al. [5]).
//
// The sample binary is rendered as a fixed-size grayscale image
// (nearest-neighbour resampling of the raw bytes) and classified by a
// neural network — no CFG, no reachability analysis. This baseline
// inherits the weakness the paper calls out: bytes appended to the end
// of a file *do* change its image, while they are invisible to
// Soteria's CFG features. The original work evaluated several image
// sizes (24x24 up to 192x192); we default to 32x32 which preserves the
// behaviour at single-core cost.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/sample.h"
#include "math/rng.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

namespace soteria::baseline {

/// Image baseline hyper-parameters.
struct ImageBaselineConfig {
  std::size_t image_side = 32;    ///< image is side x side pixels
  std::size_t hidden_units = 128;
  double learning_rate = 1e-3;
  nn::TrainConfig training = nn::make_train_config(60, 64);
  std::uint64_t seed = 11;
};

class ImageBaseline {
 public:
  /// Renders `binary` as a side*side grayscale vector in [0, 1] using
  /// nearest-neighbour resampling. Throws core::Error{kInvalidArgument} for an
  /// empty binary or zero side.
  [[nodiscard]] static std::vector<float> to_image(
      std::span<const std::uint8_t> binary, std::size_t side);

  /// Trains on the given samples (uses each sample's raw binary).
  /// Throws core::Error{kInvalidArgument} on an empty training set or samples
  /// without binaries.
  static ImageBaseline train(std::span<const dataset::Sample> training,
                             const ImageBaselineConfig& config);

  /// Predicted family for one binary.
  [[nodiscard]] dataset::Family predict(
      std::span<const std::uint8_t> binary) const;

  [[nodiscard]] const nn::TrainReport& train_report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::size_t image_side() const noexcept {
    return config_.image_side;
  }

  /// Default-constructed untrained baseline; placeholder until assigned
  /// from train().
  ImageBaseline() = default;

 private:
  ImageBaselineConfig config_;
  nn::Sequential model_;
  nn::TrainReport report_;
};

}  // namespace soteria::baseline
