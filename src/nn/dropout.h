// Inverted dropout: active only in training, identity at inference.
#pragma once

#include "math/rng.h"
#include "nn/layer.h"

namespace soteria::nn {

class Dropout : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1). The layer keeps a
  /// reference-free fork of `rng`, so dropout masks are deterministic
  /// given the construction seed.
  Dropout(double rate, math::Rng& rng);

  math::Matrix forward(const math::Matrix& input, bool training) override;
  /// Identity: dropout is inactive at inference, so this copies `in`
  /// (Sequential::infer skips the layer instead).
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  [[nodiscard]] bool identity_at_inference() const noexcept override {
    return true;
  }
  math::Matrix backward(const math::Matrix& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }

  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double rate_;
  math::Rng rng_;
  math::Matrix mask_;  // scaled keep mask from the last training forward
  bool mask_valid_ = false;
};

}  // namespace soteria::nn
