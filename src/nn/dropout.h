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

  /// Identity: dropout is inactive at inference, so this copies `in`
  /// (Sequential::infer skips the layer instead).
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  [[nodiscard]] bool identity_at_inference() const noexcept override {
    return true;
  }
  void reserve_training(std::size_t max_rows, std::size_t width,
                        TrainState& state) const override;
  /// Draws one bernoulli(rate) per element in row-major order and keeps
  /// the element, scaled by 1 / (1 - rate), where it is false; the
  /// keep-mask goes to `state`. At rate 0 it copies and draws nothing.
  void train_forward(const float* in, std::size_t rows, std::size_t width,
                     float* out, TrainState& state) override;
  void train_backward(const float* in, const float* out,
                      const float* grad_out, std::size_t rows,
                      std::size_t width, float* grad_in,
                      TrainState& state) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override {
    return input_dim;
  }

  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  /// The mask factor of a kept element.
  [[nodiscard]] float keep_scale() const noexcept {
    return static_cast<float>(1.0 / (1.0 - rate_));
  }

  double rate_;
  math::Rng rng_;
};

}  // namespace soteria::nn
