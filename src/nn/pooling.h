// Max pooling over channel-major 1D feature maps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace soteria::nn {

/// Non-overlapping 1D max pooling (stride == window, the paper's s=m=2).
/// A trailing remainder shorter than the window is dropped, matching
/// Keras' MaxPooling1D.
class MaxPool1d : public Layer {
 public:
  /// Throws std::invalid_argument on zero sizes or window > in_length.
  MaxPool1d(std::size_t channels, std::size_t in_length, std::size_t window);

  math::Matrix forward(const math::Matrix& input, bool training) override;
  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  math::Matrix backward(const math::Matrix& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_dimension(
      std::size_t input_dim) const override;

  [[nodiscard]] std::size_t out_length() const noexcept {
    return in_length_ / window_;
  }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t in_length() const noexcept { return in_length_; }
  [[nodiscard]] std::size_t window() const noexcept { return window_; }

 private:
  std::size_t channels_;
  std::size_t in_length_;
  std::size_t window_;
  std::size_t cached_rows_ = 0;
  std::vector<std::uint32_t> argmax_;  // flat per (row, channel, out_t)
};

}  // namespace soteria::nn
