// Max pooling over channel-major 1D feature maps.
#pragma once

#include <cstddef>

#include "nn/layer.h"

namespace soteria::nn {

/// Non-overlapping 1D max pooling (stride == window, the paper's s=m=2).
/// A trailing remainder shorter than the window is dropped, matching
/// Keras' MaxPooling1D. Each window's max is seeded with its first
/// element and replaced only by a strictly greater one, so a tie keeps
/// the first element (and its index as the argmax) and a NaN first
/// element stays. Window 2, the only one build_cnn makes, runs that
/// rule as the branch-free select `second > first ? second : first`;
/// other windows run the loop.
class MaxPool1d : public Layer {
 public:
  /// Throws core::Error{kInvalidArgument} on zero sizes or window > in_length.
  MaxPool1d(std::size_t channels, std::size_t in_length, std::size_t window);

  void infer_into(const float* in, std::size_t rows, std::size_t width,
                  float* out) const override;
  void reserve_training(std::size_t max_rows, std::size_t width,
                        TrainState& state) const override;
  /// infer_into's window loop, also recording each window's argmax
  /// (per row, channel and output position) in `state`.
  void train_forward(const float* in, std::size_t rows, std::size_t width,
                     float* out, TrainState& state) override;
  /// Routes each output gradient to its window's argmax; every other
  /// input position (the dropped tail included) gets 0.
  void train_backward(const float* in, const float* out,
                      const float* grad_out, std::size_t rows,
                      std::size_t width, float* grad_in,
                      TrainState& state) override;
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
};

}  // namespace soteria::nn
