#include "nn/pooling.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "soteria/error.h"

namespace soteria::nn {

MaxPool1d::MaxPool1d(std::size_t channels, std::size_t in_length,
                     std::size_t window)
    : channels_(channels), in_length_(in_length), window_(window) {
  if (channels == 0 || in_length == 0 || window == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "MaxPool1d: zero dimension");
  }
  if (window > in_length) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "MaxPool1d: window " +
                      std::to_string(window) +
                      " exceeds input length " +
                      std::to_string(in_length));
  }
}

void MaxPool1d::infer_into(const float* in, std::size_t rows,
                           std::size_t /*width*/, float* out) const {
  // Each window's max, seeded with its first element and replaced only
  // by a strictly greater one.
  const std::size_t out_len = out_length();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * channels_ * in_length_;
    float* out_row = out + r * channels_ * out_len;
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* in_chan = in_row + c * in_length_;
      float* out_chan = out_row + c * out_len;
      if (window_ == 2) {
        // The same rule as a select, which vectorizes.
        for (std::size_t t = 0; t < out_len; ++t) {
          const float first = in_chan[2 * t];
          const float second = in_chan[2 * t + 1];
          out_chan[t] = second > first ? second : first;
        }
        continue;
      }
      for (std::size_t t = 0; t < out_len; ++t) {
        const std::size_t start = t * window_;
        float best = in_chan[start];
        for (std::size_t k = 1; k < window_; ++k) {
          if (in_chan[start + k] > best) best = in_chan[start + k];
        }
        out_chan[t] = best;
      }
    }
  }
}

void MaxPool1d::reserve_training(std::size_t max_rows,
                                 std::size_t /*width*/,
                                 TrainState& state) const {
  state.argmax.resize(max_rows * channels_ * out_length());
}

void MaxPool1d::train_forward(const float* in, std::size_t rows,
                              std::size_t /*width*/, float* out,
                              TrainState& state) {
  const std::size_t out_len = out_length();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * channels_ * in_length_;
    float* out_row = out + r * channels_ * out_len;
    std::uint32_t* am_row = state.argmax.data() + r * channels_ * out_len;
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* in_chan = in_row + c * in_length_;
      float* out_chan = out_row + c * out_len;
      std::uint32_t* am_chan = am_row + c * out_len;
      if (window_ == 2) {
        for (std::size_t t = 0; t < out_len; ++t) {
          const float first = in_chan[2 * t];
          const float second = in_chan[2 * t + 1];
          const bool take_second = second > first;
          out_chan[t] = take_second ? second : first;
          am_chan[t] =
              static_cast<std::uint32_t>(2 * t + (take_second ? 1U : 0U));
        }
        continue;
      }
      for (std::size_t t = 0; t < out_len; ++t) {
        const std::size_t start = t * window_;
        float best = in_chan[start];
        std::size_t best_idx = start;
        for (std::size_t k = 1; k < window_; ++k) {
          if (in_chan[start + k] > best) {
            best = in_chan[start + k];
            best_idx = start + k;
          }
        }
        out_chan[t] = best;
        am_chan[t] = static_cast<std::uint32_t>(best_idx);
      }
    }
  }
}

void MaxPool1d::train_backward(const float* /*in*/, const float* /*out*/,
                               const float* grad_out, std::size_t rows,
                               std::size_t width, float* grad_in,
                               TrainState& state) {
  const std::size_t out_len = out_length();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* go_row = grad_out + r * channels_ * out_len;
    float* gi_row = grad_in + r * width;
    const std::uint32_t* am_row =
        state.argmax.data() + r * channels_ * out_len;
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* go_chan = go_row + c * out_len;
      float* gi_chan = gi_row + c * in_length_;
      const std::uint32_t* am_chan = am_row + c * out_len;
      if (window_ == 2) {
        // Each input pair written once with a select: the gradient to
        // the argmax slot, +0 to the other. `0.0F + g` keeps the bits
        // of the zero-fill and add below, where a -0 gradient lands
        // as +0.
        for (std::size_t t = 0; t < out_len; ++t) {
          const float g = 0.0F + go_chan[t];
          const bool take_second = (am_chan[t] & 1U) != 0;
          gi_chan[2 * t] = take_second ? 0.0F : g;
          gi_chan[2 * t + 1] = take_second ? g : 0.0F;
        }
        std::fill(gi_chan + 2 * out_len, gi_chan + in_length_, 0.0F);
        continue;
      }
      std::fill(gi_chan, gi_chan + in_length_, 0.0F);
      for (std::size_t t = 0; t < out_len; ++t) {
        gi_chan[am_chan[t]] += go_chan[t];
      }
    }
  }
}

std::string MaxPool1d::name() const {
  return "MaxPool1d(" + std::to_string(channels_) + "x" +
         std::to_string(in_length_) + ", w=" + std::to_string(window_) + ")";
}

std::size_t MaxPool1d::output_dimension(std::size_t input_dim) const {
  if (input_dim != channels_ * in_length_) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "MaxPool1d: expected input width " +
                      std::to_string(channels_ * in_length_) +
                      ", got " + std::to_string(input_dim));
  }
  return channels_ * out_length();
}

}  // namespace soteria::nn
