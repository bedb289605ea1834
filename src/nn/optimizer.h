// Adam (Kingma & Ba) with bias correction and their default moment
// decay rates and stabilizer: the one optimizer both of Soteria's nets
// train with.
//
// The optimizer is bound to a fixed parameter list on the first step()
// call (state slots are allocated per tensor); subsequent steps must
// pass the same tensors in the same order, which `Sequential` guarantees.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace soteria::nn {

class Adam {
 public:
  /// Throws core::Error{kInvalidArgument} unless `learning_rate` is positive.
  explicit Adam(double learning_rate = 1e-3);

  /// Applies one update using the accumulated gradients, then leaves the
  /// gradients untouched (callers zero them per batch). Throws
  /// core::Error{kInvalidArgument} if the parameter list changes between calls.
  void step(std::span<const ParamRef> parameters);

  [[nodiscard]] double learning_rate() const noexcept { return lr_; }

 private:
  double lr_;
  std::size_t timestep_ = 0;
  std::vector<std::vector<float>> first_moment_;
  std::vector<std::vector<float>> second_moment_;
};

}  // namespace soteria::nn
