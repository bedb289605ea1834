// The detector's over-complete autoencoder (paper Fig. 5):
//   input 1x1000 -> dense 2000 -> dense 3000 -> dense 2000 -> output 1000
// with ReLU between hidden layers and a linear output. `width_scale`
// shrinks the hidden widths proportionally for CPU-budgeted runs (the
// paper trained on GPU); scale 1.0 is the paper architecture.
#pragma once

#include <cstddef>
#include <vector>

#include "math/rng.h"
#include "nn/sequential.h"

namespace soteria::nn {

/// Autoencoder architecture parameters.
struct AutoencoderConfig {
  std::size_t input_dim = 1000;
  /// Paper hidden widths, scaled by width_scale (minimum 8 each).
  std::vector<std::size_t> hidden_dims = {2000, 3000, 2000};
  double width_scale = 1.0;
};

/// Throws core::Error{kInvalidArgument} on zero input dim, empty hidden stack,
/// or non-positive scale.
void validate(const AutoencoderConfig& config);

/// Builds the dense autoencoder. The returned model maps input_dim ->
/// input_dim.
[[nodiscard]] Sequential build_autoencoder(const AutoencoderConfig& config,
                                           math::Rng& rng);

}  // namespace soteria::nn
