#include "nn/autoencoder.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "nn/dense.h"
#include "soteria/error.h"

namespace soteria::nn {

void validate(const AutoencoderConfig& config) {
  if (config.input_dim == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AutoencoderConfig: zero input dimension");
  }
  if (config.hidden_dims.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AutoencoderConfig: no hidden layers");
  }
  for (std::size_t h : config.hidden_dims) {
    if (h == 0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "AutoencoderConfig: zero hidden width");
    }
  }
  if (!(config.width_scale > 0.0)) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "AutoencoderConfig: width_scale must be positive");
  }
}

Sequential build_autoencoder(const AutoencoderConfig& config,
                             math::Rng& rng) {
  validate(config);
  Sequential model;
  std::size_t prev = config.input_dim;
  for (std::size_t hidden : config.hidden_dims) {
    const auto scaled = std::max<std::size_t>(
        8, static_cast<std::size_t>(std::llround(
               static_cast<double>(hidden) * config.width_scale)));
    model.emplace<Dense>(prev, scaled, rng);
    model.emplace<Relu>();
    prev = scaled;
  }
  model.emplace<Dense>(prev, config.input_dim, rng);
  return model;
}

}  // namespace soteria::nn
