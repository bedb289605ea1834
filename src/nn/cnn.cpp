#include "nn/cnn.h"

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"
#include "soteria/error.h"

namespace soteria::nn {

void validate(const CnnConfig& config) {
  if (config.input_length == 0 || config.classes == 0 ||
      config.filters == 0 || config.kernel == 0 ||
      config.dense_units == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "CnnConfig: zero dimension");
  }
  if (config.conv_dropout < 0.0 || config.conv_dropout >= 1.0 ||
      config.dense_dropout < 0.0 || config.dense_dropout >= 1.0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "CnnConfig: dropout outside [0, 1)");
  }
  // Two blocks of (2 convs + pool-2) must leave a non-empty map.
  std::size_t len = config.input_length;
  for (int block = 0; block < 2; ++block) {
    for (int conv = 0; conv < 2; ++conv) {
      if (len < config.kernel) {
        throw core::Error(core::ErrorCode::kInvalidArgument,
                          "CnnConfig: input too short for the conv stack");
      }
      len = len - config.kernel + 1;
    }
    if (len < 2) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "CnnConfig: input too short for the pooling stack");
    }
    len /= 2;
  }
}

Sequential build_cnn(const CnnConfig& config, math::Rng& rng) {
  validate(config);
  Sequential model;
  std::size_t channels = 1;
  std::size_t length = config.input_length;
  for (int block = 0; block < 2; ++block) {
    for (int conv = 0; conv < 2; ++conv) {
      model.emplace<Conv1d>(channels, length, config.filters, config.kernel,
                            rng);
      model.emplace<Relu>();
      channels = config.filters;
      length = length - config.kernel + 1;
    }
    model.emplace<MaxPool1d>(channels, length, 2);
    length /= 2;
    model.emplace<Dropout>(config.conv_dropout, rng);
  }
  model.emplace<Dense>(channels * length, config.dense_units, rng);
  model.emplace<Relu>();
  model.emplace<Dropout>(config.dense_dropout, rng);
  model.emplace<Dense>(config.dense_units, config.classes, rng);
  return model;
}

}  // namespace soteria::nn
