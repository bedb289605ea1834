// The classifier CNN (paper Fig. 7): two convolutional blocks followed
// by a classification block, over a 1x500 feature vector.
//
//   ConvB1: Conv1d(46, k=3) -> ReLU -> Conv1d(46, k=3) -> ReLU ->
//           MaxPool(2) -> Dropout(0.25)
//   ConvB2: same shape on ConvB1's output
//   CB:     Dense(512) -> ReLU -> Dropout(0.5) -> Dense(#classes)
//
// The final layer emits logits; pair with softmax_cross_entropy_into
// for training and nn::softmax for probabilities. `filters`/`dense_units`
// default to the paper values and can be scaled down for CPU-budget
// runs.
#pragma once

#include <cstddef>

#include "math/rng.h"
#include "nn/sequential.h"

namespace soteria::nn {

/// CNN architecture parameters.
struct CnnConfig {
  std::size_t input_length = 500;  ///< one labeling's feature width
  std::size_t classes = 4;         ///< Benign, Gafgyt, Mirai, Tsunami
  std::size_t filters = 46;        ///< per conv layer (paper: 46)
  std::size_t kernel = 3;          ///< conv kernel (paper: 1x3)
  std::size_t dense_units = 512;   ///< classification block width
  double conv_dropout = 0.25;
  double dense_dropout = 0.5;
};

/// Throws core::Error{kInvalidArgument} on zero sizes, kernel/pooling shapes
/// that collapse the feature map, or dropout rates outside [0, 1).
void validate(const CnnConfig& config);

/// Builds the CNN. Input batches are rows of width input_length (one
/// channel); output is `classes` logits per row.
[[nodiscard]] Sequential build_cnn(const CnnConfig& config, math::Rng& rng);

}  // namespace soteria::nn
