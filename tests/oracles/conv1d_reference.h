// Naive conv1d loops kept as test oracles for the library's kernels
// (nn::conv1d_infer_into, nn::conv1d_backward_into). They live beside
// the tests, not in the library: slow, obviously correct, and the
// definition of the accumulation order the fast kernels must keep.
// Shapes and layouts are those of src/nn/conv1d.h.
#pragma once

#include <cstddef>

namespace soteria::oracles {

/// One output channel at a time: bias first, then ascending
/// (channel, tap) products, skipping zero taps.
void conv1d_infer_reference_into(const float* in, float* out,
                                 const float* weights, const float* bias,
                                 std::size_t rows, std::size_t in_channels,
                                 std::size_t in_length,
                                 std::size_t out_channels,
                                 std::size_t kernel) noexcept;

/// The original scalar Conv1d::backward loop. Adds into `grad_in`
/// (callers pass zeros), `weight_grad` and `bias_grad`.
void conv1d_backward_reference(const float* in, const float* grad_out,
                               const float* weights, float* grad_in,
                               float* weight_grad, float* bias_grad,
                               std::size_t rows, std::size_t in_channels,
                               std::size_t in_length,
                               std::size_t out_channels,
                               std::size_t kernel) noexcept;

}  // namespace soteria::oracles
