#include "nn/dense.h"

#include <algorithm>
#include <cmath>

#include "soteria/error.h"

namespace soteria::nn {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, math::Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(in_dim, out_dim),
      bias_(1, out_dim, 0.0F),
      weight_grad_(in_dim, out_dim, 0.0F),
      bias_grad_(1, out_dim, 0.0F) {
  if (in_dim == 0 || out_dim == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Dense: zero dimension");
  }
  const float limit =
      std::sqrt(6.0F / static_cast<float>(in_dim));  // He-uniform
  weights_.fill_uniform(rng, -limit, limit);
}

void Dense::infer_into(const float* in, std::size_t rows,
                       std::size_t /*width*/, float* out) const {
  // The register-tiled GEMM kernel, then the bias broadcast: bias is
  // added after the full k-sum.
  math::matmul_into(in, weights_.data().data(), out, rows, in_dim_, out_dim_);
  const float* bias = bias_.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = out + r * out_dim_;
    for (std::size_t c = 0; c < out_dim_; ++c) row[c] += bias[c];
  }
}

void Dense::train_backward(const float* in, const float* /*out*/,
                           const float* grad_out, std::size_t rows,
                           std::size_t /*width*/, float* grad_in,
                           TrainState& /*state*/) {
  // Each gradient is summed from +0 on its own, then added to the
  // accumulator, so accumulating over several batches rounds as one sum
  // per batch.
  math::matmul_at_into(in, grad_out, weight_grad_.data().data(), in_dim_,
                       rows, out_dim_);
  float* bias_grad = bias_grad_.data().data();
  constexpr std::size_t kChunk = 256;
  for (std::size_t c0 = 0; c0 < out_dim_; c0 += kChunk) {
    const std::size_t cols = std::min(kChunk, out_dim_ - c0);
    float col_sums[kChunk] = {};
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = grad_out + r * out_dim_ + c0;
      for (std::size_t c = 0; c < cols; ++c) col_sums[c] += row[c];
    }
    for (std::size_t c = 0; c < cols; ++c) bias_grad[c0 + c] += col_sums[c];
  }
  if (grad_in != nullptr) {
    math::matmul_bt_into(grad_out, weights_.data().data(), grad_in, rows,
                         out_dim_, in_dim_);
  }
}

void Dense::collect_parameters(std::vector<ParamRef>& out) {
  out.push_back(ParamRef{&weights_, &weight_grad_});
  out.push_back(ParamRef{&bias_, &bias_grad_});
}

void Dense::zero_gradients() {
  weight_grad_.fill(0.0F);
  bias_grad_.fill(0.0F);
}

std::size_t Dense::parameter_count() const {
  return weights_.size() + bias_.size();
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_dim_) + "->" +
         std::to_string(out_dim_) + ")";
}

std::size_t Dense::output_dimension(std::size_t input_dim) const {
  if (input_dim != in_dim_) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Dense: expected input width " +
                      std::to_string(in_dim_) + ", got " +
                      std::to_string(input_dim));
  }
  return out_dim_;
}

}  // namespace soteria::nn
