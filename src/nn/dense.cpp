#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

namespace soteria::nn {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, math::Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(in_dim, out_dim),
      bias_(1, out_dim, 0.0F),
      weight_grad_(in_dim, out_dim, 0.0F),
      bias_grad_(1, out_dim, 0.0F) {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("Dense: zero dimension");
  }
  const float limit =
      std::sqrt(6.0F / static_cast<float>(in_dim));  // He-uniform
  weights_.fill_uniform(rng, -limit, limit);
}

math::Matrix Dense::forward(const math::Matrix& input, bool /*training*/) {
  const std::size_t out_width = output_dimension(input.cols());
  cached_input_ = input;
  math::Matrix out(input.rows(), out_width);
  infer_into(input.data().data(), input.rows(), input.cols(),
             out.data().data());
  return out;
}

void Dense::infer_into(const float* in, std::size_t rows,
                       std::size_t /*width*/, float* out) const {
  // The blocked GEMM kernel, then the bias broadcast: bias is added
  // after the full k-sum.
  math::matmul_into(in, weights_.data().data(), out, rows, in_dim_, out_dim_);
  const float* bias = bias_.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = out + r * out_dim_;
    for (std::size_t c = 0; c < out_dim_; ++c) row[c] += bias[c];
  }
}

math::Matrix Dense::backward(const math::Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() ||
      grad_output.cols() != out_dim_) {
    throw std::invalid_argument("Dense::backward: gradient shape " +
                                grad_output.shape_string() +
                                " incompatible with cached batch");
  }
  weight_grad_ += math::matmul_at(cached_input_, grad_output);
  const auto col_sums = grad_output.column_sums();
  for (std::size_t c = 0; c < out_dim_; ++c) bias_grad_(0, c) += col_sums[c];
  return math::matmul_bt(grad_output, weights_);
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
    throw std::invalid_argument("Dense: expected input width " +
                                std::to_string(in_dim_) + ", got " +
                                std::to_string(input_dim));
  }
  return out_dim_;
}

}  // namespace soteria::nn
