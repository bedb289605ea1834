#include "nn/frozen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "math/matrix.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"

namespace soteria::nn {

FrozenNet FrozenNet::compile(const Sequential& model, std::size_t input_dim) {
  // Resolves all shapes up front with the same validation
  // Sequential::output_dimension applies layer by layer.
  FrozenNet net;
  net.input_dim_ = input_dim;
  net.max_width_ = input_dim;
  std::size_t width = input_dim;

  for (const auto& layer : model.layers()) {
    const std::size_t out_width = layer->output_dimension(width);
    Op op;
    op.in_width = width;
    op.out_width = out_width;
    if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
      op.kind = OpKind::kDense;
      op.weights = &dense->weights();
      op.bias = &dense->bias();
    } else if (dynamic_cast<const Relu*>(layer.get()) != nullptr) {
      op.kind = OpKind::kRelu;
    } else if (dynamic_cast<const Sigmoid*>(layer.get()) != nullptr) {
      op.kind = OpKind::kSigmoid;
    } else if (const auto* conv = dynamic_cast<const Conv1d*>(layer.get())) {
      op.kind = OpKind::kConv1d;
      op.in_channels = conv->in_channels();
      op.in_length = conv->in_length();
      op.out_channels = conv->out_channels();
      op.kernel = conv->kernel();
      op.weights = &conv->weights();
      op.bias = &conv->bias();
    } else if (const auto* pool =
                   dynamic_cast<const MaxPool1d*>(layer.get())) {
      op.kind = OpKind::kMaxPool1d;
      op.in_channels = pool->channels();
      op.in_length = pool->in_length();
      op.window = pool->window();
    } else if (dynamic_cast<const Dropout*>(layer.get()) != nullptr) {
      // Identity at inference: compiles away.
      width = out_width;
      continue;
    } else {
      throw std::invalid_argument("FrozenNet: unsupported layer " +
                                  layer->name());
    }
    net.ops_.push_back(std::move(op));
    width = out_width;
    net.max_width_ = std::max(net.max_width_, width);
  }
  if (net.ops_.empty()) {
    throw std::invalid_argument("FrozenNet: no compilable layers");
  }
  net.output_dim_ = width;
  return net;
}

void FrozenNet::reserve_scratch(Scratch& scratch, std::size_t rows) const {
  const std::size_t need = rows * max_width_;
  if (scratch.a.size() < need) scratch.a.resize(need);
  if (scratch.b.size() < need) scratch.b.resize(need);
}

namespace {

/// Same elementwise loops as Relu::infer / Sigmoid::infer.
void relu_into(const float* in, float* out, std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    const float x = in[i];
    out[i] = x > 0.0F ? x : 0.0F;
  }
}

void sigmoid_into(const float* in, float* out, std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = 1.0F / (1.0F + std::exp(-in[i]));
  }
}

/// Same window loop as MaxPool1d::infer (first-element seed, strict >).
void maxpool_into(const float* in, float* out, std::size_t rows,
                  std::size_t channels, std::size_t in_length,
                  std::size_t window) noexcept {
  const std::size_t out_len = in_length / window;
  const std::size_t in_cols = channels * in_length;
  const std::size_t out_cols = channels * out_len;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in_row = in + r * in_cols;
    float* out_row = out + r * out_cols;
    for (std::size_t c = 0; c < channels; ++c) {
      const float* in_chan = in_row + c * in_length;
      float* out_chan = out_row + c * out_len;
      for (std::size_t t = 0; t < out_len; ++t) {
        const std::size_t start = t * window;
        float best = in_chan[start];
        for (std::size_t k = 1; k < window; ++k) {
          if (in_chan[start + k] > best) best = in_chan[start + k];
        }
        out_chan[t] = best;
      }
    }
  }
}

}  // namespace

math::Matrix FrozenNet::infer(const math::Matrix& input) const {
  if (!compiled()) {
    throw std::logic_error("FrozenNet::infer: not compiled");
  }
  if (input.cols() != input_dim_) {
    throw std::invalid_argument("FrozenNet::infer: input width " +
                                std::to_string(input.cols()) + " != " +
                                std::to_string(input_dim_));
  }
  math::Matrix out(input.rows(), output_dim_);
  if (input.rows() == 0) return out;
  thread_local Scratch scratch;
  infer_into(input.data().data(), input.rows(), out.data().data(), scratch);
  return out;
}

void FrozenNet::infer_into(const float* in, std::size_t rows, float* out,
                           Scratch& scratch) const {
  reserve_scratch(scratch, rows);
  const float* cur = in;
  float* ping = scratch.a.data();
  float* pong = scratch.b.data();
  for (std::size_t idx = 0; idx < ops_.size(); ++idx) {
    const Op& op = ops_[idx];
    float* dst = idx + 1 == ops_.size() ? out : ping;
    const float* weights = op.weights ? op.weights->data().data() : nullptr;
    const float* bias = op.bias ? op.bias->data().data() : nullptr;
    switch (op.kind) {
      case OpKind::kDense:
        math::matmul_into(cur, weights, dst, rows, op.in_width, op.out_width);
        // Bias broadcast after the full k-sum, exactly like
        // Dense::infer's add_row_vector.
        for (std::size_t r = 0; r < rows; ++r) {
          float* row = dst + r * op.out_width;
          for (std::size_t c = 0; c < op.out_width; ++c) {
            row[c] += bias[c];
          }
        }
        break;
      case OpKind::kRelu:
        relu_into(cur, dst, rows * op.out_width);
        break;
      case OpKind::kSigmoid:
        sigmoid_into(cur, dst, rows * op.out_width);
        break;
      case OpKind::kConv1d:
        conv1d_infer_into(cur, dst, weights, bias, rows, op.in_channels,
                          op.in_length, op.out_channels, op.kernel);
        break;
      case OpKind::kMaxPool1d:
        maxpool_into(cur, dst, rows, op.in_channels, op.in_length, op.window);
        break;
    }
    cur = dst;
    std::swap(ping, pong);
  }
}

}  // namespace soteria::nn
