#include "nn/sequential.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "soteria/error.h"

namespace soteria::nn {

namespace {
constexpr std::uint32_t kMagic = 0x53544e4e;  // "STNN"
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (layer == nullptr) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Sequential::add: null layer");
  }
  layers_.push_back(std::move(layer));
  return *this;
}

math::Matrix Sequential::infer(const math::Matrix& input) const {
  if (layers_.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Sequential::infer: no layers");
  }
  // Validate the chain; find the widest layer output and the last layer
  // that does any work (it writes straight into the result).
  std::size_t width = input.cols();
  std::size_t widest = 0;
  std::size_t last = layers_.size();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    width = layers_[i]->output_dimension(width);
    widest = std::max(widest, width);
    if (!layers_[i]->identity_at_inference()) last = i;
  }
  if (last == layers_.size()) return input;

  const std::size_t rows = input.rows();
  math::Matrix out(rows, width);
  if (rows == 0) return out;
  struct Arena {
    std::vector<float> ping;
    std::vector<float> pong;
  };
  thread_local Arena arena;
  if (arena.ping.size() < rows * widest) {
    arena.ping.resize(rows * widest);
    arena.pong.resize(rows * widest);
  }
  const float* cur = input.data().data();
  float* next = arena.ping.data();
  float* spare = arena.pong.data();
  width = input.cols();
  for (std::size_t i = 0; i <= last; ++i) {
    const Layer& layer = *layers_[i];
    if (layer.identity_at_inference()) continue;
    // A Relu directly after a Conv1d runs in the conv kernel's store.
    const auto* conv = dynamic_cast<const Conv1d*>(&layer);
    const bool fuse_relu =
        conv != nullptr && i < last &&
        dynamic_cast<const Relu*>(layers_[i + 1].get()) != nullptr;
    if (fuse_relu) ++i;
    float* dst = i == last ? out.data().data() : next;
    if (fuse_relu) {
      conv->infer_relu_into(cur, rows, dst);
    } else {
      layer.infer_into(cur, rows, width, dst);
    }
    width = layer.output_dimension(width);
    cur = dst;
    std::swap(next, spare);
  }
  return out;
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    layer->collect_parameters(params);
  }
  return params;
}

void Sequential::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

std::size_t Sequential::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

std::size_t Sequential::output_dimension(std::size_t input_dim) const {
  std::size_t dim = input_dim;
  for (const auto& layer : layers_) {
    dim = layer->output_dimension(dim);
  }
  return dim;
}

std::string Sequential::summary() const {
  std::string text;
  for (const auto& layer : layers_) {
    text += layer->name();
    text += '\n';
  }
  text += "total parameters: " + std::to_string(parameter_count()) + '\n';
  return text;
}

void Sequential::save_parameters(std::ostream& out) const {
  // parameters() is non-const (it hands out mutable ParamRefs for
  // the optimizer); serialization only reads them.
  const auto params = const_cast<Sequential*>(this)->parameters();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  const auto count = static_cast<std::uint64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params) {
    const auto size = static_cast<std::uint64_t>(p.value->size());
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(p.value->data().data()),
              static_cast<std::streamsize>(size * sizeof(float)));
  }
  if (!out) {
    throw core::Error(core::ErrorCode::kIoError,
                      "Sequential::save_parameters: write failed");
  }
}

void Sequential::load_parameters(std::istream& in) {
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kMagic) {
    throw core::Error(core::ErrorCode::kCorruptModel,
                      "Sequential::load_parameters: bad magic or truncated "
                      "stream");
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  const auto params = parameters();
  if (!in || count != params.size()) {
    throw core::Error(core::ErrorCode::kCorruptModel,
                      "Sequential::load_parameters: parameter count mismatch");
  }
  for (const auto& p : params) {
    std::uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in || size != p.value->size()) {
      throw core::Error(core::ErrorCode::kCorruptModel,
                        "Sequential::load_parameters: tensor size mismatch");
    }
    in.read(reinterpret_cast<char*>(p.value->data().data()),
            static_cast<std::streamsize>(size * sizeof(float)));
    if (!in) {
      throw core::Error(core::ErrorCode::kCorruptModel,
                        "Sequential::load_parameters: truncated tensor data");
    }
  }
}

TrainingWorkspace::TrainingWorkspace(Sequential& model,
                                     std::size_t input_width,
                                     std::size_t max_rows)
    : max_rows_(max_rows) {
  if (model.layer_count() == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "TrainingWorkspace: no layers");
  }
  if (max_rows == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "TrainingWorkspace: zero rows");
  }
  const auto& layers = model.layers();
  widths_.push_back(input_width);
  for (const auto& layer : layers) {
    layers_.push_back(layer.get());
    widths_.push_back(layer->output_dimension(widths_.back()));
  }
  const std::size_t widest =
      *std::max_element(widths_.begin(), widths_.end());
  input_.resize(max_rows * input_width);
  grad_ping_.resize(max_rows * widest);
  grad_pong_.resize(max_rows * widest);
  states_.resize(layers_.size());
  relu_convs_.assign(layers_.size(), nullptr);
  buffers_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    // A Conv1d and the Relu after it train as one op; the Relu is in
    // place over the conv's output, which the conv's backward never
    // reads.
    if (i + 1 < layers_.size() &&
        dynamic_cast<const Relu*>(layers_[i + 1]) != nullptr) {
      relu_convs_[i] = dynamic_cast<Conv1d*>(layers_[i]);
    }
    layer.reserve_training(max_rows, widths_[i], states_[i]);
    if (layer.trains_in_place()) {
      outputs_.push_back(layer_input(i));
    } else {
      buffers_.emplace_back(max_rows * widths_[i + 1]);
      outputs_.push_back(buffers_.back().data());
    }
  }
}

bool TrainingWorkspace::runs_in_conv(std::size_t i) const noexcept {
  return i > 0 && relu_convs_[i - 1] != nullptr;
}

const float* TrainingWorkspace::forward_layer(std::size_t i,
                                              std::size_t rows) {
  rows_ = rows;
  if (relu_convs_[i] != nullptr) {
    relu_convs_[i]->infer_relu_into(layer_input(i), rows, outputs_[i]);
  } else if (!runs_in_conv(i)) {
    layers_[i]->train_forward(layer_input(i), rows, widths_[i], outputs_[i],
                              states_[i]);
  }
  return outputs_[i];
}

const float* TrainingWorkspace::backward_layer(std::size_t i,
                                               const float* grad_output) {
  // A fused Relu's gate runs in its conv's backward.
  if (runs_in_conv(i)) return grad_output;
  // Whichever gradient buffer the layer after did not write, so a
  // layer's gradient input and output never share a buffer.
  float* grad_input = grad_output == grad_ping_.data() ? grad_pong_.data()
                                                       : grad_ping_.data();
  if (relu_convs_[i] != nullptr) {
    relu_convs_[i]->train_backward_relu(layer_input(i), outputs_[i],
                                        grad_output, rows_, grad_input);
  } else {
    layers_[i]->train_backward(layer_input(i), outputs_[i], grad_output,
                               rows_, widths_[i], grad_input, states_[i]);
  }
  return grad_input;
}

const float* TrainingWorkspace::forward(std::size_t rows) {
  if (rows == 0 || rows > max_rows_) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "TrainingWorkspace::forward: " +
                      std::to_string(rows) + " rows, capacity " +
                      std::to_string(max_rows_));
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) forward_layer(i, rows);
  return outputs_.back();
}

const float* TrainingWorkspace::backward(const float* grad_output) {
  if (rows_ == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "TrainingWorkspace::backward: no forward yet");
  }
  const float* grad = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad = backward_layer(i, grad);
  }
  return grad;
}

}  // namespace soteria::nn
