#include "nn/sequential.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace soteria::nn {

namespace {
constexpr std::uint32_t kMagic = 0x53544e4e;  // "STNN"
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (layer == nullptr) {
    throw std::invalid_argument("Sequential::add: null layer");
  }
  layers_.push_back(std::move(layer));
  return *this;
}

math::Matrix Sequential::forward(const math::Matrix& input, bool training) {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::forward: no layers");
  }
  math::Matrix activation = input;
  for (auto& layer : layers_) {
    activation = layer->forward(activation, training);
  }
  return activation;
}

math::Matrix Sequential::infer(const math::Matrix& input) const {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::infer: no layers");
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
    float* dst = i == last ? out.data().data() : next;
    layer.infer_into(cur, rows, width, dst);
    width = layer.output_dimension(width);
    cur = dst;
    std::swap(next, spare);
  }
  return out;
}

math::Matrix Sequential::backward(const math::Matrix& grad_output) {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::backward: no layers");
  }
  math::Matrix grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
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
  // optimizers); serialization only reads them.
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
    throw std::runtime_error("Sequential::save_parameters: write failed");
  }
}

void Sequential::load_parameters(std::istream& in) {
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kMagic) {
    throw std::runtime_error(
        "Sequential::load_parameters: bad magic or truncated stream");
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  const auto params = parameters();
  if (!in || count != params.size()) {
    throw std::runtime_error(
        "Sequential::load_parameters: parameter count mismatch");
  }
  for (const auto& p : params) {
    std::uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in || size != p.value->size()) {
      throw std::runtime_error(
          "Sequential::load_parameters: tensor size mismatch");
    }
    in.read(reinterpret_cast<char*>(p.value->data().data()),
            static_cast<std::streamsize>(size * sizeof(float)));
    if (!in) {
      throw std::runtime_error(
          "Sequential::load_parameters: truncated tensor data");
    }
  }
}

}  // namespace soteria::nn
