// Sequential container: an ordered stack of layers trained end-to-end.
//
// `forward`/`backward` train it; `infer` is the one inference entry
// point. infer validates the chain on every call, then walks the
// layers' infer_into kernels through a thread_local ping-pong arena
// shared by every net on the thread (grow-only, sized from the widest
// layer), writing the last layer straight into the result. Layers that
// are the identity at inference (Dropout) cost no pass and no copy.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace soteria::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer (builder style). Throws std::invalid_argument on a
  /// null layer.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Forward through all layers, caching activations for backward.
  /// Throws std::logic_error if empty.
  [[nodiscard]] math::Matrix forward(const math::Matrix& input,
                                     bool training);

  /// Inference: bit-identical to forward(input, false), but touches no
  /// mutable layer state, so concurrent infer() calls on one model are
  /// safe (the parallel batch engine relies on this). Allocates only
  /// the result (and the arena when it grows). Throws std::logic_error
  /// if empty and std::invalid_argument if the layer chain rejects the
  /// input width.
  [[nodiscard]] math::Matrix infer(const math::Matrix& input) const;

  /// Backward pass through all layers; returns d(loss)/d(input).
  math::Matrix backward(const math::Matrix& grad_output);

  /// All parameter/gradient pairs, in stable layer order.
  [[nodiscard]] std::vector<ParamRef> parameters();

  /// Zeroes every layer's gradient accumulators.
  void zero_gradients();

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::size_t parameter_count() const;

  /// Validates the layer chain for `input_dim`-wide inputs and returns
  /// the output width. Throws std::invalid_argument on any mismatch.
  [[nodiscard]] std::size_t output_dimension(std::size_t input_dim) const;

  /// One line per layer, for logs and model summaries.
  [[nodiscard]] std::string summary() const;

  /// Read-only layer access (bench/perf_nn times each layer's kernel).
  [[nodiscard]] const std::vector<std::unique_ptr<Layer>>& layers()
      const noexcept {
    return layers_;
  }

  /// Serializes all parameters (binary, with a magic header and per-
  /// tensor sizes). Architecture itself is not stored: load into a model
  /// constructed with the same topology. Throws std::runtime_error on
  /// I/O failure or size mismatch at load.
  void save_parameters(std::ostream& out) const;
  void load_parameters(std::istream& in);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace soteria::nn
