// Layer abstraction for the from-scratch neural-network substrate.
//
// Layers transform batches (math::Matrix, rows = samples) and implement
// manual backpropagation: `forward` caches whatever backward needs and
// then runs the layer's one inference kernel, `infer_into`; `backward`
// consumes the loss gradient w.r.t. the layer output and returns the
// gradient w.r.t. the layer input, accumulating parameter gradients
// internally. Parameters are exposed through `ParamRef`s so optimizers
// can update them without knowing layer internals. Sequential::infer
// walks the layers' infer_into kernels over a per-thread arena.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "math/matrix.h"

namespace soteria::nn {

/// A parameter tensor paired with its gradient accumulator. References
/// remain valid for the lifetime of the owning layer.
struct ParamRef {
  math::Matrix* value = nullptr;
  math::Matrix* grad = nullptr;
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Batch forward pass. `training` enables train-only behaviour
  /// (dropout masks). Implementations cache what backward needs, then
  /// compute the output with infer_into (MaxPool1d records its argmax
  /// in its own loop). Throws std::invalid_argument if
  /// output_dimension rejects the input width.
  virtual math::Matrix forward(const math::Matrix& input, bool training) = 0;

  /// The layer's inference kernel: reads `rows` row-major rows of
  /// width `width` from `in` and writes rows x output_dimension(width)
  /// to `out`. The caller has validated `width` with output_dimension;
  /// the kernel checks nothing and allocates nothing, and `out` must
  /// not alias `in`. Touches no mutable state, so concurrent calls on
  /// a shared layer are safe.
  virtual void infer_into(const float* in, std::size_t rows,
                          std::size_t width, float* out) const = 0;

  /// True if the layer passes its input through unchanged at inference
  /// (Dropout); Sequential::infer then skips it.
  [[nodiscard]] virtual bool identity_at_inference() const noexcept {
    return false;
  }

  /// Batch backward pass; must follow a forward with the same batch.
  /// Accumulates parameter gradients and returns d(loss)/d(input).
  virtual math::Matrix backward(const math::Matrix& grad_output) = 0;

  /// Parameter/gradient pairs (empty for stateless layers).
  virtual void collect_parameters(std::vector<ParamRef>& out) { (void)out; }

  /// Zeroes accumulated gradients.
  virtual void zero_gradients() {}

  /// Total number of scalar parameters.
  [[nodiscard]] virtual std::size_t parameter_count() const { return 0; }

  /// Diagnostic name, e.g. "Dense(500->512)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Output width for an input of width `input_dim`; lets containers
  /// validate architecture chains ahead of time. Throws
  /// std::invalid_argument if the input width is incompatible.
  [[nodiscard]] virtual std::size_t output_dimension(
      std::size_t input_dim) const = 0;
};

}  // namespace soteria::nn
