// Layer abstraction for the from-scratch neural-network substrate.
//
// Layers transform row-major batches (rows = samples) on raw buffers
// and implement manual backpropagation. Every layer has one inference
// kernel, `infer_into`; training runs `train_forward`, which is that
// kernel plus whatever backward needs (Dropout's mask, MaxPool's
// argmax), and `train_backward`, which turns the loss gradient w.r.t.
// the layer output into the gradient w.r.t. its input and accumulates
// parameter gradients internally. Layers hold no batch-sized state:
// activations and backward state live in a TrainingWorkspace
// (nn/sequential.h), one per training call. Parameters are exposed
// through `ParamRef`s so the optimizer (nn::Adam) can update them
// without knowing layer internals. Sequential::infer walks the layers'
// infer_into kernels over a per-thread arena. The one fusion it and the
// TrainingWorkspace make is a Relu directly after a Conv1d: its forward
// runs in the conv kernel's store (Conv1d::infer_relu_into) and, in
// training, its backward gate in the conv's backward
// (Conv1d::train_backward_relu), each with the bits of the two layers'
// kernels in turn.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// One layer's backward state in a TrainingWorkspace, sized once by
/// Layer::reserve_training for the workspace's largest batch; a
/// shorter batch uses a prefix. Each layer uses at most one field.
struct TrainState {
  std::vector<std::uint32_t> argmax;  ///< MaxPool1d: per output element
  std::vector<std::uint8_t> keep;     ///< Dropout: per element, 1 = kept
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// The layer's inference kernel: reads `rows` row-major rows of
  /// width `width` from `in` and writes rows x output_dimension(width)
  /// to `out`. The caller has validated `width` with output_dimension;
  /// the kernel checks nothing and allocates nothing. `out` must not
  /// alias `in`, except for the elementwise ReLU, whose kernel may run
  /// in place (`out == in`). Touches no mutable state, so concurrent
  /// calls on a shared layer are safe.
  virtual void infer_into(const float* in, std::size_t rows,
                          std::size_t width, float* out) const = 0;

  /// True if the layer passes its input through unchanged at inference
  /// (Dropout); Sequential::infer then skips it.
  [[nodiscard]] virtual bool identity_at_inference() const noexcept {
    return false;
  }

  /// Sizes `state` for training batches of up to `max_rows` rows of
  /// width `width` (already validated). Layers that need no backward
  /// state leave it empty.
  virtual void reserve_training(std::size_t /*max_rows*/,
                                std::size_t /*width*/,
                                TrainState& /*state*/) const {}

  /// Training forward on raw buffers, shapes as in infer_into, with
  /// `state` reserved for at least `rows` rows. Runs infer_into, and
  /// records in `state` what train_backward needs. `out` may alias
  /// `in` only where trains_in_place() holds.
  virtual void train_forward(const float* in, std::size_t rows,
                             std::size_t width, float* out,
                             TrainState& /*state*/) {
    infer_into(in, rows, width, out);
  }

  /// True if train_forward may write its output over its input (ReLU);
  /// the workspace then does so.
  [[nodiscard]] virtual bool trains_in_place() const noexcept {
    return false;
  }

  /// Training backward; must follow train_forward on the same `in`,
  /// `out`, `rows` and `state`. Reads d(loss)/d(output) from
  /// `grad_out` (rows x output_dimension(width)), overwrites `grad_in`
  /// (rows x width) with d(loss)/d(input) and adds parameter gradients
  /// to the accumulators. `grad_in` aliases none of the other buffers.
  /// A layer with parameters also takes a null `grad_in` and then only
  /// adds its parameter gradients (a net's first layer: nothing reads
  /// its input gradient).
  virtual void train_backward(const float* in, const float* out,
                              const float* grad_out, std::size_t rows,
                              std::size_t width, float* grad_in,
                              TrainState& state) = 0;

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
  /// core::Error{kInvalidArgument} if the input width is incompatible.
  [[nodiscard]] virtual std::size_t output_dimension(
      std::size_t input_dim) const = 0;
};

}  // namespace soteria::nn
