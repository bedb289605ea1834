// Sequential container: an ordered stack of layers trained end-to-end.
//
// A TrainingWorkspace trains it; `infer` is the one inference entry
// point. infer validates the chain on every call, then walks the
// layers' infer_into kernels through a thread_local ping-pong arena
// shared by every net on the thread (grow-only, sized from the widest
// layer), writing the last layer straight into the result. Layers that
// are the identity at inference (Dropout) cost no pass and no copy, and
// a Relu directly after a Conv1d runs in the conv kernel's store
// (Conv1d::infer_relu_into, the same bits as the two kernels in turn).
//
// Training allocates once per call: a TrainingWorkspace, sized for the
// largest batch, holds the gathered input batch, every layer's output
// and backward state (TrainState), and two gradient buffers as wide as
// the widest layer, which backward ping-pongs between. A ReLU writes
// in place over the output before it, so its output costs no buffer;
// after another ReLU too, since relu(relu(x)) is relu(x) and the first
// one's backward reads the same bits. The workspace makes the
// same fusion as infer: a Relu directly after a Conv1d runs in the
// conv kernel's store, and its backward gate in the conv's backward
// (Conv1d::train_backward_relu), so the pair costs no ReLU pass either
// way and keeps the bits of the two layers in turn.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace soteria::nn {

class Conv1d;

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer (builder style). Throws core::Error{kInvalidArgument} on a
  /// null layer.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Inference: each non-identity layer's infer_into in order (the
  /// training forward minus Dropout), a Conv1d and the Relu after it as
  /// one fused kernel; bit-identical to the layer-by-layer chain.
  /// Touches no mutable layer state, so concurrent infer() calls on one
  /// model are safe (the parallel batch engine relies on this). Allocates only the result (and the
  /// arena when it grows). Throws core::Error{kInvalidArgument} if empty
  /// or if the layer chain rejects the input width.
  [[nodiscard]] math::Matrix infer(const math::Matrix& input) const;

  /// All parameter/gradient pairs, in stable layer order.
  [[nodiscard]] std::vector<ParamRef> parameters();

  /// Zeroes every layer's gradient accumulators.
  void zero_gradients();

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::size_t parameter_count() const;

  /// Validates the layer chain for `input_dim`-wide inputs and returns
  /// the output width. Throws core::Error{kInvalidArgument} on any mismatch.
  [[nodiscard]] std::size_t output_dimension(std::size_t input_dim) const;

  /// One line per layer, for logs and model summaries.
  [[nodiscard]] std::string summary() const;

  /// Layer access (bench/perf_nn times each layer's kernel; a
  /// TrainingWorkspace drives their training kernels).
  [[nodiscard]] const std::vector<std::unique_ptr<Layer>>& layers()
      const noexcept {
    return layers_;
  }

  /// Serializes all parameters (binary, with a magic header and per-
  /// tensor sizes). Architecture itself is not stored: load into a model
  /// constructed with the same topology. Save throws core::Error{kIoError}
  /// on a write failure; load throws core::Error{kCorruptModel} on a
  /// truncated stream or a size mismatch.
  void save_parameters(std::ostream& out) const;
  void load_parameters(std::istream& in);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Every buffer one training call needs for `model`, allocated once.
/// Batches of 1..max_rows rows use a prefix of each buffer. The model
/// must outlive the workspace and keep its layers; one workspace
/// serves one thread.
class TrainingWorkspace {
 public:
  /// Throws core::Error{kInvalidArgument} if `model` is empty, its layer
  /// chain rejects `input_width`, or `max_rows` is 0.
  TrainingWorkspace(Sequential& model, std::size_t input_width,
                    std::size_t max_rows);
  // Layer outputs point into the workspace's own buffers.
  TrainingWorkspace(const TrainingWorkspace&) = delete;
  TrainingWorkspace& operator=(const TrainingWorkspace&) = delete;

  [[nodiscard]] std::size_t input_width() const noexcept {
    return widths_.front();
  }
  [[nodiscard]] std::size_t output_width() const noexcept {
    return widths_.back();
  }

  /// The input batch: write `rows` rows here before forward(rows).
  [[nodiscard]] float* input() noexcept { return input_.data(); }

  /// Training forward over the first `rows` rows of input(); returns
  /// the net's output (rows x output_width()), valid until the next
  /// forward. Dropout layers draw their masks. Throws
  /// core::Error{kInvalidArgument} unless 1 <= rows <= the workspace's
  /// `max_rows`.
  const float* forward(std::size_t rows);

  /// Backward over the last forward's rows from d(loss)/d(output)
  /// (rows x output_width()); adds every parameter gradient to its
  /// accumulator. The net's input gradient is not computed: training
  /// never reads it. Throws core::Error{kInvalidArgument} before any
  /// forward.
  void backward(const float* grad_output);

  /// Layer i's share of forward / backward, each returning what that
  /// layer wrote: forward(rows) runs every forward_layer(i, rows) in
  /// order, backward every backward_layer in reverse, each taking the
  /// gradient the one after it returned (bench/perf_nn times them one
  /// by one). A Relu fused into the Conv1d before it does nothing in
  /// either: the conv's forward_layer returns the Relu's output, and
  /// the Relu's backward_layer returns its argument, which the conv's
  /// backward_layer gates. Layer 0 writes no input gradient: its
  /// backward_layer adds its parameter gradients, if it has any, and
  /// returns nullptr. These check nothing.
  const float* forward_layer(std::size_t i, std::size_t rows);
  const float* backward_layer(std::size_t i, const float* grad_output);

 private:
  [[nodiscard]] float* layer_input(std::size_t i) noexcept {
    return i == 0 ? input_.data() : outputs_[i - 1];
  }
  // True if layer i is a Relu that runs in the Conv1d before it.
  [[nodiscard]] bool runs_in_conv(std::size_t i) const noexcept;

  std::vector<Layer*> layers_;
  std::size_t max_rows_;
  std::size_t rows_ = 0;  // the last forward's batch
  std::vector<std::size_t> widths_;  // [0] input, [i + 1] layer i out
  std::vector<float> input_;
  std::vector<std::vector<float>> buffers_;  // owned layer outputs
  std::vector<float*> outputs_;  // layer i's output (in place: its input)
  std::vector<TrainState> states_;
  // Layer i if it is a Conv1d directly followed by a Relu: the pair
  // trains as one (infer_relu_into, train_backward_relu).
  std::vector<Conv1d*> relu_convs_;
  std::vector<float> grad_ping_;
  std::vector<float> grad_pong_;
};

}  // namespace soteria::nn
