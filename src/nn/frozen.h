// FrozenNet: a fitted Sequential compiled into a flat op list with
// preallocated ping-pong scratch — zero allocation per inference call.
// AeDetector and FamilyClassifier score through one; Sequential keeps
// training.
//
// Compilation resolves all shapes once and points each op at its
// layer's own weight and bias tensors (nothing is copied), so
// infer_into is a straight walk over the ops driving the same raw
// kernels Layer::infer uses (math::matmul_into, nn::conv1d_infer_into,
// and verbatim replicas of the ReLU/Sigmoid/MaxPool element loops).
// The result is bit-identical to Sequential::infer on the compiled
// model for finite inputs. Dropout layers are identity at inference
// and compile away entirely.
#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "nn/sequential.h"

namespace soteria::nn {

class FrozenNet {
 public:
  /// Reusable per-thread ping-pong arena. One Scratch serves any
  /// number of infer_into calls; buffers grow on demand and never
  /// shrink.
  struct Scratch {
    std::vector<float> a;
    std::vector<float> b;
  };

  FrozenNet() = default;

  /// Compiles `model` for `input_dim`-wide rows. Validates the layer
  /// chain (same checks as Sequential::output_dimension) and refers to
  /// the layers' weight tensors, so the net must not outlive the
  /// layers. Moving the Sequential is fine (layers sit behind
  /// unique_ptr), and in-place weight updates show in the next call;
  /// adding or removing layers needs a recompile. Throws
  /// std::invalid_argument on an unsupported layer type or shape
  /// mismatch.
  [[nodiscard]] static FrozenNet compile(const Sequential& model,
                                         std::size_t input_dim);

  [[nodiscard]] std::size_t input_dim() const noexcept { return input_dim_; }
  [[nodiscard]] std::size_t output_dim() const noexcept {
    return output_dim_;
  }
  [[nodiscard]] bool compiled() const noexcept { return !ops_.empty(); }

  /// Sizes `scratch` for `rows`-row batches (idempotent; growing only).
  void reserve_scratch(Scratch& scratch, std::size_t rows) const;

  /// Allocating form of infer_into over a per-thread scratch: the
  /// rows x output_dim() outputs for a rows x input_dim() batch. Const
  /// and safe for concurrent callers. Throws std::logic_error when not
  /// compiled and std::invalid_argument on a width mismatch.
  [[nodiscard]] math::Matrix infer(const math::Matrix& input) const;

  /// Runs the compiled stack over `rows` x input_dim() row-major
  /// `in`, writing rows x output_dim() to `out` (which must not alias
  /// scratch). Grows `scratch` if needed; no other allocation.
  void infer_into(const float* in, std::size_t rows, float* out,
                  Scratch& scratch) const;

 private:
  enum class OpKind { kDense, kRelu, kSigmoid, kConv1d, kMaxPool1d };

  struct Op {
    OpKind kind;
    std::size_t in_width = 0;
    std::size_t out_width = 0;
    // Conv/pool geometry (unused for dense/activations).
    std::size_t in_channels = 0;
    std::size_t in_length = 0;
    std::size_t out_channels = 0;
    std::size_t kernel = 0;
    std::size_t window = 0;
    // The layer's own tensors. Dense: in_width x out_width row-major;
    // conv: out_channels x (in_channels*kernel).
    const math::Matrix* weights = nullptr;
    const math::Matrix* bias = nullptr;
  };

  std::vector<Op> ops_;
  std::size_t input_dim_ = 0;
  std::size_t output_dim_ = 0;
  std::size_t max_width_ = 0;  // widest intermediate, for scratch sizing
};

}  // namespace soteria::nn
