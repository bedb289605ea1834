// Naive GEMM loops kept as test oracles for the GEMM kernels
// (math::matmul_into, matmul_at_into, and matmul_bt_into against
// matmul_reference on B's transpose) and as the before-side of the
// bench/perf_nn GFLOP/s stages. Each output cell accumulates its
// k-products in ascending order, which the tiled kernels must keep.
#pragma once

#include "math/matrix.h"

namespace soteria::oracles {

/// C = A * B with the i-k-j loop order, skipping zero A entries.
/// Throws std::invalid_argument on an inner-dimension mismatch.
[[nodiscard]] math::Matrix matmul_reference(const math::Matrix& a,
                                            const math::Matrix& b);

/// C = A^T * B with the k-i-j loop order, skipping zero A entries.
/// Throws std::invalid_argument on an inner-dimension mismatch.
[[nodiscard]] math::Matrix matmul_at_reference(const math::Matrix& a,
                                               const math::Matrix& b);

}  // namespace soteria::oracles
