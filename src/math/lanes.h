// One 64-byte vector of floats for the order-preserving SIMD kernels
// (math::matmul_into, the nn::Conv1d kernels); not part of the API.
//
// The compiler lowers each lane op to the target's widest float add or
// mul (one AVX-512 instruction, two AVX ones, four SSE ones). A lane op
// rounds each lane on its own, so per element the arithmetic is the
// scalar loop's.
#pragma once

#include <cstddef>
#include <cstring>

namespace soteria::math::simd {

inline constexpr std::size_t kLanes = 16;
using Lanes = float __attribute__((vector_size(kLanes * sizeof(float))));

// Vectors travel through references: passing one by value would make
// its calling convention depend on the target ISA.
inline void load(Lanes& v, const float* p) noexcept {
  std::memcpy(&v, p, sizeof v);
}
inline void store(float* p, const Lanes& v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

// Every lane set to `x` itself: `Lanes{} + x` would turn a -0.0f into
// +0.0f.
inline void splat(Lanes& v, float x) noexcept {
  for (std::size_t l = 0; l < kLanes; ++l) v[l] = x;
}

}  // namespace soteria::math::simd
