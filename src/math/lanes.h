// One 64-byte vector of floats for the order-preserving SIMD kernels
// (the math:: GEMMs, the nn::Conv1d kernels); not part of the API.
//
// The compiler lowers each lane op to the target's widest float add or
// mul (one AVX-512 instruction, two AVX ones, four SSE ones). A lane op
// rounds each lane on its own, so per element the arithmetic is the
// scalar loop's.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

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

namespace detail {

// Swaps bit H of the row index with bit H of the lane index between
// rows x and y (y is x's row + H): lane l + H of x trades places with
// lane l of y wherever bit H of l is clear.
template <std::size_t H, std::size_t... L>
void swap_bit(Lanes& x, Lanes& y, std::index_sequence<L...>) noexcept {
  const Lanes lo =
      __builtin_shufflevector(x, y, ((L & H) == 0 ? L : kLanes + L - H)...);
  const Lanes hi =
      __builtin_shufflevector(x, y, ((L & H) == 0 ? L + H : kLanes + L)...);
  x = lo;
  y = hi;
}

template <std::size_t H>
void swap_bit(Lanes (&rows)[kLanes]) noexcept {
  for (std::size_t i = 0; i < kLanes; ++i) {
    if ((i & H) == 0) {
      swap_bit<H>(rows[i], rows[i + H], std::make_index_sequence<kLanes>{});
    }
  }
}

}  // namespace detail

// Transposes a kLanes x kLanes block held in registers (rows[i][l]
// becomes rows[l][i]): one two-source shuffle per row and index bit.
// Values are moved, never computed, so every bit is kept.
inline void transpose(Lanes (&rows)[kLanes]) noexcept {
  static_assert(kLanes == 16, "four stages transpose 16 lanes");
  detail::swap_bit<8>(rows);
  detail::swap_bit<4>(rows);
  detail::swap_bit<2>(rows);
  detail::swap_bit<1>(rows);
}

// dst[t * ldd + j] = src[j * lds + t] for j < cols, t < depth: whole
// kLanes x kLanes blocks through transpose, the edges one float at a
// time.
inline void transpose_into(const float* src, std::size_t lds, float* dst,
                           std::size_t ldd, std::size_t cols,
                           std::size_t depth) noexcept {
  std::size_t j = 0;
  for (; j + kLanes <= cols; j += kLanes) {
    std::size_t t = 0;
    for (; t + kLanes <= depth; t += kLanes) {
      Lanes block[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        load(block[l], src + (j + l) * lds + t);
      }
      transpose(block);
      for (std::size_t l = 0; l < kLanes; ++l) {
        store(dst + (t + l) * ldd + j, block[l]);
      }
    }
    for (; t < depth; ++t) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        dst[t * ldd + j + l] = src[(j + l) * lds + t];
      }
    }
  }
  for (; j < cols; ++j) {
    for (std::size_t t = 0; t < depth; ++t) dst[t * ldd + j] = src[j * lds + t];
  }
}

}  // namespace soteria::math::simd
