// Deterministic random number generation for all stochastic components.
//
// Every stochastic piece of Soteria (random walks, dataset generation,
// weight initialization, dropout, shuffling) draws from an explicitly
// seeded `Rng`, so experiments are reproducible bit-for-bit. Child
// generators derived via `fork()` are decorrelated through a SplitMix64
// hash of the parent stream, which lets independent pipeline stages own
// independent streams without manual seed bookkeeping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "soteria/error.h"

namespace soteria::math {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used to derive
/// well-distributed seeds from small integers (0, 1, 2, ...).
[[nodiscard]] constexpr std::uint64_t split_mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded pseudo-random generator wrapping std::mt19937_64.
///
/// Copyable (copies duplicate the stream state) and cheap to fork.
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(std::uint64_t seed) : engine_(split_mix64(seed)), seed_(seed) {}

  /// The seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derives an independent child generator. Children with distinct
  /// `stream` values (or drawn from distinct parents) are decorrelated.
  [[nodiscard]] Rng fork(std::uint64_t stream) noexcept {
    return Rng(split_mix64(seed_ ^ split_mix64(stream + 0x51ed2701)));
  }

  /// Same derivation as fork(), but const: the child depends only on
  /// this generator's construction seed, never on its stream position.
  /// This is the split used by the parallel batch engine — one child
  /// per sample index makes results independent of scheduling order and
  /// bit-identical to a serial loop at any thread count.
  [[nodiscard]] Rng child(std::uint64_t index) const noexcept {
    return Rng(split_mix64(seed_ ^ split_mix64(index + 0x51ed2701)));
  }

  /// Uniform integer in [lo, hi] (inclusive). Throws if lo > hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Rng::uniform_int: lo > hi");
    }
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Throws if n == 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    if (n == 0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Rng::index: empty range");
    }
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    if (!(lo < hi)) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Rng::uniform: lo >= hi");
    }
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) {
    if (stddev < 0.0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Rng::normal: stddev < 0");
    }
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) {
    if (p < 0.0 || p > 1.0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Rng::bernoulli: p outside [0,1]");
    }
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Geometric-ish positive count: 1 + Geometric(p). Handy for sizing
  /// synthetic program constructs.
  [[nodiscard]] int positive_geometric(double p) {
    if (p <= 0.0 || p > 1.0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "Rng::positive_geometric: p outside (0,1]");
    }
    return 1 + std::geometric_distribution<int>(p)(engine_);
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& choice(std::span<const T> items) {
    return items[index(items.size())];
  }

  template <typename T>
  [[nodiscard]] const T& choice(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Fisher-Yates shuffle in place.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  /// A random permutation of [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    shuffle(p);
    return p;
  }

  /// Access to the underlying engine for std distributions.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace soteria::math
