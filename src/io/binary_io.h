// Minimal binary (de)serialization helpers used for model and pipeline
// persistence. Streams are little-endian host format with explicit
// sizes; readers validate every length before allocating, and grow a
// container only with the bytes actually read, so a corrupt length
// cannot allocate more than the stream holds.
//
// Failures carry the core::Error taxonomy: write failures throw
// Error{kIoError}; truncated or implausible input throws
// Error{kCorruptModel}.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "soteria/error.h"

namespace soteria::io {

/// Hard cap on any single deserialized container, as a corruption guard.
inline constexpr std::uint64_t kMaxContainerElements = 1ULL << 32;

/// FNV-1a-64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a-64 of `size` bytes at `data`, continuing from `hash`. The one
/// hash behind feature-store entry checksums, pipeline fingerprints and
/// CFG content hashes; a change to it makes every existing store miss.
[[nodiscard]] inline std::uint64_t fnv1a(
    const void* data, std::size_t size,
    std::uint64_t hash = kFnv1aBasis) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Writes a trivially copyable scalar.
template <typename T>
void write_scalar(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  if (!out) {
    throw core::Error(core::ErrorCode::kIoError, "binary_io: write failed");
  }
}

/// Reads a trivially copyable scalar.
template <typename T>
[[nodiscard]] T read_scalar(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw core::Error(core::ErrorCode::kCorruptModel,
                      "binary_io: truncated stream");
  }
  return value;
}

/// Writes a vector of trivially copyable elements (length-prefixed).
template <typename T>
void write_vector(std::ostream& out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_scalar<std::uint64_t>(out, values.size());
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
  if (!out) {
    throw core::Error(core::ErrorCode::kIoError, "binary_io: write failed");
  }
}

template <typename T>
void write_vector(std::ostream& out, const std::vector<T>& values) {
  write_vector<T>(out, std::span<const T>(values));
}

/// Reads a length-prefixed vector.
template <typename T>
[[nodiscard]] std::vector<T> read_vector(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto count = read_scalar<std::uint64_t>(in);
  if (count > kMaxContainerElements) {
    throw core::Error(core::ErrorCode::kCorruptModel,
                      "binary_io: implausible container size " +
                          std::to_string(count));
  }
  constexpr std::size_t kChunk = (std::size_t{1} << 20) / sizeof(T);
  std::vector<T> values;
  while (values.size() < count) {
    const std::size_t done = values.size();
    values.resize(done + static_cast<std::size_t>(std::min<std::uint64_t>(
                             count - done, kChunk)));
    in.read(reinterpret_cast<char*>(values.data() + done),
            static_cast<std::streamsize>((values.size() - done) * sizeof(T)));
    if (!in) {
      throw core::Error(core::ErrorCode::kCorruptModel,
                        "binary_io: truncated stream");
    }
  }
  return values;
}

/// Bytes from the read position to the end of `in`, for a loader to
/// check a size it decoded before allocating for it; infinity when the
/// stream cannot seek.
[[nodiscard]] double bytes_left(std::istream& in);

/// Writes / reads a length-prefixed string.
void write_string(std::ostream& out, const std::string& value);
[[nodiscard]] std::string read_string(std::istream& in);

}  // namespace soteria::io
