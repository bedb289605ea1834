// The one error type of the library: every failure a public entry point
// reports is an `Error` with a machine-readable `ErrorCode`, so a caller
// can tell a bad argument from a corrupt model file from queue
// backpressure from an expired deadline without string matching.
// `Error` derives from std::runtime_error, so `catch (const
// std::exception&)` sites keep working.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace soteria::core {

/// Machine-readable failure categories surfaced by the public API.
enum class ErrorCode {
  kOk = 0,            ///< not an error (e.g. an accepted service ticket)
  kInvalidArgument,   ///< invalid value or config, or an object not ready
  kOutOfRange,        ///< a value exceeded a structural limit
  kIoError,           ///< file could not be opened / read / written
  kCorruptModel,      ///< persisted model stream failed validation
  kQueueFull,         ///< service queue at capacity (backpressure)
  kDeadlineExceeded,  ///< request deadline passed before completion
  kCancelled,         ///< request discarded by a cancel-mode shutdown
  kShuttingDown,      ///< service no longer accepts new work
  kInternal,          ///< unexpected failure inside the library
};

/// Stable identifier for a code ("QueueFull", "CorruptModel", ...).
[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

/// Exception with a typed code. what() is "[<code name>] <message>".
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message);

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

}  // namespace soteria::core
