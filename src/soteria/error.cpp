#include "soteria/error.h"

namespace soteria::core {

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kOk: return "Ok";
    case ErrorCode::kInvalidArgument: return "InvalidArgument";
    case ErrorCode::kOutOfRange: return "OutOfRange";
    case ErrorCode::kIoError: return "IoError";
    case ErrorCode::kCorruptModel: return "CorruptModel";
    case ErrorCode::kQueueFull: return "QueueFull";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ErrorCode::kCancelled: return "Cancelled";
    case ErrorCode::kShuttingDown: return "ShuttingDown";
    case ErrorCode::kInternal: return "Internal";
  }
  return "Unknown";
}

namespace {

std::string format_what(ErrorCode code, const std::string& message) {
  const std::string_view name = error_code_name(code);
  std::string what;
  what.reserve(name.size() + message.size() + 3);
  what.push_back('[');
  what.append(name);
  what.append("] ");
  what.append(message);
  return what;
}

}  // namespace

Error::Error(ErrorCode code, const std::string& message)
    : std::runtime_error(format_what(code, message)), code_(code) {}

}  // namespace soteria::core
