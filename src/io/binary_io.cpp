#include "io/binary_io.h"

#include <limits>

namespace soteria::io {

void write_string(std::ostream& out, const std::string& value) {
  write_scalar<std::uint64_t>(out, value.size());
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
  if (!out) {
    throw core::Error(core::ErrorCode::kIoError, "binary_io: write failed");
  }
}

double bytes_left(std::istream& in) {
  const auto here = in.tellg();
  if (here < 0 || !in.seekg(0, std::ios::end)) {
    in.clear();
    return std::numeric_limits<double>::infinity();
  }
  const auto end = in.tellg();
  in.seekg(here);
  return static_cast<double>(end - here);
}

std::string read_string(std::istream& in) {
  // Same layout as a vector of chars, so the same guarded reader.
  const std::vector<char> chars = read_vector<char>(in);
  return {chars.begin(), chars.end()};
}

}  // namespace soteria::io
