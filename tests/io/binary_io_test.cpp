#include "io/binary_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "expect_error.h"

namespace soteria::io {
namespace {

TEST(BinaryIo, ScalarRoundTrips) {
  std::stringstream stream;
  write_scalar<std::uint64_t>(stream, 0xDEADBEEFCAFEULL);
  write_scalar<double>(stream, 3.25);
  write_scalar<std::int16_t>(stream, -7);
  EXPECT_EQ(read_scalar<std::uint64_t>(stream), 0xDEADBEEFCAFEULL);
  EXPECT_DOUBLE_EQ(read_scalar<double>(stream), 3.25);
  EXPECT_EQ(read_scalar<std::int16_t>(stream), -7);
}

TEST(BinaryIo, ScalarTruncationThrows) {
  std::stringstream stream;
  write_scalar<std::uint16_t>(stream, 1);
  EXPECT_ERROR((void)read_scalar<std::uint64_t>(stream),
               core::ErrorCode::kCorruptModel);
}

TEST(BinaryIo, VectorRoundTrips) {
  std::stringstream stream;
  const std::vector<float> values{1.5F, -2.5F, 3.0F};
  write_vector(stream, values);
  EXPECT_EQ(read_vector<float>(stream), values);
}

TEST(BinaryIo, EmptyVectorRoundTrips) {
  std::stringstream stream;
  write_vector(stream, std::vector<std::uint32_t>{});
  EXPECT_TRUE(read_vector<std::uint32_t>(stream).empty());
}

TEST(BinaryIo, VectorTruncationThrows) {
  std::stringstream stream;
  write_vector(stream, std::vector<double>{1.0, 2.0, 3.0});
  std::string payload = stream.str();
  payload.resize(payload.size() - 4);
  std::stringstream truncated(payload);
  EXPECT_ERROR((void)read_vector<double>(truncated),
               core::ErrorCode::kCorruptModel);
}

TEST(BinaryIo, ImplausibleVectorSizeRejected) {
  std::stringstream stream;
  write_scalar<std::uint64_t>(stream, kMaxContainerElements + 1);
  EXPECT_ERROR((void)read_vector<float>(stream),
               core::ErrorCode::kCorruptModel);
}

TEST(BinaryIo, StringRoundTrips) {
  std::stringstream stream;
  write_string(stream, "hello soteria");
  write_string(stream, "");
  EXPECT_EQ(read_string(stream), "hello soteria");
  EXPECT_EQ(read_string(stream), "");
}

TEST(BinaryIo, StringWithEmbeddedNulls) {
  std::stringstream stream;
  const std::string payload("a\0b", 3);
  write_string(stream, payload);
  EXPECT_EQ(read_string(stream), payload);
}

TEST(BinaryIo, StringTruncationThrows) {
  std::stringstream stream;
  write_scalar<std::uint64_t>(stream, 100);
  stream.write("short", 5);
  EXPECT_ERROR((void)read_string(stream), core::ErrorCode::kCorruptModel);
}

}  // namespace
}  // namespace soteria::io
