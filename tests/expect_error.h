// EXPECT_ERROR(statement, code): `statement` throws core::Error with
// exactly `code`. Throwing nothing, or a core::Error with another code,
// fails the expectation (codes print by name); any other exception
// type escapes and fails the test. Streams a message like EXPECT_EQ.
#pragma once

#include <gtest/gtest.h>

#include "soteria/error.h"

/// The code of the core::Error `body` throws; kOk if it throws none.
template <typename Body>
::soteria::core::ErrorCode soteria_thrown_code(Body&& body) {
  try {
    body();
  } catch (const ::soteria::core::Error& error) {
    return error.code();
  }
  return ::soteria::core::ErrorCode::kOk;
}

#define EXPECT_ERROR(statement, expected_code)                          \
  EXPECT_EQ(::soteria::core::error_code_name(                           \
                soteria_thrown_code([&] { statement; })),               \
            ::soteria::core::error_code_name(expected_code))            \
      << #statement
