# Fails, naming file:line, when any file under a source tree contains
# `throw std::`. The library reports every failure as a typed
# core::Error (DESIGN.md §6); this keeps an untyped throw from coming
# back.
#
#   cmake -DSOURCE_DIR=<dir> -P no_std_throw.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(needle "throw std::")
file(GLOB_RECURSE files "${SOURCE_DIR}/*")
list(SORT files)
set(hits 0)
foreach(path IN LISTS files)
  file(READ "${path}" rest)
  set(line 1)
  while(TRUE)
    string(FIND "${rest}" "${needle}" at)
    if(at EQUAL -1)
      break()
    endif()
    # Count the newlines before the hit to get its line number.
    string(SUBSTRING "${rest}" 0 ${at} before)
    string(REGEX MATCHALL "\n" newlines "${before}")
    list(LENGTH newlines skipped)
    math(EXPR line "${line} + ${skipped}")
    message("${path}:${line}: untyped throw; use core::Error with an ErrorCode")
    math(EXPR hits "${hits} + 1")
    math(EXPR after "${at} + 1")
    string(SUBSTRING "${rest}" ${after} -1 rest)
  endwhile()
endforeach()

if(hits GREATER 0)
  message(FATAL_ERROR "${hits} `throw std::` under ${SOURCE_DIR}")
endif()
