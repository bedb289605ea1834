# Writes every ```cpp block of a Markdown file into one C++ translation
# unit: each block in its own { } scope inside a stub function whose
# parameters supply the names the snippets assume (data, cfgs, cfg,
# model, rng, system). Compiling the result is the check — a snippet
# that no longer matches the API breaks the build, and the #line
# directives point the error at the Markdown line.
#
#   cmake -DMARKDOWN=<file.md> -DOUTPUT=<file.cpp> -P readme_snippets.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT MARKDOWN OR NOT OUTPUT)
  message(FATAL_ERROR "usage: cmake -DMARKDOWN=<md> -DOUTPUT=<cpp> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(READ "${MARKDOWN}" rest)
set(fence "```cpp\n")
string(LENGTH "${fence}" fence_length)
set(line 1)
set(blocks "")
set(count 0)
while(TRUE)
  string(FIND "${rest}" "${fence}" start)
  if(start EQUAL -1)
    break()
  endif()
  # Advance past the fence, counting the lines skipped on the way.
  math(EXPR after_fence "${start} + ${fence_length}")
  string(SUBSTRING "${rest}" 0 ${after_fence} skipped)
  string(REGEX MATCHALL "\n" newlines "${skipped}")
  list(LENGTH newlines skipped_lines)
  math(EXPR line "${line} + ${skipped_lines}")
  string(SUBSTRING "${rest}" ${after_fence} -1 rest)

  string(FIND "${rest}" "```" stop)
  if(stop EQUAL -1)
    message(FATAL_ERROR "${MARKDOWN}:${line}: unterminated ```cpp block")
  endif()
  string(SUBSTRING "${rest}" 0 ${stop} block)
  string(SUBSTRING "${rest}" ${stop} -1 rest)
  math(EXPR count "${count} + 1")
  string(APPEND blocks "  {\n#line ${line} \"${MARKDOWN}\"\n${block}  }\n")
  string(REGEX MATCHALL "\n" newlines "${block}")
  list(LENGTH newlines block_lines)
  math(EXPR line "${line} + ${block_lines}")
endwhile()

if(count EQUAL 0)
  message(FATAL_ERROR "${MARKDOWN}: no ```cpp blocks found")
endif()

file(WRITE "${OUTPUT}" "// Generated from ${MARKDOWN} (${count} blocks); do not edit.
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include \"cfg/cfg.h\"
#include \"dataset/generator.h\"
#include \"math/rng.h\"
#include \"obs/export.h\"
#include \"obs/metrics.h\"
#include \"serve/service.h\"
#include \"soteria/presets.h\"
#include \"soteria/system.h\"
#include \"store/feature_store.h\"

using namespace std::chrono_literals;

void readme_snippets(
    soteria::dataset::Dataset& data, std::vector<soteria::cfg::Cfg>& cfgs,
    soteria::cfg::Cfg& cfg,
    std::shared_ptr<const soteria::core::SoteriaSystem>& model,
    soteria::math::Rng& rng, soteria::core::SoteriaSystem& system) {
${blocks}}
")
