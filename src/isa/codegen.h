// Structured random program generation.
//
// `generate_program` builds a whole synthetic firmware image: a main
// entry function plus a call graph of helper functions, each assembled
// from structured constructs (straight-line blocks, if/else diamonds,
// while loops, switch dispatch chains, call sites). A `CodeGenProfile`
// controls the mix; the dataset module instantiates one profile per
// malware family so that CFG *shape* distributions differ by class,
// which is all Soteria's features ever observe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.h"
#include "math/rng.h"

namespace soteria::isa {

/// Knobs controlling the control-flow idioms of generated programs.
/// All probabilities are in [0, 1]; construct-kind probabilities are
/// normalized internally, so they need not sum to 1.
struct CodeGenProfile {
  std::string name = "generic";

  int min_functions = 4;       ///< total functions incl. main
  int max_functions = 20;
  int min_constructs = 2;      ///< structured constructs per function
  int max_constructs = 6;
  int min_straight = 1;        ///< ALU/mem ops per straight-line block
  int max_straight = 4;

  double straight_weight = 1.0;  ///< plain basic block
  double branch_weight = 1.0;    ///< if/else diamond
  double loop_weight = 0.5;      ///< while loop
  double switch_weight = 0.2;    ///< compare/branch dispatch chain

  int min_switch_cases = 3;
  int max_switch_cases = 6;

  double nest_probability = 0.3;   ///< chance a branch/loop body nests
  int max_nesting_depth = 3;
  double call_probability = 0.3;   ///< chance a block ends in a call
  double early_ret_probability = 0.05;
};

/// Throws core::Error{kInvalidArgument} if the profile is inconsistent
/// (min > max, probabilities outside [0,1], no positive construct
/// weight).
void validate(const CodeGenProfile& profile);

/// Generates a symbolic program. Function 0 (the image entry at offset
/// 0) is main; every generated function is reachable through the call
/// graph. Deterministic given `rng`'s state.
[[nodiscard]] AsmProgram generate_program(const CodeGenProfile& profile,
                                          math::Rng& rng);

/// Convenience: generate + assemble.
[[nodiscard]] std::vector<std::uint8_t> generate_binary(
    const CodeGenProfile& profile, math::Rng& rng);

}  // namespace soteria::isa
