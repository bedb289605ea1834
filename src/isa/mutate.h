// Small program mutations over symbolic programs.
//
// Real IoT malware families are forks of a handful of released
// codebases (Gafgyt/BASHLITE, Mirai, Tsunami/Kaiten): samples within a
// family differ by configuration constants, a few added handlers, and
// compiler noise — not by wholesale restructuring. `mutate_program`
// models exactly that: given a family *template* program it applies
//   * immediate tweaks        (no CFG effect — config constants),
//   * straight-line insertions (block size changes, no new blocks),
//   * if-diamond insertions    (a couple of new blocks each),
//   * appended helper functions plus a call site (a small new lobe),
// so per-variant CFGs form tight clusters with small structural spread,
// the way the paper's corpus does.
#pragma once

#include "isa/assembler.h"
#include "math/rng.h"

namespace soteria::isa {

/// Mutation intensity knobs; counts are drawn uniformly in [min, max].
struct MutationConfig {
  int min_imm_tweaks = 2;
  int max_imm_tweaks = 10;
  int min_straight_insertions = 1;
  int max_straight_insertions = 4;
  int min_diamond_insertions = 0;
  int max_diamond_insertions = 2;
  int min_helper_functions = 0;
  int max_helper_functions = 1;
  int min_helper_ops = 2;     ///< straight ops inside an added helper
  int max_helper_ops = 5;
};

/// Throws core::Error{kInvalidArgument} on inverted ranges or negative minima.
void validate(const MutationConfig& config);

/// Returns a mutated copy of `program`. The result always assembles if
/// the input does. Deterministic given `rng`.
[[nodiscard]] AsmProgram mutate_program(const AsmProgram& program,
                                        const MutationConfig& config,
                                        math::Rng& rng);

}  // namespace soteria::isa
