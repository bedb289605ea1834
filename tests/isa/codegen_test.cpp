#include "isa/codegen.h"

#include <gtest/gtest.h>

#include "cfg/extractor.h"
#include "dataset/family_profiles.h"
#include "expect_error.h"
#include "graph/traversal.h"

namespace soteria::isa {
namespace {

TEST(CodeGenValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(validate(CodeGenProfile{}));
}

TEST(CodeGenValidate, RejectsBadRanges) {
  CodeGenProfile p;
  p.min_functions = 5;
  p.max_functions = 2;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);

  p = CodeGenProfile{};
  p.min_constructs = 0;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);

  p = CodeGenProfile{};
  p.min_switch_cases = 9;
  p.max_switch_cases = 3;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);
}

TEST(CodeGenValidate, RejectsBadProbabilities) {
  CodeGenProfile p;
  p.nest_probability = 1.5;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);

  p = CodeGenProfile{};
  p.call_probability = -0.1;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);
}

TEST(CodeGenValidate, RejectsDegenerateWeights) {
  CodeGenProfile p;
  p.straight_weight = 0.0;
  p.branch_weight = 0.0;
  p.loop_weight = 0.0;
  p.switch_weight = 0.0;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);

  p = CodeGenProfile{};
  p.loop_weight = -1.0;
  EXPECT_ERROR(validate(p), core::ErrorCode::kInvalidArgument);
}

TEST(CodeGen, ProgramAssembles) {
  CodeGenProfile p;
  math::Rng rng(1);
  const auto program = generate_program(p, rng);
  EXPECT_GT(program.instruction_count(), 0U);
  EXPECT_NO_THROW((void)assemble(program));
}

TEST(CodeGen, DeterministicGivenSeed) {
  CodeGenProfile p;
  math::Rng a(9);
  math::Rng b(9);
  EXPECT_EQ(generate_binary(p, a), generate_binary(p, b));
}

TEST(CodeGen, DifferentSeedsDiffer) {
  CodeGenProfile p;
  math::Rng a(9);
  math::Rng b(10);
  EXPECT_NE(generate_binary(p, a), generate_binary(p, b));
}

TEST(CodeGen, EndsWithHaltInMain) {
  CodeGenProfile p;
  p.min_functions = 1;
  p.max_functions = 1;
  math::Rng rng(2);
  const auto insns = disassemble(generate_binary(p, rng));
  bool has_halt = false;
  for (const auto& insn : insns) has_halt |= insn.opcode == Opcode::kHalt;
  EXPECT_TRUE(has_halt);
}

// Every generated program must produce a CFG whose blocks are all
// reachable from the entry — the call-plan guarantee.
class FamilyProgram
    : public ::testing::TestWithParam<soteria::dataset::Family> {};

TEST_P(FamilyProgram, AllFunctionsReachable) {
  const auto profile = dataset::profile_for(GetParam());
  math::Rng rng(33);
  for (int trial = 0; trial < 5; ++trial) {
    const auto binary = generate_binary(profile, rng);
    cfg::ExtractOptions keep_all;
    keep_all.prune_unreachable = false;
    const auto full = cfg::extract(binary, keep_all);
    const auto pruned = cfg::extract(binary);
    // Pruning may only drop blocks that are genuinely unreachable; a
    // generated program should lose only a tiny tail (blocks after
    // rets whose only entry was fall-through never taken).
    EXPECT_GE(full.node_count(), pruned.node_count());
    EXPECT_GT(pruned.node_count(), 0U);
    // The pruned CFG is connected from its entry by construction.
    const auto reach =
        graph::reachable_from(pruned.graph(), pruned.entry());
    for (bool r : reach) EXPECT_TRUE(r);
  }
}

TEST_P(FamilyProgram, ProfileIsValid) {
  EXPECT_NO_THROW(validate(dataset::profile_for(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyProgram,
    ::testing::Values(soteria::dataset::Family::kBenign,
                      soteria::dataset::Family::kGafgyt,
                      soteria::dataset::Family::kMirai,
                      soteria::dataset::Family::kTsunami),
    [](const auto& info) {
      return soteria::dataset::family_name(info.param);
    });

}  // namespace
}  // namespace soteria::isa
