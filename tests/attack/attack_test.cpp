#include <gtest/gtest.h>

#include "attack/binary_gea.h"
#include "attack/obfuscation.h"
#include "cfg/extractor.h"
#include "dataset/family_profiles.h"
#include "expect_error.h"
#include "isa/codegen.h"
#include "isa/vm.h"
#include "soteria/error.h"

namespace soteria::attack {
namespace {

std::vector<std::uint8_t> sample_binary(dataset::Family family,
                                        std::uint64_t seed) {
  math::Rng rng(seed);
  return isa::generate_binary(dataset::profile_for(family), rng);
}

TEST(BinaryGea, CombinedImageStillExecutesOriginalBehaviour) {
  const auto original = sample_binary(dataset::Family::kMirai, 1);
  const auto target = sample_binary(dataset::Family::kBenign, 2);
  const auto combined = binary_gea_chain(original, std::span(&target, 1));

  const auto original_run = isa::execute(original);
  const auto combined_run = isa::execute(combined);
  ASSERT_EQ(original_run.status, isa::VmStatus::kHalted);
  ASSERT_EQ(combined_run.status, isa::VmStatus::kHalted);
  // Guard adds exactly its own steps; the original side runs unchanged.
  EXPECT_EQ(combined_run.steps,
            original_run.steps + kGuardInstructions);
  EXPECT_EQ(combined_run.syscalls, original_run.syscalls);
}

TEST(BinaryGea, ExtractedCfgHasSharedEntryShape) {
  const auto original = sample_binary(dataset::Family::kGafgyt, 3);
  const auto target = sample_binary(dataset::Family::kBenign, 4);
  const auto combined = binary_gea_chain(original, std::span(&target, 1));

  const auto original_cfg = cfg::extract(original);
  const auto target_cfg = cfg::extract(target);
  const auto combined_cfg = cfg::extract(combined);

  // Both lobes are statically reachable: the combined CFG must be at
  // least as large as the two parts combined (the guard may merge into
  // a lobe block boundary, so allow a small delta).
  EXPECT_GE(combined_cfg.node_count() + 2,
            original_cfg.node_count() + target_cfg.node_count());
  // The entry block ends in the guard's conditional: two successors.
  EXPECT_EQ(combined_cfg.graph().out_degree(combined_cfg.entry()), 2U);
}

TEST(BinaryGea, Validation) {
  const auto good = sample_binary(dataset::Family::kBenign, 5);
  try {
    (void)binary_gea_chain({}, std::span(&good, 1));
    FAIL() << "expected core::Error";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }
  const std::vector<std::uint8_t> empty;
  EXPECT_ERROR((void)binary_gea_chain(good, std::span(&empty, 1)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)binary_gea_chain(good, {}),
               core::ErrorCode::kInvalidArgument);
  const std::vector<std::uint8_t> ragged{1, 2, 3};
  EXPECT_ERROR((void)binary_gea_chain(ragged, std::span(&good, 1)),
               core::ErrorCode::kInvalidArgument);
}

TEST(AppendAttack, ChangesBytesNotCfg) {
  const auto original = sample_binary(dataset::Family::kTsunami, 6);
  math::Rng rng(7);
  const auto padded = append_attack(original, 256, rng);
  EXPECT_EQ(padded.size(), original.size() + 256);

  const auto before = cfg::extract(original);
  const auto after = cfg::extract(padded);
  EXPECT_EQ(after.node_count(), before.node_count());
  EXPECT_EQ(after.edge_count(), before.edge_count());
}

TEST(AppendAttack, PaddedImageStillExecutes) {
  const auto original = sample_binary(dataset::Family::kMirai, 8);
  math::Rng rng(9);
  const auto padded = append_attack(original, 512, rng);
  const auto result = isa::execute(padded);
  EXPECT_EQ(result.status, isa::VmStatus::kHalted);
  EXPECT_EQ(result.steps, isa::execute(original).steps);
}

TEST(AppendAttack, RoundsUpToInstructionBoundary) {
  const auto original = sample_binary(dataset::Family::kBenign, 10);
  math::Rng rng(11);
  const auto padded = append_attack(original, 5, rng);
  EXPECT_EQ(padded.size() % isa::kInstructionSize, 0U);
  EXPECT_EQ(padded.size(), original.size() + 8);  // 5 -> 2 instructions
}

TEST(OpaquePredicates, AddBlocksWithoutChangingBehaviour) {
  const auto original = sample_binary(dataset::Family::kGafgyt, 12);
  math::Rng rng(13);
  const auto obfuscated = opaque_predicates(original, 4, rng);

  const auto before = cfg::extract(original);
  const auto after = cfg::extract(obfuscated);
  EXPECT_GT(after.node_count(), before.node_count());

  const auto original_run = isa::execute(original);
  const auto obfuscated_run = isa::execute(obfuscated);
  ASSERT_EQ(obfuscated_run.status, isa::VmStatus::kHalted);
  EXPECT_EQ(obfuscated_run.syscalls, original_run.syscalls);
}

TEST(OpaquePredicates, ZeroCountIsJustATrampoline) {
  const auto original = sample_binary(dataset::Family::kBenign, 14);
  math::Rng rng(15);
  const auto obfuscated = opaque_predicates(original, 0, rng);
  EXPECT_EQ(obfuscated.size(),
            original.size() + isa::kInstructionSize);  // the jmp only
  EXPECT_EQ(isa::execute(obfuscated).status, isa::VmStatus::kHalted);
}

TEST(IndirectBranches, RemoveEdgesFromTheCfg) {
  const auto original = sample_binary(dataset::Family::kMirai, 16);
  math::Rng rng(17);
  const auto obfuscated = indirect_branches(original, 1.0, rng);
  const auto before = cfg::extract(original);
  const auto after = cfg::extract(obfuscated);
  // Every direct jmp removed -> strictly fewer edges unless the binary
  // had no jumps at all (not the case for generated programs).
  EXPECT_LT(after.edge_count(), before.edge_count());
}

TEST(IndirectBranches, ZeroFractionIsIdentity) {
  const auto original = sample_binary(dataset::Family::kBenign, 18);
  math::Rng rng(19);
  EXPECT_EQ(indirect_branches(original, 0.0, rng), original);
  EXPECT_ERROR((void)indirect_branches(original, 1.5, rng),
               core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::attack
