#include "isa/mutate.h"

#include <gtest/gtest.h>

#include "cfg/extractor.h"
#include "dataset/family_profiles.h"
#include "expect_error.h"
#include "isa/codegen.h"

namespace soteria::isa {
namespace {

AsmProgram sample_program(std::uint64_t seed) {
  math::Rng rng(seed);
  auto profile = dataset::profile_for(dataset::Family::kBenign);
  profile.max_functions = 4;
  return generate_program(profile, rng);
}

TEST(MutationConfig, Validation) {
  EXPECT_NO_THROW(validate(MutationConfig{}));
  MutationConfig inverted;
  inverted.min_imm_tweaks = 5;
  inverted.max_imm_tweaks = 1;
  EXPECT_ERROR(validate(inverted), core::ErrorCode::kInvalidArgument);
  MutationConfig negative;
  negative.min_diamond_insertions = -1;
  EXPECT_ERROR(validate(negative), core::ErrorCode::kInvalidArgument);
  MutationConfig zero_ops;
  zero_ops.min_helper_ops = 0;
  EXPECT_ERROR(validate(zero_ops), core::ErrorCode::kInvalidArgument);
}

TEST(Mutate, ResultAlwaysAssembles) {
  const auto base = sample_program(1);
  math::Rng rng(2);
  MutationConfig config;
  for (int i = 0; i < 20; ++i) {
    const auto mutated = mutate_program(base, config, rng);
    EXPECT_NO_THROW((void)assemble(mutated)) << "iteration " << i;
  }
}

TEST(Mutate, ChangesTheBinary) {
  const auto base = sample_program(3);
  const auto base_image = assemble(base);
  math::Rng rng(4);
  MutationConfig config;
  const auto mutated = assemble(mutate_program(base, config, rng));
  EXPECT_NE(mutated, base_image);
}

TEST(Mutate, DeterministicGivenRng) {
  const auto base = sample_program(5);
  MutationConfig config;
  math::Rng a(6);
  math::Rng b(6);
  EXPECT_EQ(assemble(mutate_program(base, config, a)),
            assemble(mutate_program(base, config, b)));
}

TEST(Mutate, ImmTweaksOnlyPreserveCfgShape) {
  const auto base = sample_program(7);
  MutationConfig imm_only;
  imm_only.min_straight_insertions = 0;
  imm_only.max_straight_insertions = 0;
  imm_only.min_diamond_insertions = 0;
  imm_only.max_diamond_insertions = 0;
  imm_only.min_helper_functions = 0;
  imm_only.max_helper_functions = 0;
  math::Rng rng(8);
  const auto mutated = mutate_program(base, imm_only, rng);
  const auto before = cfg::extract(assemble(base));
  const auto after = cfg::extract(assemble(mutated)) ;
  EXPECT_EQ(after.node_count(), before.node_count());
  EXPECT_EQ(after.edge_count(), before.edge_count());
}

TEST(Mutate, DiamondsAddBlocks) {
  const auto base = sample_program(9);
  MutationConfig diamonds;
  diamonds.min_imm_tweaks = 0;
  diamonds.max_imm_tweaks = 0;
  diamonds.min_straight_insertions = 0;
  diamonds.max_straight_insertions = 0;
  diamonds.min_diamond_insertions = 2;
  diamonds.max_diamond_insertions = 2;
  diamonds.min_helper_functions = 0;
  diamonds.max_helper_functions = 0;
  math::Rng rng(10);
  const auto mutated = mutate_program(base, diamonds, rng);
  const auto before = cfg::extract(assemble(base));
  const auto after = cfg::extract(assemble(mutated));
  EXPECT_GT(after.node_count(), before.node_count());
  // Each diamond adds at most 3 blocks (split + skipped + join).
  EXPECT_LE(after.node_count(), before.node_count() + 6);
}

TEST(Mutate, HelpersAddCallEdges) {
  const auto base = sample_program(11);
  MutationConfig helpers;
  helpers.min_imm_tweaks = 0;
  helpers.max_imm_tweaks = 0;
  helpers.min_straight_insertions = 0;
  helpers.max_straight_insertions = 0;
  helpers.min_diamond_insertions = 0;
  helpers.max_diamond_insertions = 0;
  helpers.min_helper_functions = 1;
  helpers.max_helper_functions = 1;
  math::Rng rng(12);
  const auto mutated = mutate_program(base, helpers, rng);
  EXPECT_GE(mutated.instruction_count(),
            base.instruction_count() + 3U);  // call + >=2 body + ret
}

TEST(Mutate, ClusterStaysNearTemplate) {
  // Structural spread across many mutations stays bounded — the
  // property the strain-based corpus relies on.
  const auto base = sample_program(13);
  const auto base_nodes =
      cfg::extract(assemble(base)).node_count();
  MutationConfig config;
  math::Rng rng(14);
  for (int i = 0; i < 10; ++i) {
    const auto mutated = mutate_program(base, config, rng);
    const auto nodes = cfg::extract(assemble(mutated)).node_count();
    EXPECT_LT(nodes, base_nodes + 16);
    EXPECT_GE(nodes + 2, base_nodes);  // pruning can drop a stray block
  }
}

}  // namespace
}  // namespace soteria::isa
