// Property tests: invariants of binary->CFG extraction over randomly
// generated firmware of every family profile.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>

#include "cfg/extractor.h"
#include "dataset/family_profiles.h"
#include "graph/traversal.h"
#include "isa/codegen.h"

namespace soteria::cfg {
namespace {

// gtest names each instantiation after a byte dump of its parameter,
// so the bytes between `family` and `seed` are an explicit zeroed
// member rather than compiler padding: uninitialised padding leaks
// stack addresses into the test names and makes them differ per run.
struct Case {
  Case(dataset::Family f, std::uint64_t s) : family(f), seed(s) {}
  dataset::Family family;
  std::array<std::uint8_t, 7> zero_fill{};
  std::uint64_t seed;
};
static_assert(sizeof(Case) == 16, "Case must have no implicit padding");

class ExtractionProperties : public ::testing::TestWithParam<Case> {};

TEST_P(ExtractionProperties, BlocksPartitionReachableInstructions) {
  math::Rng rng(GetParam().seed);
  const auto binary =
      isa::generate_binary(dataset::profile_for(GetParam().family), rng);
  const Cfg cfg = extract(binary);

  // Blocks are disjoint, non-empty, in-range instruction intervals.
  const std::size_t instruction_count =
      binary.size() / isa::kInstructionSize;
  std::set<std::size_t> covered;
  for (const auto& block : cfg.blocks()) {
    EXPECT_GT(block.instruction_count, 0U);
    for (std::size_t i = 0; i < block.instruction_count; ++i) {
      const std::size_t index = block.first_instruction + i;
      EXPECT_LT(index, instruction_count);
      EXPECT_TRUE(covered.insert(index).second)
          << "instruction " << index << " appears in two blocks";
    }
  }
}

TEST_P(ExtractionProperties, EveryBlockReachableFromEntry) {
  math::Rng rng(GetParam().seed);
  const auto binary =
      isa::generate_binary(dataset::profile_for(GetParam().family), rng);
  const Cfg cfg = extract(binary);
  const auto reach = graph::reachable_from(cfg.graph(), cfg.entry());
  for (graph::NodeId v = 0; v < cfg.node_count(); ++v) {
    EXPECT_TRUE(reach[v]);
  }
}

TEST_P(ExtractionProperties, EntryBlockContainsInstructionZero) {
  math::Rng rng(GetParam().seed);
  const auto binary =
      isa::generate_binary(dataset::profile_for(GetParam().family), rng);
  const Cfg cfg = extract(binary);
  const auto& entry_block = cfg.blocks()[cfg.entry()];
  EXPECT_EQ(entry_block.first_instruction, 0U);
}

TEST_P(ExtractionProperties, SuccessorCountsAreBounded) {
  math::Rng rng(GetParam().seed);
  const auto binary =
      isa::generate_binary(dataset::profile_for(GetParam().family), rng);
  const Cfg cfg = extract(binary);
  for (graph::NodeId v = 0; v < cfg.node_count(); ++v) {
    // No SIR-32 terminator produces more than two successors.
    EXPECT_LE(cfg.graph().out_degree(v), 2U);
  }
}

TEST_P(ExtractionProperties, PruningIsIdempotent) {
  math::Rng rng(GetParam().seed);
  const auto binary =
      isa::generate_binary(dataset::profile_for(GetParam().family), rng);
  const Cfg once = extract(binary);
  // The pruned CFG re-extracted from the same binary is identical in
  // shape (extraction is deterministic).
  const Cfg twice = extract(binary);
  EXPECT_EQ(once.node_count(), twice.node_count());
  EXPECT_EQ(once.edge_count(), twice.edge_count());
  EXPECT_EQ(once.entry(), twice.entry());
}

TEST_P(ExtractionProperties, UnprunedIsSupersetOfPruned) {
  math::Rng rng(GetParam().seed);
  const auto binary =
      isa::generate_binary(dataset::profile_for(GetParam().family), rng);
  ExtractOptions keep_all;
  keep_all.prune_unreachable = false;
  const Cfg full = extract(binary, keep_all);
  const Cfg pruned = extract(binary);
  EXPECT_GE(full.node_count(), pruned.node_count());
  EXPECT_GE(full.edge_count(), pruned.edge_count());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtractionProperties,
    ::testing::Values(Case{dataset::Family::kBenign, 11},
                      Case{dataset::Family::kBenign, 12},
                      Case{dataset::Family::kGafgyt, 13},
                      Case{dataset::Family::kGafgyt, 14},
                      Case{dataset::Family::kMirai, 15},
                      Case{dataset::Family::kMirai, 16},
                      Case{dataset::Family::kTsunami, 17},
                      Case{dataset::Family::kTsunami, 18}),
    [](const auto& info) {
      return std::string(dataset::family_name(info.param.family)) +
             "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace soteria::cfg
