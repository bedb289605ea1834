// Statistical pins on the generated corpus: CFG sizes stay inside
// loose, paper-informed bounds per family, and strain structure shows
// up as within-strain similarity. These bounds are deliberately slack —
// they catch generator regressions, not exact distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "dataset/generator.h"
#include "graph/properties.h"
#include "math/stats.h"

namespace soteria::dataset {
namespace {

// gtest names each instantiation after a byte dump of its parameter,
// so the bytes after `family` are an explicit zeroed member rather
// than compiler padding: uninitialised padding leaks stack addresses
// into the test names and makes them differ per run.
struct FamilyBounds {
  FamilyBounds(Family f, double lo, double hi, std::size_t max)
      : family(f), min_median(lo), max_median(hi), hard_max(max) {}
  Family family;
  std::array<std::uint8_t, 7> zero_fill{};
  double min_median;
  double max_median;
  std::size_t hard_max;
};
static_assert(sizeof(FamilyBounds) == 32,
              "FamilyBounds must have no implicit padding");

class CorpusStats : public ::testing::TestWithParam<FamilyBounds> {};

TEST_P(CorpusStats, NodeCountsStayInFamilyRange) {
  const auto bounds = GetParam();
  math::Rng rng(314);
  std::vector<double> nodes;
  for (int i = 0; i < 60; ++i) {
    const auto sample = generate_sample(bounds.family, i, rng);
    nodes.push_back(static_cast<double>(sample.cfg.node_count()));
  }
  const double median = math::median(nodes);
  EXPECT_GE(median, bounds.min_median) << family_name(bounds.family);
  EXPECT_LE(median, bounds.max_median) << family_name(bounds.family);
  EXPECT_LE(math::max(nodes), static_cast<double>(bounds.hard_max));
  EXPECT_GE(math::min(nodes), 8.0);  // generator's rejection floor
}

INSTANTIATE_TEST_SUITE_P(
    Families, CorpusStats,
    ::testing::Values(FamilyBounds{Family::kBenign, 40, 260, 700},
                      FamilyBounds{Family::kGafgyt, 30, 180, 600},
                      FamilyBounds{Family::kMirai, 40, 260, 700},
                      FamilyBounds{Family::kTsunami, 15, 160, 500}),
    [](const auto& info) { return family_name(info.param.family); });

TEST(CorpusStats, StrainMatesShareSize) {
  math::Rng rng(315);
  isa::MutationConfig mutation;  // defaults
  std::vector<double> spread;
  for (std::uint64_t strain = 0; strain < 6; ++strain) {
    std::vector<double> nodes;
    for (int i = 0; i < 6; ++i) {
      const auto sample = generate_variant_sample(
          Family::kGafgyt, i, 9000 + strain, mutation, rng);
      nodes.push_back(static_cast<double>(sample.cfg.node_count()));
    }
    spread.push_back(math::max(nodes) - math::min(nodes));
  }
  // Constants-and-padding mutations keep strain-mates within a small
  // structural band.
  EXPECT_LE(math::max(spread), 14.0);
}

TEST(CorpusStats, FamiliesHaveDistinctLoopDensity) {
  // Mirai's profile is loop-dominated, Tsunami's is switch-dominated:
  // their mean back-edge fractions must be ordered accordingly.
  math::Rng rng(316);
  const auto mean_loop_fraction = [&rng](Family family) {
    double total = 0.0;
    for (int i = 0; i < 25; ++i) {
      const auto sample = generate_sample(family, i, rng);
      const auto props = graph::graph_properties(sample.cfg.graph());
      if (props.edge_count > 0) {
        total += static_cast<double>(props.loop_edge_count) /
                 static_cast<double>(props.edge_count);
      }
    }
    return total / 25.0;
  };
  EXPECT_GT(mean_loop_fraction(Family::kMirai),
            mean_loop_fraction(Family::kTsunami));
}

}  // namespace
}  // namespace soteria::dataset
