#include "dataset/generator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cfg/extractor.h"
#include "dataset/family_profiles.h"
#include "isa/codegen.h"
#include "soteria/error.h"

namespace soteria::dataset {

void validate(const DatasetConfig& config) {
  if (!(config.scale > 0.0)) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "DatasetConfig: scale must be positive");
  }
  if (!(config.train_fraction > 0.0) || !(config.train_fraction < 1.0)) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "DatasetConfig: train_fraction outside (0, 1)");
  }
  for (double ratio : config.variant_ratio) {
    if (ratio <= 0.0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        "DatasetConfig: variant ratios must be positive");
    }
  }
  if (config.min_variants == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "DatasetConfig: min_variants must be positive");
  }
  for (const auto& mutation : config.mutation) {
    isa::validate(mutation);
  }
}

std::array<isa::MutationConfig, kFamilyCount>
DatasetConfig::default_mutations() {
  std::array<isa::MutationConfig, kFamilyCount> mutations;

  isa::MutationConfig structural;  // code-restructuring forks
  structural.min_straight_insertions = 1;
  structural.max_straight_insertions = 3;
  structural.min_diamond_insertions = 0;
  structural.max_diamond_insertions = 1;
  structural.min_helper_functions = 0;
  structural.max_helper_functions = 1;
  structural.max_helper_ops = 3;

  isa::MutationConfig config_only;  // constants-and-padding forks
  config_only.min_imm_tweaks = 4;
  config_only.max_imm_tweaks = 16;
  config_only.min_straight_insertions = 0;
  config_only.max_straight_insertions = 2;
  config_only.min_diamond_insertions = 0;
  config_only.max_diamond_insertions = 0;
  config_only.min_helper_functions = 0;
  config_only.max_helper_functions = 0;

  // Benign keeps a light structural spread (independent projects and
  // rebuilds); malware families mutate constants/padding only — their
  // structural diversity comes from the strain count instead, which is
  // how fork ecosystems actually look (each fork is a new strain that
  // itself appears in the corpus).
  isa::MutationConfig benign = config_only;
  benign.min_straight_insertions = 1;
  benign.max_straight_insertions = 3;
  mutations[family_index(Family::kBenign)] = benign;
  mutations[family_index(Family::kGafgyt)] = config_only;
  mutations[family_index(Family::kMirai)] = config_only;
  mutations[family_index(Family::kTsunami)] = config_only;
  return mutations;
}

std::size_t scaled_count(std::size_t count, double scale) {
  const auto scaled = static_cast<std::size_t>(
      std::floor(static_cast<double>(count) * scale));
  return std::max<std::size_t>(5, scaled);
}

std::array<std::size_t, kFamilyCount> Dataset::class_counts(
    const std::vector<Sample>& samples) {
  std::array<std::size_t, kFamilyCount> counts{};
  for (const auto& s : samples) ++counts[family_index(s.family)];
  return counts;
}

namespace {

// Reject degenerate programs that collapse into a handful of blocks:
// the paper's smallest sample has 10 nodes, and sub-gram-size graphs
// make walk features meaningless.
constexpr std::size_t kMinNodes = 8;
constexpr int kMaxAttempts = 64;

}  // namespace

Sample generate_sample(Family family, std::uint64_t id, math::Rng& rng) {
  Sample sample;
  sample.id = id;
  sample.family = family;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    sample.binary = isa::generate_binary(profile_for(family), rng);
    sample.cfg = cfg::extract(sample.binary);
    if (sample.cfg.node_count() >= kMinNodes) return sample;
  }
  return sample;  // pathologically unlucky stream: keep the last draw
}

std::size_t variant_count(const DatasetConfig& config, Family family,
                          std::size_t count) {
  const double ratio = config.variant_ratio[family_index(family)];
  const auto variants = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) * ratio));
  // Not std::clamp: count may fall below min_variants, and then the
  // count wins.
  return std::min(std::max(variants, config.min_variants), count);
}

Sample generate_variant_sample(Family family, std::uint64_t id,
                               std::uint64_t variant_seed,
                               const isa::MutationConfig& mutation,
                               math::Rng& rng) {
  // The strain template is fully determined by the variant seed; the
  // per-sample mutation draws from the caller's stream.
  math::Rng template_rng(variant_seed);
  isa::AsmProgram base;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    base = isa::generate_program(profile_for(family), template_rng);
    if (cfg::extract(isa::assemble(base)).node_count() >= kMinNodes) break;
  }

  Sample sample;
  sample.id = id;
  sample.family = family;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const auto mutated = isa::mutate_program(base, mutation, rng);
    sample.binary = isa::assemble(mutated);
    sample.cfg = cfg::extract(sample.binary);
    if (sample.cfg.node_count() >= kMinNodes) return sample;
  }
  return sample;
}

Dataset generate_dataset(const DatasetConfig& config, math::Rng& rng) {
  validate(config);
  const std::array<std::size_t, kFamilyCount> sizes = {
      scaled_count(config.benign, config.scale),
      scaled_count(config.gafgyt, config.scale),
      scaled_count(config.mirai, config.scale),
      scaled_count(config.tsunami, config.scale),
  };

  Dataset dataset;
  std::uint64_t next_id = 0;
  for (Family family : all_families()) {
    std::vector<Sample> members;
    const std::size_t count = sizes[family_index(family)];
    const std::size_t variants = variant_count(config, family, count);
    // Strain template seeds for this class.
    std::vector<std::uint64_t> variant_seeds(variants);
    for (auto& seed : variant_seeds) {
      seed = static_cast<std::uint64_t>(rng.uniform_int(
          0, std::numeric_limits<std::int64_t>::max()));
    }
    members.reserve(count);
    const auto& mutation = config.mutation[family_index(family)];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t seed = variant_seeds[i % variants];
      members.push_back(generate_variant_sample(family, next_id++, seed,
                                                mutation, rng));
    }
    rng.shuffle(members);
    // Stratified split: at least one sample on each side per class.
    auto train_count = static_cast<std::size_t>(std::llround(
        config.train_fraction * static_cast<double>(members.size())));
    train_count = std::clamp<std::size_t>(train_count, 1, members.size() - 1);
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto& bucket = i < train_count ? dataset.train : dataset.test;
      bucket.push_back(std::move(members[i]));
    }
  }
  rng.shuffle(dataset.train);
  rng.shuffle(dataset.test);
  return dataset;
}

}  // namespace soteria::dataset
