#include "corpus.h"

#include <cmath>
#include <limits>
#include <span>

#include "dataset/generator.h"
#include "graph/generators.h"
#include "loader/elf_writer.h"

namespace perfbench {

namespace ds = soteria::dataset;
using soteria::math::Rng;

ModelCorpus make_model_corpus() {
  ds::DatasetConfig config;
  config.scale = kModelScale;
  const std::array<std::size_t, ds::kFamilyCount> full_sizes = {
      config.benign, config.gafgyt, config.mirai, config.tsunami};

  ModelCorpus corpus;
  const Rng root(kModelSeed);
  std::uint64_t next_id = 0;
  for (const ds::Family family : ds::all_families()) {
    const std::size_t f = ds::family_index(family);
    const std::size_t count = ds::scaled_count(full_sizes[f], config.scale);
    const std::size_t strains = ds::variant_count(config, family, count);
    Rng strain_rng = root.child(f);
    for (std::size_t k = 0; k < strains; ++k) {
      corpus.strains[f].push_back(static_cast<std::uint64_t>(
          strain_rng.uniform_int(0, std::numeric_limits<std::int64_t>::max())));
    }
    const auto train_count = static_cast<std::size_t>(
        std::llround(config.train_fraction * static_cast<double>(count)));
    Rng sample_rng = root.child(ds::kFamilyCount + f);
    for (std::size_t i = 0; i < train_count; ++i) {
      corpus.train.push_back(ds::generate_variant_sample(
          family, next_id++, corpus.strains[f][i % strains],
          config.mutation[f], sample_rng));
    }
  }
  // SoteriaSystem::train holds out the *last* samples for calibration,
  // so the families must be interleaved.
  Rng shuffle_rng = root.child(2 * ds::kFamilyCount);
  shuffle_rng.shuffle(corpus.train);
  corpus.targets = ds::select_all_targets(corpus.train);
  return corpus;
}

std::vector<Input> make_mixed_inputs(const ModelCorpus& corpus,
                                     const MixOptions& options, Rng& rng) {
  const auto mutations = ds::DatasetConfig::default_mutations();
  std::uint64_t next_id = 1'000'000;
  const auto fresh_sample = [&](std::size_t f) {
    const auto& strains = corpus.strains[f];
    return ds::generate_variant_sample(ds::all_families()[f], next_id++,
                                       strains[rng.index(strains.size())],
                                       mutations[f], rng);
  };
  std::vector<std::pair<std::size_t, std::uint64_t>> strains;
  for (std::size_t f = 0; f < ds::kFamilyCount; ++f) {
    for (const std::uint64_t strain : corpus.strains[f]) {
      strains.emplace_back(f, strain);
    }
  }

  std::vector<Input> inputs;
  std::size_t clean = 0;
  std::size_t adversarial = 0;
  for (std::size_t g = 0; g < options.groups; ++g) {
    const std::size_t begin = inputs.size();
    for (std::size_t i = 0; i < options.clean_per_group; ++i) {
      const auto [f, strain] = strains[clean++ % strains.size()];
      auto sample = ds::generate_variant_sample(
          ds::all_families()[f], next_id++, strain, mutations[f], rng);
      Input input;
      input.cfg = std::move(sample.cfg);
      input.family = sample.family;
      input.image = rng.uniform() < options.elf_share
                        ? soteria::loader::write_elf(sample.binary)
                        : std::move(sample.binary);
      inputs.push_back(std::move(input));
    }
    for (std::size_t i = 0; i < options.adversarial_per_group; ++i) {
      const auto& target =
          corpus.targets[adversarial++ % corpus.targets.size()];
      // A base of another family (GEA never merges a family into itself).
      std::size_t f = rng.index(ds::kFamilyCount - 1);
      if (f >= ds::family_index(target.family)) ++f;
      const auto base = fresh_sample(f);
      auto examples =
          ds::generate_adversarial_set(std::span(&base, 1), target);
      Input input;
      input.cfg = std::move(examples.front().cfg);
      input.family = base.family;
      input.adversarial = true;
      inputs.push_back(std::move(input));
    }
    for (std::size_t i = inputs.size() - 1; i > begin; --i) {
      std::swap(inputs[i], inputs[begin + rng.index(i - begin + 1)]);
    }
  }
  return inputs;
}

std::vector<soteria::cfg::Cfg> make_firmware_inputs(std::size_t count,
                                                    Rng& rng) {
  constexpr double kGoldenFraction = 0.6180339887498949;
  const double span =
      static_cast<double>(kFirmwareMaxBlocks - kFirmwareMinBlocks);
  std::vector<soteria::cfg::Cfg> cfgs;
  cfgs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double phase =
        std::fmod(0.5 + kGoldenFraction * static_cast<double>(i), 1.0);
    const auto blocks =
        kFirmwareMinBlocks + static_cast<std::size_t>(phase * span);
    cfgs.emplace_back(soteria::graph::firmware_like_cfg(blocks, rng), 0);
  }
  return cfgs;
}

}  // namespace perfbench
