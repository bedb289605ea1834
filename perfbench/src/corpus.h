// Benchmark inputs.
//
// The product model is trained on one fixed strain-structured corpus
// (fixed seed and scale, so `train_s` and `setup_s` measure the same
// work in every run). Workload inputs are drawn from the run's
// `--seed`: fresh mutations of the model corpus's strains (the
// distribution the detector was calibrated on), GEA adversarial
// examples built from the corpus's targets, and firmware-shaped CFGs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cfg/cfg.h"
#include "dataset/adversarial.h"
#include "dataset/sample.h"
#include "math/rng.h"

namespace perfbench {

/// The training corpus plus what workloads need to draw more samples
/// from the same distribution.
struct ModelCorpus {
  std::vector<soteria::dataset::Sample> train;
  /// Strain template seeds per family (dataset::family_index order).
  std::array<std::vector<std::uint64_t>, soteria::dataset::kFamilyCount>
      strains;
  /// The 12 GEA targets (4 families x small/medium/large) of `train`.
  std::vector<soteria::dataset::GeaTarget> targets;
};

/// Generates the fixed model corpus: the dataset generator's per-family
/// sizes at kModelScale, 80% of each family kept for training.
[[nodiscard]] ModelCorpus make_model_corpus();

/// One scan / serve input.
struct Input {
  soteria::cfg::Cfg cfg;
  /// The binary as it arrives: raw toy code or an ELF64 wrapping of it;
  /// empty for GEA adversarial examples (graph-level attack).
  std::vector<std::uint8_t> image;
  soteria::dataset::Family family = soteria::dataset::Family::kBenign;
  bool adversarial = false;
};

struct MixOptions {
  /// Consecutive groups of clean_per_group + adversarial_per_group
  /// inputs; every group has the same composition, so equal-sized
  /// slices of the mix cost about the same.
  std::size_t groups = 12;
  std::size_t clean_per_group = 26;
  std::size_t adversarial_per_group = 6;
  double elf_share = 0.33;  ///< of the clean binaries
};

/// Fresh clean samples (strains in turn, so every strain is equally
/// frequent) and GEA adversarial examples (the 12 targets in turn, each
/// merged into a fresh sample of another family), shuffled within each
/// group.
[[nodiscard]] std::vector<Input> make_mixed_inputs(const ModelCorpus& corpus,
                                                   const MixOptions& options,
                                                   soteria::math::Rng& rng);

/// `count` distinct firmware-shaped CFGs (graph::firmware_like_cfg).
/// Block counts follow a golden-ratio sequence over
/// [kFirmwareMinBlocks, kFirmwareMaxBlocks], so every prefix of the
/// list has close to the same size mix.
[[nodiscard]] std::vector<soteria::cfg::Cfg> make_firmware_inputs(
    std::size_t count, soteria::math::Rng& rng);

inline constexpr std::uint64_t kModelSeed = 7;
inline constexpr double kModelScale = 0.005;
inline constexpr std::size_t kFirmwareMinBlocks = 1500;
inline constexpr std::size_t kFirmwareMaxBlocks = 2500;

}  // namespace perfbench
