// Corpus generation and stratified train/test splitting.
//
// Default class sizes follow the paper's Table II ratios (Benign 3,016;
// Gafgyt 11,085; Mirai 2,365; Tsunami 260 — the totals implied by the
// 20% test counts 600/2,217/473/52), scaled by `scale` so single-core
// runs stay tractable. Splits are stratified per class at
// `train_fraction` (paper: 80/20).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/sample.h"
#include "isa/mutate.h"
#include "math/rng.h"

namespace soteria::dataset {

/// Corpus parameters.
///
/// The corpus models how IoT malware corpora are actually composed:
/// each malware family is a handful of *strains* (forks of one released
/// codebase — BASHLITE, Mirai, Kaiten), and individual samples are
/// small mutations of a strain (changed constants, an extra handler).
/// Benign samples are more diverse (independent projects) but still
/// cluster (multiple builds per project).
struct DatasetConfig {
  /// Per-class full-corpus sizes before scaling (paper ratios).
  std::size_t benign = 3016;
  std::size_t gafgyt = 11085;
  std::size_t mirai = 2365;
  std::size_t tsunami = 260;
  /// Multiplies every class size (floor, minimum 5 per class).
  double scale = 1.0;
  /// Fraction of each class assigned to training.
  double train_fraction = 0.8;

  /// Strains per class = clamp(round(count * ratio), min_variants,
  /// count), indexed by family. Gafgyt (BASHLITE) is the fork-heaviest
  /// family in the wild, so it gets the highest ratio; Mirai and
  /// Tsunami descend from a handful of codebases.
  std::array<double, kFamilyCount> variant_ratio = {0.04, 0.06, 0.025,
                                                    0.03};
  std::size_t min_variants = 3;
  /// Per-sample mutation intensity on top of the strain template,
  /// per family. Defaults model the observed fork behaviour: structural
  /// diversity lives in the strain count (each fork is a strain), while
  /// per-sample mutations are configuration constants and padding;
  /// benign builds additionally shuffle a little straight-line code.
  std::array<isa::MutationConfig, kFamilyCount> mutation =
      default_mutations();

  /// The per-family defaults described above.
  [[nodiscard]] static std::array<isa::MutationConfig, kFamilyCount>
  default_mutations();
};

/// Throws core::Error{kInvalidArgument} for non-positive scale or a train
/// fraction outside (0, 1).
void validate(const DatasetConfig& config);

/// Scaled per-class size (floor(scale * count), at least 5).
[[nodiscard]] std::size_t scaled_count(std::size_t count, double scale);

/// Generated corpus with a stratified split.
struct Dataset {
  std::vector<Sample> train;
  std::vector<Sample> test;

  /// Per-class counts over a sample list.
  [[nodiscard]] static std::array<std::size_t, kFamilyCount> class_counts(
      const std::vector<Sample>& samples);
};

/// Generates one fully independent sample of `family` (binary +
/// extracted CFG) — no strain structure. Used for tests and targets.
[[nodiscard]] Sample generate_sample(Family family, std::uint64_t id,
                                     math::Rng& rng);

/// Number of strains a class of `count` samples gets under `config`.
[[nodiscard]] std::size_t variant_count(const DatasetConfig& config,
                                        Family family, std::size_t count);

/// Generates one sample as a mutation of the strain template defined by
/// `variant_seed` (same seed -> same template, so samples sharing a
/// seed form a cluster).
[[nodiscard]] Sample generate_variant_sample(Family family,
                                             std::uint64_t id,
                                             std::uint64_t variant_seed,
                                             const isa::MutationConfig&
                                                 mutation,
                                             math::Rng& rng);

/// Generates the full corpus (strain-structured) and splits it.
/// Deterministic given `rng`.
[[nodiscard]] Dataset generate_dataset(const DatasetConfig& config,
                                       math::Rng& rng);

}  // namespace soteria::dataset
