// GEA adversarial-set construction (paper Section IV-A, Table III).
//
// For every class, three target samples are picked from the corpus by
// node count — the minimum ("Small"), median ("Medium"), and maximum
// ("Large") — and each target is GEA-embedded into every *test* sample
// of every other class. One AE set therefore exists per (class, size)
// pair: 12 sets, each with (test size - targeted class test count) AEs.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "cfg/gea.h"
#include "dataset/generator.h"
#include "dataset/sample.h"

namespace soteria::dataset {

/// GEA target size bucket.
enum class TargetSize : std::uint8_t { kSmall = 0, kMedium = 1, kLarge = 2 };

inline constexpr std::size_t kTargetSizeCount = 3;

/// Display name ("Small" / "Medium" / "Large").
[[nodiscard]] const char* target_size_name(TargetSize size) noexcept;

/// A selected GEA target sample.
struct GeaTarget {
  Family family = Family::kBenign;
  TargetSize size = TargetSize::kSmall;
  std::size_t node_count = 0;
  cfg::Cfg cfg;
};

/// One generated adversarial example.
struct AdversarialExample {
  cfg::Cfg cfg;                    ///< GEA-combined graph
  Family original_family = Family::kBenign;  ///< base sample's class
  Family target_family = Family::kBenign;    ///< injected target's class
  TargetSize target_size = TargetSize::kSmall;
};

/// The members of `family` in `samples` by ascending CFG node count
/// (ties by sample id): the one ordering every size-bucket pick and the
/// guided attackers' spread pool read. Pointers into `samples`. Throws
/// core::Error{kInvalidArgument} if the class has no samples.
[[nodiscard]] std::vector<const Sample*> family_by_size(
    std::span<const Sample> samples, Family family);

/// The `size` bucket of a non-empty family_by_size() ordering: its
/// first, median (index n/2) or last member.
[[nodiscard]] const Sample& size_bucket(
    std::span<const Sample* const> by_size, TargetSize size);

/// Picks the small/median/large targets of `family` from `samples`
/// (paper: selected from the whole dataset). Throws
/// core::Error{kInvalidArgument} if the class has no samples.
[[nodiscard]] std::vector<GeaTarget> select_targets(
    std::span<const Sample> samples, Family family);

/// All 12 targets (4 classes x 3 sizes) in class-major order.
[[nodiscard]] std::vector<GeaTarget> select_all_targets(
    std::span<const Sample> samples);

/// Applies GEA with `target` over every sample in `test` whose class
/// differs from the target's class.
[[nodiscard]] std::vector<AdversarialExample> generate_adversarial_set(
    std::span<const Sample> test, const GeaTarget& target);

}  // namespace soteria::dataset
