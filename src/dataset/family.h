// Sample taxonomy: the paper's four classes.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace soteria::dataset {

/// IoT sample class: benign or one of the three malware families the
/// paper classifies (Table II).
enum class Family : std::uint8_t {
  kBenign = 0,
  kGafgyt = 1,
  kMirai = 2,
  kTsunami = 3,
};

/// Number of classes.
inline constexpr std::size_t kFamilyCount = 4;

/// All classes in label order.
[[nodiscard]] constexpr std::array<Family, kFamilyCount> all_families() {
  return {Family::kBenign, Family::kGafgyt, Family::kMirai,
          Family::kTsunami};
}

/// Class label index (0..3) used by the classifier.
[[nodiscard]] constexpr std::size_t family_index(Family f) noexcept {
  return static_cast<std::size_t>(f);
}

/// Family from a label index. Throws core::Error{kInvalidArgument} if out of
/// range.
[[nodiscard]] Family family_from_index(std::size_t index);

/// Display name ("Benign", "Gafgyt", ...).
[[nodiscard]] const char* family_name(Family f) noexcept;

}  // namespace soteria::dataset
