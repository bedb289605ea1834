#include "dataset/family.h"

#include "soteria/error.h"

namespace soteria::dataset {

Family family_from_index(std::size_t index) {
  if (index >= kFamilyCount) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "family_from_index: index " +
                      std::to_string(index) + " >= " +
                      std::to_string(kFamilyCount));
  }
  return static_cast<Family>(index);
}

const char* family_name(Family f) noexcept {
  switch (f) {
    case Family::kBenign: return "Benign";
    case Family::kGafgyt: return "Gafgyt";
    case Family::kMirai: return "Mirai";
    case Family::kTsunami: return "Tsunami";
  }
  return "Unknown";
}

}  // namespace soteria::dataset
