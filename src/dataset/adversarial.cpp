#include "dataset/adversarial.h"

#include <algorithm>

#include "soteria/error.h"

namespace soteria::dataset {

const char* target_size_name(TargetSize size) noexcept {
  switch (size) {
    case TargetSize::kSmall: return "Small";
    case TargetSize::kMedium: return "Medium";
    case TargetSize::kLarge: return "Large";
  }
  return "Unknown";
}

std::vector<const Sample*> family_by_size(std::span<const Sample> samples,
                                          Family family) {
  std::vector<const Sample*> members;
  for (const auto& s : samples) {
    if (s.family == family) members.push_back(&s);
  }
  if (members.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string("no samples of class ") +
                          family_name(family));
  }
  std::sort(members.begin(), members.end(),
            [](const Sample* a, const Sample* b) {
              if (a->cfg.node_count() != b->cfg.node_count()) {
                return a->cfg.node_count() < b->cfg.node_count();
              }
              return a->id < b->id;
            });
  return members;
}

const Sample& size_bucket(std::span<const Sample* const> by_size,
                          TargetSize size) {
  switch (size) {
    case TargetSize::kSmall: return *by_size.front();
    case TargetSize::kMedium: return *by_size[by_size.size() / 2];
    case TargetSize::kLarge: return *by_size.back();
  }
  return *by_size.front();
}

std::vector<GeaTarget> select_targets(std::span<const Sample> samples,
                                      Family family) {
  const auto members = family_by_size(samples, family);
  std::vector<GeaTarget> targets;
  for (const TargetSize size :
       {TargetSize::kSmall, TargetSize::kMedium, TargetSize::kLarge}) {
    const Sample& s = size_bucket(members, size);
    targets.push_back({family, size, s.cfg.node_count(), s.cfg});
  }
  return targets;
}

std::vector<GeaTarget> select_all_targets(std::span<const Sample> samples) {
  std::vector<GeaTarget> targets;
  targets.reserve(kFamilyCount * kTargetSizeCount);
  for (Family family : all_families()) {
    auto per_class = select_targets(samples, family);
    for (auto& t : per_class) targets.push_back(std::move(t));
  }
  return targets;
}

std::vector<AdversarialExample> generate_adversarial_set(
    std::span<const Sample> test, const GeaTarget& target) {
  std::vector<AdversarialExample> aes;
  for (const auto& s : test) {
    if (s.family == target.family) continue;
    AdversarialExample ae;
    ae.cfg = cfg::gea_combine(s.cfg, target.cfg).combined;
    ae.original_family = s.family;
    ae.target_family = target.family;
    ae.target_size = target.size;
    aes.push_back(std::move(ae));
  }
  return aes;
}

}  // namespace soteria::dataset
