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

std::vector<GeaTarget> select_targets(std::span<const Sample> samples,
                                      Family family) {
  std::vector<const Sample*> members;
  for (const auto& s : samples) {
    if (s.family == family) members.push_back(&s);
  }
  if (members.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string("select_targets: no samples of "
                                  "class ") +
                      family_name(family));
  }
  std::sort(members.begin(), members.end(),
            [](const Sample* a, const Sample* b) {
              if (a->cfg.node_count() != b->cfg.node_count()) {
                return a->cfg.node_count() < b->cfg.node_count();
              }
              return a->id < b->id;
            });

  const auto make_target = [family](const Sample& s, TargetSize size) {
    GeaTarget t;
    t.family = family;
    t.size = size;
    t.node_count = s.cfg.node_count();
    t.cfg = s.cfg;
    return t;
  };
  return {
      make_target(*members.front(), TargetSize::kSmall),
      make_target(*members[members.size() / 2], TargetSize::kMedium),
      make_target(*members.back(), TargetSize::kLarge),
  };
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
