#include "attack/gea_attacker.h"

#include <string>

#include "soteria/error.h"

namespace soteria::attack {

namespace {

/// A random interior placement at the level the GEA will be realized:
/// a safe guard point of the victim's binary (the entry chain when there
/// is none), or any node of its CFG.
Placement random_interior(const dataset::Sample& victim,
                          std::span<const Payload> payloads,
                          math::Rng& rng) {
  Placement placement;
  if (binary_level(victim, payloads)) {
    const auto points = safe_guard_points(victim.binary);
    if (points.empty()) return placement;
    placement.point = points[rng.index(points.size())];
  } else {
    placement.anchor =
        static_cast<graph::NodeId>(rng.index(victim.cfg.node_count()));
  }
  placement.interior = true;
  return placement;
}

}  // namespace

std::string GeaAttacker::params() const {
  std::string params = std::string("target=") +
                       dataset::family_name(options_.target_family) +
                       ",size=" +
                       dataset::target_size_name(options_.target_size) +
                       ",insert=" +
                       cfg::insertion_point_name(options_.insertion);
  if (options_.injections != 1) {
    params += ",injections=" + std::to_string(options_.injections);
  }
  return params;
}

AttackResult GeaAttacker::do_generate(
    const dataset::Sample& sample, std::span<const dataset::Sample> corpus,
    math::Rng& rng) const {
  if (options_.injections == 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "GeaAttacker: injections must be >= 1");
  }

  // Draw the injected targets: bucket `target_size` first, additional
  // injections from the following buckets (wrapping), so a 3-injection
  // attack embeds one sample of every size.
  const auto by_size =
      dataset::family_by_size(corpus, options_.target_family);
  std::vector<Payload> payloads;
  payloads.reserve(options_.injections);
  for (std::size_t i = 0; i < options_.injections; ++i) {
    const auto size = static_cast<dataset::TargetSize>(
        (static_cast<std::size_t>(options_.target_size) + i) %
        dataset::kTargetSizeCount);
    payloads.push_back({&dataset::size_bucket(by_size, size)});
  }

  // kMidBlock applies to single injections only.
  const Placement placement =
      options_.insertion == cfg::InsertionPoint::kMidBlock &&
              payloads.size() == 1
          ? random_interior(sample, payloads, rng)
          : Placement{};
  return realize_gea(sample, payloads, placement, options_.target_family);
}

}  // namespace soteria::attack
