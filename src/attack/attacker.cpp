#include "attack/attacker.h"

#include "cfg/extractor.h"
#include "cfg/gea.h"
#include "isa/isa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "soteria/error.h"

namespace soteria::attack {

namespace {

/// The injected image of `payload`: the target's binary, or its first
/// `trim` instructions plus a halt.
std::vector<std::uint8_t> payload_image(const Payload& payload) {
  const auto& binary = payload.target->binary;
  if (payload.trim == 0) return binary;
  if (payload.trim * isa::kInstructionSize > binary.size()) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "realize_gea: trim " + std::to_string(payload.trim) +
                          " past a target of " +
                          std::to_string(binary.size() /
                                         isa::kInstructionSize) +
                          " instructions");
  }
  std::vector<std::uint8_t> image(
      binary.begin(),
      binary.begin() +
          static_cast<std::ptrdiff_t>(payload.trim * isa::kInstructionSize));
  isa::encode_to(isa::Instruction{isa::Opcode::kHalt, 0, 0}, image);
  return image;
}

}  // namespace

bool binary_level(const dataset::Sample& victim,
                  std::span<const Payload> payloads) {
  if (victim.binary.empty()) return false;
  for (const Payload& p : payloads) {
    if (p.target->binary.empty()) return false;
  }
  return true;
}

AttackResult realize_gea(const dataset::Sample& victim,
                         std::span<const Payload> payloads,
                         const Placement& placement,
                         dataset::Family target_family) {
  if (payloads.empty() || (placement.interior && payloads.size() != 1)) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "realize_gea: " + std::to_string(payloads.size()) +
                          " payloads for " +
                          (placement.interior ? "an interior" : "an entry") +
                          " placement");
  }
  AttackResult result;
  result.target_family = target_family;
  if (binary_level(victim, payloads)) {
    std::vector<std::vector<std::uint8_t>> images;
    images.reserve(payloads.size());
    for (const Payload& p : payloads) images.push_back(payload_image(p));
    result.binary =
        placement.interior
            ? binary_gea_at(victim.binary, images.front(),
                            placement.point.boundary,
                            placement.point.guard_register)
            : binary_gea_chain(victim.binary, images);
    result.cfg = cfg::extract(result.binary);
    return result;
  }
  std::vector<cfg::Cfg> cfgs;
  cfgs.reserve(payloads.size());
  for (const Payload& p : payloads) cfgs.push_back(p.target->cfg);
  result.cfg = placement.interior
                   ? cfg::gea_attach(victim.cfg, cfgs.front(),
                                     placement.anchor)
                         .combined
                   : cfg::gea_chain(victim.cfg, cfgs).combined;
  return result;
}

AttackResult Attacker::generate(const dataset::Sample& sample,
                                std::span<const dataset::Sample> corpus,
                                math::Rng& rng) const {
  const obs::Span span("attack.generate");
  AttackResult result = do_generate(sample, corpus, rng);
  result.original_family = sample.family;
  // attack.queries is counted at the query site, one tick per query.
  obs::registry().counter_add("attack.generated");
  return result;
}

}  // namespace soteria::attack
