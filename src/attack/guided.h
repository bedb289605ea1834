// Oracle-guided attackers (gray-box threat model).
//
// Both strategies build a pool of candidate GEA injections for the
// victim — different target samples of the one target family,
// insertion points, trimmed lobes, and (adaptive) a multi-injection
// chain — realize each through realize_gea, score it with one counted
// query against the *fitted* defense, and keep the best one:
//
// * ScoreGuidedAttacker ("score") optimizes the classifier objective:
//   among candidates the classifier assigns to the target family, it
//   picks the one with the lowest detector score (falling back to the
//   largest vote margin toward the target when none classify as it).
//
// * AdaptiveAttacker ("adaptive") is detector-aware: it knows the AE
//   detector exists and optimizes *past its threshold* — candidates
//   scoring under Th are preferred unconditionally (that is the
//   survival condition), then target classification, then margin. Its
//   candidate pool additionally includes guard-chain multi-injections.
//
// Determinism: every candidate is scored with a per-index child of the
// caller's generator, so a fixed (victim, corpus, rng seed) triple
// yields a bit-identical AE and query count at any thread count.
#pragma once

#include <string>
#include <string_view>

#include "attack/attacker.h"
#include "dataset/adversarial.h"
#include "soteria/system.h"

namespace soteria::attack {

/// Parameters shared by the guided attackers.
struct GuidedOptions {
  dataset::Family target_family = dataset::Family::kBenign;
  /// Size of the injection-target candidate pool (evenly spread over
  /// the family's dataset::family_by_size() ordering).
  std::size_t candidates = 6;
  /// Interior insertion boundaries tried per victim (binary-level
  /// victims only; 0 disables mid-block candidates).
  std::size_t mid_points = 2;
};

class ScoreGuidedAttacker final : public Attacker {
 public:
  /// `system` is the attacked defense; it must outlive the attacker.
  ScoreGuidedAttacker(const core::SoteriaSystem& system,
                      const GuidedOptions& options)
      : system_(&system), options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "score";
  }
  [[nodiscard]] std::string params() const override;

 protected:
  [[nodiscard]] AttackResult do_generate(
      const dataset::Sample& sample,
      std::span<const dataset::Sample> corpus,
      math::Rng& rng) const override;

 private:
  const core::SoteriaSystem* system_;
  GuidedOptions options_;
};

class AdaptiveAttacker final : public Attacker {
 public:
  /// `system` is the attacked defense (threshold included); it must
  /// outlive the attacker.
  AdaptiveAttacker(const core::SoteriaSystem& system,
                   const GuidedOptions& options)
      : system_(&system), options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adaptive";
  }
  [[nodiscard]] std::string params() const override;

 protected:
  [[nodiscard]] AttackResult do_generate(
      const dataset::Sample& sample,
      std::span<const dataset::Sample> corpus,
      math::Rng& rng) const override;

 private:
  const core::SoteriaSystem* system_;
  GuidedOptions options_;
};

}  // namespace soteria::attack
