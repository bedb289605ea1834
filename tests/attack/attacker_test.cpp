// Attack-framework tests (`attack` ctest label): executability
// invariants of the binary-level GEA realizations, guard-point
// soundness, family-targeting correctness, registry validation,
// degenerate corpora, and the guided-beats-plain-GEA contract against
// a fitted system.
#include "attack/attacker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attack/binary_gea.h"
#include "attack/gea_attacker.h"
#include "attack/guided.h"
#include "attack/registry.h"
#include "attack/attack_fixture.h"
#include "cfg/extractor.h"
#include "dataset/generator.h"
#include "expect_error.h"
#include "isa/vm.h"
#include "obs/metrics.h"
#include "soteria/error.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria::attack {
namespace {

const dataset::Sample& smallest_benign() {
  return *dataset::family_by_size(AttackFixture::data->train,
                                  dataset::Family::kBenign)
              .front();
}

/// Behavioural fingerprint of an execution that any transparent guard
/// insertion must preserve exactly.
struct Behaviour {
  isa::VmStatus status;
  std::uint64_t syscalls;
  std::uint64_t max_call_depth;
};

Behaviour run(std::span<const std::uint8_t> image) {
  const isa::VmResult r = isa::execute(image);
  return {r.status, r.syscalls, r.max_call_depth};
}

bool same_behaviour(const Behaviour& a, const Behaviour& b) {
  return a.status == b.status && a.syscalls == b.syscalls &&
         a.max_call_depth == b.max_call_depth;
}

TEST_F(AttackFixture, EntryGuardPreservesExecution) {
  const auto& victim = malware_victim();
  const auto& target = smallest_benign();
  const Behaviour before = run(victim.binary);
  ASSERT_EQ(before.status, isa::VmStatus::kHalted);
  const auto combined =
      binary_gea_chain(victim.binary, std::span(&target.binary, 1));
  EXPECT_TRUE(same_behaviour(before, run(combined)));
}

TEST_F(AttackFixture, EveryGuardPointPreservesExecution) {
  const auto& victim = malware_victim();
  const auto& target = smallest_benign();
  const Behaviour before = run(victim.binary);
  ASSERT_EQ(before.status, isa::VmStatus::kHalted);

  const auto points = safe_guard_points(victim.binary);
  ASSERT_FALSE(points.empty());
  for (const GuardPoint& point : points) {
    ASSERT_GT(point.boundary, 0U);
    ASSERT_LT(point.boundary, victim.binary.size() / 4);
    ASSERT_LT(point.guard_register, 16U);
    const auto combined = binary_gea_at(victim.binary, target.binary,
                                        point.boundary,
                                        point.guard_register);
    EXPECT_TRUE(same_behaviour(before, run(combined)))
        << "guard at boundary " << point.boundary << " (r"
        << static_cast<int>(point.guard_register)
        << ") changed the victim's behaviour";
  }
}

TEST_F(AttackFixture, MultiInjectionPreservesExecution) {
  const auto& victim = malware_victim();
  const auto by_size =
      dataset::family_by_size(data->train, dataset::Family::kBenign);
  const std::vector<std::vector<std::uint8_t>> targets = {
      dataset::size_bucket(by_size, dataset::TargetSize::kSmall).binary,
      dataset::size_bucket(by_size, dataset::TargetSize::kMedium).binary,
  };
  const Behaviour before = run(victim.binary);
  const auto combined = binary_gea_chain(victim.binary, targets);
  EXPECT_TRUE(same_behaviour(before, run(combined)));
  EXPECT_EQ(combined.size(), 2 * kGuardInstructions * isa::kInstructionSize +
                                 victim.binary.size() +
                                 targets[0].size() + targets[1].size());
}

// The deep-placement rule must survive a program that writes the
// conventional guard register (r15) early: the analysis has to fall
// back to a locally dead register instead of giving up.
TEST(SafeGuardPoints, FindsLocallyDeadRegisterWhenAllWrittenEarly) {
  std::vector<std::uint8_t> image;
  // Write every register up front so the never-written rule never fires.
  for (std::uint8_t r = 0; r < 16; ++r) {
    isa::encode_to(isa::Instruction{isa::Opcode::kMovImm, r, 1}, image);
  }
  // idx 16: r1 redefined before any read and before any branch — the
  // boundary right before it admits r1 as the guard register.
  isa::encode_to(isa::Instruction{isa::Opcode::kMovImm, 1, 9}, image);
  isa::encode_to(isa::Instruction{isa::Opcode::kCmpImm, 0, 9}, image);
  isa::encode_to(isa::Instruction{isa::Opcode::kJz, 0, 0}, image);
  isa::encode_to(isa::Instruction{isa::Opcode::kHalt, 0, 0}, image);

  const auto points = safe_guard_points(image);
  const auto at_16 = std::find_if(
      points.begin(), points.end(),
      [](const GuardPoint& p) { return p.boundary == 16; });
  ASSERT_NE(at_16, points.end());
  EXPECT_EQ(at_16->guard_register, 1);
  // Boundaries come out ascending (the spread/deepest selection in the
  // guided attackers depends on the order).
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].boundary, points[i].boundary);
  }
}

TEST(SafeGuardPoints, RefusesLiveFlagsAndLiveRegisters) {
  std::vector<std::uint8_t> image;
  for (std::uint8_t r = 0; r < 16; ++r) {
    isa::encode_to(isa::Instruction{isa::Opcode::kMovImm, r, 1}, image);
  }
  // idx 16: cmp; idx 17: jz — a guard between them would clobber the
  // flags the jz reads, and every register is read (kAdd) before being
  // written past the branch.
  isa::encode_to(isa::Instruction{isa::Opcode::kCmpImm, 0, 1}, image);
  isa::encode_to(isa::Instruction{isa::Opcode::kJz, 0, 1}, image);
  isa::encode_to(isa::Instruction{isa::Opcode::kAdd, 2, 3}, image);
  isa::encode_to(isa::Instruction{isa::Opcode::kHalt, 0, 0}, image);

  for (const GuardPoint& p : safe_guard_points(image)) {
    EXPECT_NE(p.boundary, 17U) << "flags are live across boundary 17";
  }
}

TEST_F(AttackFixture, BinaryAeReExtractsToGeaShape) {
  const auto& victim = malware_victim();
  const auto& target = smallest_benign();
  const cfg::Cfg merged = cfg::extract(
      binary_gea_chain(victim.binary, std::span(&target.binary, 1)));
  // The shared entry is the guard block: one edge into the original,
  // one into the injected lobe — both statically reachable.
  EXPECT_EQ(merged.graph().out_degree(merged.entry()), 2U);
  EXPECT_GT(merged.node_count(), victim.cfg.node_count());
  EXPECT_GE(merged.node_count(),
            victim.cfg.node_count() + target.cfg.node_count() - 2);
}

TEST_F(AttackFixture, GeaAttackerTargetsRequestedFamily) {
  GeaAttackerOptions options;
  options.target_family = dataset::Family::kBenign;
  const GeaAttacker attacker(options);
  math::Rng rng(5);
  const auto result =
      attacker.generate(malware_victim(), data->train, rng);
  EXPECT_EQ(result.target_family, dataset::Family::kBenign);
  EXPECT_EQ(result.original_family, malware_victim().family);
  EXPECT_FALSE(result.binary.empty());
  EXPECT_EQ(result.queries, 0U);
  // The embedded lobe is the requested family's smallest member.
  EXPECT_EQ(result.binary,
            binary_gea_chain(malware_victim().binary,
                             std::span(&smallest_benign().binary, 1)));
}

TEST_F(AttackFixture, FamilySelectionHonoursSizeBuckets) {
  const auto members =
      dataset::family_by_size(data->train, dataset::Family::kBenign);
  ASSERT_GE(members.size(), 2U);
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_LE(members[i - 1]->cfg.node_count(),
              members[i]->cfg.node_count());
  }
  const auto& small =
      dataset::size_bucket(members, dataset::TargetSize::kSmall);
  const auto& large =
      dataset::size_bucket(members, dataset::TargetSize::kLarge);
  EXPECT_LE(small.cfg.node_count(), large.cfg.node_count());
  EXPECT_EQ(small.family, dataset::Family::kBenign);
  EXPECT_EQ(large.family, dataset::Family::kBenign);
}

TEST_F(AttackFixture, EmptyAndSingleFamilyCorporaAreTypedErrors) {
  GeaAttackerOptions options;
  options.target_family = dataset::Family::kBenign;
  const GeaAttacker attacker(options);
  math::Rng rng(5);

  const std::vector<dataset::Sample> empty;
  try {
    (void)attacker.generate(malware_victim(), empty, rng);
    FAIL() << "empty corpus must throw";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }

  // A corpus with no member of the requested family is the same typed
  // error — the matrix runner counts it instead of aborting.
  std::vector<dataset::Sample> no_benign;
  for (const auto& s : data->train) {
    if (s.family != dataset::Family::kBenign) no_benign.push_back(s);
  }
  ASSERT_FALSE(no_benign.empty());
  try {
    (void)attacker.generate(malware_victim(), no_benign, rng);
    FAIL() << "missing target family must throw";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInvalidArgument);
  }
}

TEST_F(AttackFixture, RegistryBuildsEveryAttackerAndValidates) {
  for (const auto name : attacker_names()) {
    const auto attacker =
        make_attacker(name, "target=benign", system);
    EXPECT_EQ(attacker->name(), name);
    EXPECT_NE(attacker->params().find("target=Benign"),
              std::string::npos);
  }
  EXPECT_ERROR((void)make_attacker("nope", "", system),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)make_attacker("gea", "target=martian", system),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)make_attacker("gea", "bogus", system),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)make_attacker("adaptive", "", nullptr),
               core::ErrorCode::kInvalidArgument);
}

TEST_F(AttackFixture, GuidedAttackersSpendAndReportQueries) {
  GuidedOptions options;
  options.target_family = dataset::Family::kBenign;
  options.candidates = 3;
  const ScoreGuidedAttacker attacker(*system, options);
  math::Rng rng(11);
  const auto result =
      attacker.generate(malware_victim(), data->train, rng);
  // At least one query per pool target, plus the interior placements.
  EXPECT_GT(result.queries, options.candidates);
  EXPECT_FALSE(result.binary.empty());
}

TEST_F(AttackFixture, ObsCountersTickWhenEnabled) {
  obs::registry().reset();
  obs::set_enabled(true);
  GuidedOptions options;
  options.target_family = dataset::Family::kBenign;
  options.candidates = 2;
  const AdaptiveAttacker attacker(*system, options);
  math::Rng rng(13);
  const auto result =
      attacker.generate(malware_victim(), data->train, rng);
  const auto snap = obs::registry().snapshot();
  obs::set_enabled(false);
  obs::registry().reset();
  EXPECT_EQ(snap.counters.at("attack.generated"), 1U);
  EXPECT_EQ(snap.counters.at("attack.queries"), result.queries);
  EXPECT_EQ(snap.histograms.at("t/attack.generate").count, 1U);
}

// The PR's reason to exist: the detector-aware attacker must do no
// worse than the oblivious GEA baseline at its own game, and its chosen
// candidates must sit strictly closer to the reconstruction manifold.
TEST_F(AttackFixture, AdaptiveBeatsPlainGeaAgainstTheDetector) {
  GeaAttackerOptions gea_options;
  gea_options.target_family = dataset::Family::kBenign;
  gea_options.target_size = dataset::TargetSize::kLarge;
  const GeaAttacker gea(gea_options);

  GuidedOptions adaptive_options;
  adaptive_options.target_family = dataset::Family::kBenign;
  adaptive_options.candidates = 4;
  const AdaptiveAttacker adaptive(*system, adaptive_options);

  const math::Rng root(23);
  std::size_t gea_evaded = 0;
  std::size_t adaptive_evaded = 0;
  double gea_error = 0.0;
  double adaptive_error = 0.0;
  std::size_t victims = 0;
  for (std::size_t i = 0; i < data->test.size() && victims < 10; ++i) {
    const auto& victim = data->test[i];
    if (victim.family == dataset::Family::kBenign ||
        victim.binary.empty()) {
      continue;
    }
    ++victims;
    math::Rng g = root.child(4 * i);
    math::Rng a = root.child(4 * i + 1);
    const auto from_gea = gea.generate(victim, data->train, g);
    const auto from_adaptive = adaptive.generate(victim, data->train, a);
    math::Rng vg = root.child(4 * i + 2);
    math::Rng va = root.child(4 * i + 3);
    const auto verdict_gea = system->analyze(from_gea.cfg, vg);
    const auto verdict_adaptive =
        system->analyze(from_adaptive.cfg, va);
    gea_evaded += !verdict_gea.adversarial;
    adaptive_evaded += !verdict_adaptive.adversarial;
    gea_error += verdict_gea.reconstruction_error;
    adaptive_error += verdict_adaptive.reconstruction_error;
  }
  ASSERT_GT(victims, 0U);
  EXPECT_GE(adaptive_evaded, gea_evaded);
  // Strict improvement where it is deterministic for the fixed seeds:
  // the adaptive choices land strictly closer to the manifold.
  EXPECT_LT(adaptive_error, gea_error);
}

}  // namespace
}  // namespace soteria::attack
