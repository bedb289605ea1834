#include "attack/guided.h"

#include <algorithm>
#include <string>
#include <vector>

#include "isa/isa.h"
#include "obs/metrics.h"

namespace soteria::attack {

namespace {

/// One scored candidate injection.
struct Candidate {
  AttackResult result;
  core::FeatureScores scores;
};

/// How many detector-surviving candidates the adaptive attacker
/// re-scores under a second walk seed.
constexpr std::size_t kRescoreLimit = 4;

/// Vote margin of `target` over the strongest other class (negative
/// when the classifier prefers another family).
long long target_margin(const core::FeatureScores& scores,
                        dataset::Family target) {
  const std::size_t target_index = dataset::family_index(target);
  if (target_index >= scores.votes.size()) return 0;
  long long best_other = 0;
  for (std::size_t f = 0; f < scores.votes.size(); ++f) {
    if (f == target_index) continue;
    best_other = std::max(best_other,
                          static_cast<long long>(scores.votes[f]));
  }
  return static_cast<long long>(scores.votes[target_index]) - best_other;
}

/// Scores `cfg` through the fitted system with a copy of `fresh_rng`
/// and counts the query: the attacker's gray-box window into the
/// defense, whose cost the robustness matrix reports.
core::FeatureScores query(const core::SoteriaSystem& system,
                          const cfg::Cfg& cfg, math::Rng fresh_rng,
                          std::size_t& queries) {
  ++queries;
  obs::registry().counter_add("attack.queries");
  return system.score_features(system.extract(cfg, fresh_rng));
}

/// Up to `count` members of a family_by_size() ordering spread evenly
/// across it, both extremes included when count >= 2.
std::vector<const dataset::Sample*> spread(
    const std::vector<const dataset::Sample*>& by_size, std::size_t count) {
  if (by_size.size() <= count) return by_size;
  std::vector<const dataset::Sample*> picked;
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index =
        count == 1 ? 0 : i * (by_size.size() - 1) / (count - 1);
    picked.push_back(by_size[index]);
  }
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

/// One candidate injection before it is realized.
struct Spec {
  std::vector<Payload> payloads;
  Placement placement;
};

Placement at_point(const GuardPoint& point) {
  Placement placement;
  placement.interior = true;
  placement.point = point;
  return placement;
}

/// The candidate pool shared by both guided strategies, in the order
/// that keys each candidate's scoring generator. `include_chains` adds
/// the adaptive attacker's multi-injection candidate.
std::vector<Spec> candidate_specs(
    const dataset::Sample& sample,
    const std::vector<const dataset::Sample*>& pool,
    const GuidedOptions& options, bool include_chains) {
  std::vector<Spec> specs;
  // One entry injection per pool target, at whichever level it carries.
  for (const dataset::Sample* target : pool) specs.push_back({{{target}}, {}});

  const dataset::Sample* smallest = pool.front();
  const Payload whole{smallest};
  if (!binary_level(sample, std::span(&whole, 1))) return specs;

  const std::vector<GuardPoint> points = safe_guard_points(sample.binary);
  if (options.mid_points > 0 && !points.empty()) {
    // Interior boundaries, evenly spread, paired with the smallest
    // target (the least feature distortion per injected lobe).
    const std::size_t take = std::min(options.mid_points, points.size());
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t index =
          take == 1 ? 0 : i * (points.size() - 1) / (take - 1);
      specs.push_back({{whole}, at_point(points[index])});
    }
  }
  // Trimmed payloads of the smallest target: progressively less
  // injected material, progressively less feature distortion. A tiny
  // lobe hung off a deep boundary adds nodes that rank *last* under
  // both labelings (lowest density, deepest level), so almost every
  // existing label — and with it almost every walk n-gram — survives;
  // these deep interior placements are the detector-evading
  // candidates, while the entry placements keep a foot in
  // classifier-flipping space.
  const std::size_t target_instructions =
      smallest->binary.size() / isa::kInstructionSize;
  for (const std::size_t trim : {1ULL, 2ULL, 4ULL, 8ULL}) {
    if (trim >= target_instructions) break;
    if (points.empty()) continue;
    specs.push_back({{{smallest, trim}}, at_point(points.back())});
    if (points.size() >= 2) {
      specs.push_back(
          {{{smallest, trim}}, at_point(points[points.size() / 2])});
    }
  }
  for (const std::size_t trim : {4ULL, 16ULL}) {
    if (trim >= target_instructions) break;
    specs.push_back({{{smallest, trim}}, {}});
  }
  // The two smallest targets behind one guard chain.
  if (include_chains && pool.size() >= 2 && !pool[1]->binary.empty()) {
    specs.push_back({{{pool[0]}, {pool[1]}}, {}});
  }
  return specs;
}

/// Builds, realizes and scores the candidate pool shared by both
/// guided strategies. Candidate i is scored with `rng.child(i)`, so the
/// pool is deterministic for a fixed seed.
std::vector<Candidate> score_candidates(
    const dataset::Sample& sample, std::span<const dataset::Sample> corpus,
    const GuidedOptions& options, const core::SoteriaSystem& system,
    bool include_chains, std::size_t& queries, math::Rng& rng) {
  const auto pool =
      spread(dataset::family_by_size(corpus, options.target_family),
             options.candidates == 0 ? 1 : options.candidates);
  const auto specs = candidate_specs(sample, pool, options, include_chains);

  std::vector<Candidate> candidates;
  candidates.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Candidate c;
    c.result = realize_gea(sample, specs[i].payloads, specs[i].placement,
                           options.target_family);
    c.scores = query(system, c.result.cfg, rng.child(i), queries);
    candidates.push_back(std::move(c));
  }
  return candidates;
}

/// Finishes the winning candidate into an AttackResult.
AttackResult finish(Candidate&& best, std::size_t queries) {
  AttackResult result = std::move(best.result);
  result.queries = queries;
  return result;
}

std::string guided_params(const GuidedOptions& options) {
  return std::string("target=") +
         dataset::family_name(options.target_family) +
         ",candidates=" + std::to_string(options.candidates) +
         ",mid_points=" + std::to_string(options.mid_points);
}

}  // namespace

std::string ScoreGuidedAttacker::params() const {
  return guided_params(options_);
}

AttackResult ScoreGuidedAttacker::do_generate(
    const dataset::Sample& sample, std::span<const dataset::Sample> corpus,
    math::Rng& rng) const {
  std::size_t queries = 0;
  auto candidates =
      score_candidates(sample, corpus, options_, *system_,
                       /*include_chains=*/false, queries, rng);

  // Lexicographic: classified as the target family first, then lowest
  // detector score; among non-target candidates, the largest vote
  // margin toward the target breaks ties before the score does.
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const auto& a = candidates[i].scores;
    const auto& b = candidates[best].scores;
    const bool a_hit = a.predicted == options_.target_family;
    const bool b_hit = b.predicted == options_.target_family;
    bool better = false;
    if (a_hit != b_hit) {
      better = a_hit;
    } else if (a_hit) {
      better = a.detector_score < b.detector_score;
    } else {
      const auto margin_a = target_margin(a, options_.target_family);
      const auto margin_b = target_margin(b, options_.target_family);
      better = margin_a != margin_b
                   ? margin_a > margin_b
                   : a.detector_score < b.detector_score;
    }
    if (better) best = i;
  }
  return finish(std::move(candidates[best]), queries);
}

std::string AdaptiveAttacker::params() const {
  return guided_params(options_);
}

AttackResult AdaptiveAttacker::do_generate(
    const dataset::Sample& sample, std::span<const dataset::Sample> corpus,
    math::Rng& rng) const {
  std::size_t queries = 0;
  auto candidates =
      score_candidates(sample, corpus, options_, *system_,
                       /*include_chains=*/true, queries, rng);

  // The defense randomizes its walks, so one lucky score is not an
  // evasion. Re-score the surviving candidates under an independent
  // walk seed and keep the *worse* of the two scores — a candidate must
  // clear the threshold twice to count as alive, which is what makes
  // the evasion hold up against the verdict's own fresh walks.
  std::size_t rescored = 0;
  for (std::size_t i = 0;
       i < candidates.size() && rescored < kRescoreLimit; ++i) {
    if (candidates[i].scores.adversarial) continue;
    ++rescored;
    const core::FeatureScores again =
        query(*system_, candidates[i].result.cfg,
              rng.child(candidates.size() + i), queries);
    if (again.detector_score > candidates[i].scores.detector_score) {
      candidates[i].scores.detector_score = again.detector_score;
      candidates[i].scores.adversarial = again.adversarial;
    }
  }

  // Detector-aware: surviving the AE detector (score <= Th) dominates
  // everything else; then target classification, margin, and finally
  // raw score.
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const auto& a = candidates[i].scores;
    const auto& b = candidates[best].scores;
    const bool a_alive = !a.adversarial;
    const bool b_alive = !b.adversarial;
    bool better = false;
    if (a_alive != b_alive) {
      better = a_alive;
    } else {
      const bool a_hit = a.predicted == options_.target_family;
      const bool b_hit = b.predicted == options_.target_family;
      if (a_hit != b_hit) {
        better = a_hit;
      } else if (a_alive) {
        // Both survive: maximize the margin below the threshold — the
        // verdict re-extracts with fresh walks, so headroom is what
        // keeps the evasion from flickering back over it.
        better = a.detector_score < b.detector_score;
      } else {
        const auto margin_a = target_margin(a, options_.target_family);
        const auto margin_b = target_margin(b, options_.target_family);
        better = margin_a != margin_b
                     ? margin_a > margin_b
                     : a.detector_score < b.detector_score;
      }
    }
    if (better) best = i;
  }
  return finish(std::move(candidates[best]), queries);
}

}  // namespace soteria::attack
