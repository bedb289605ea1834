#include "eval/matrix.h"

#include <algorithm>
#include <sstream>

#include "attack/registry.h"
#include "eval/table.h"
#include "math/rng.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "soteria/error.h"

namespace soteria::eval {

namespace {

std::string format_rate(double value) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(6);
  out << value;
  return out.str();
}

/// Runs one (attack, defense) cell. Deterministic for a fixed
/// (specs, seed, cell rng): the attacker is constructed inside the cell
/// so guided strategies bind to this cell's defense variant.
MatrixCell run_cell(const AttackSpec& attack_spec,
                    const DefenseSpec& defense_spec,
                    const core::SoteriaSystem& defense,
                    std::span<const dataset::Sample> victims,
                    std::span<const dataset::Sample> corpus,
                    const math::Rng& cell_rng) {
  const obs::Span span("eval.cell");
  MatrixCell cell;
  cell.attack = attack_spec.label;
  cell.defense = defense_spec.label;

  const auto attacker = soteria::attack::make_attacker(
      attack_spec.name, attack_spec.params, &defense);

  for (std::size_t j = 0; j < victims.size(); ++j) {
    soteria::attack::AttackResult result;
    math::Rng generate_rng = cell_rng.child(2 * j);
    try {
      result = attacker->generate(victims[j], corpus, generate_rng);
    } catch (const core::Error&) {
      ++cell.failures;
      continue;
    }
    if (victims[j].family == result.target_family) {
      // Vacuous attack (the victim already is the target class); the
      // generation cost is real, the verdict would be meaningless.
      ++cell.skipped;
      cell.queries += result.queries;
      continue;
    }
    math::Rng analyze_rng = cell_rng.child(2 * j + 1);
    const core::Verdict verdict = defense.analyze(result.cfg, analyze_rng);

    ++cell.victims;
    cell.queries += result.queries;
    if (verdict.adversarial) {
      ++cell.detected;
    } else {
      ++cell.evaded;
      if (verdict.predicted == result.target_family) ++cell.target_hits;
    }
    if (verdict.predicted != victims[j].family) ++cell.family_flips;
  }
  obs::registry().counter_add("eval.matrix.cells");
  return cell;
}

}  // namespace

std::string MatrixReport::to_json() const {
  std::string out = "{\"version\":1,\"seed\":" + std::to_string(seed) +
                    ",\"victims_per_cell\":" +
                    std::to_string(victims_per_cell) + ",\"attacks\":[";
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    if (i > 0) out.push_back(',');
    obs::append_json_string(out, attacks[i]);
  }
  out += "],\"defenses\":[";
  for (std::size_t i = 0; i < defenses.size(); ++i) {
    if (i > 0) out.push_back(',');
    obs::append_json_string(out, defenses[i]);
  }
  out += "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& c = cells[i];
    if (i > 0) out.push_back(',');
    out += "{\"attack\":";
    obs::append_json_string(out, c.attack);
    out += ",\"defense\":";
    obs::append_json_string(out, c.defense);
    out += ",\"victims\":" + std::to_string(c.victims);
    out += ",\"skipped\":" + std::to_string(c.skipped);
    out += ",\"failures\":" + std::to_string(c.failures);
    out += ",\"detected\":" + std::to_string(c.detected);
    out += ",\"evaded\":" + std::to_string(c.evaded);
    out += ",\"family_flips\":" + std::to_string(c.family_flips);
    out += ",\"target_hits\":" + std::to_string(c.target_hits);
    out += ",\"queries\":" + std::to_string(c.queries);
    out += ",\"detection_rate\":" + format_rate(c.detection_rate());
    out += ",\"evasion_rate\":" + format_rate(c.evasion_rate());
    out += ",\"flip_rate\":" + format_rate(c.flip_rate());
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string MatrixReport::to_text() const {
  Table table({"attack", "defense", "victims", "det%", "evade%", "flip%",
               "queries"});
  for (const MatrixCell& c : cells) {
    table.add_row({c.attack, c.defense, std::to_string(c.victims),
                   format_percent(c.detection_rate()),
                   format_percent(c.evasion_rate()),
                   format_percent(c.flip_rate()),
                   std::to_string(c.queries)});
  }
  return table.render("Robustness matrix (seed " + std::to_string(seed) +
                      ", " + std::to_string(victims_per_cell) +
                      " victims/cell)");
}

MatrixReport run_matrix(const core::SoteriaSystem& base,
                        std::span<const dataset::Sample> victims,
                        std::span<const dataset::Sample> corpus,
                        std::span<const AttackSpec> attacks,
                        std::span<const DefenseSpec> defenses,
                        const MatrixOptions& options) {
  if (attacks.empty() || defenses.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "run_matrix: need at least one attack and one "
                      "defense spec");
  }
  if (victims.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "run_matrix: no victims");
  }

  const std::size_t victim_count =
      options.victims_per_cell == 0
          ? victims.size()
          : std::min(options.victims_per_cell, victims.size());
  const auto cell_victims = victims.first(victim_count);

  // One defense variant per spec, cloned through the system's own
  // (bit-exact) serialization so the caller's system is never mutated.
  std::vector<core::SoteriaSystem> variants;
  variants.reserve(defenses.size());
  for (const DefenseSpec& spec : defenses) {
    std::stringstream buffer;
    base.save(buffer);
    core::SoteriaSystem variant = core::SoteriaSystem::load(buffer);
    variant.detector().set_alpha(spec.alpha);
    variants.push_back(std::move(variant));
  }

  MatrixReport report;
  report.seed = options.seed;
  report.victims_per_cell = victim_count;
  for (const AttackSpec& a : attacks) report.attacks.push_back(a.label);
  for (const DefenseSpec& d : defenses) {
    report.defenses.push_back(d.label);
  }

  const math::Rng root(options.seed);
  const std::size_t total = attacks.size() * defenses.size();
  report.cells.resize(total);
  runtime::parallel_for(options.num_threads, total, [&](std::size_t i) {
    const std::size_t a = i / defenses.size();
    const std::size_t d = i % defenses.size();
    report.cells[i] = run_cell(attacks[a], defenses[d], variants[d],
                               cell_victims, corpus, root.child(i));
  });
  return report;
}

}  // namespace soteria::eval
