// Common interface of the attack framework.
//
// Every attack strategy — the parameterized GEA of the source paper,
// the score-guided gray-box variant, the detector-aware adaptive
// variant — is an `Attacker`: given a victim sample and a corpus to
// draw injection targets from, it produces one adversarial example.
// The base class owns the cross-cutting concerns (observability spans
// and counters, result bookkeeping) so strategies only implement
// do_generate(), and every strategy builds its AEs through one GEA
// realization (realize_gea). Attackers are stateless between calls and
// safe to share across threads as long as each call gets its own Rng —
// the property the eval matrix relies on to parallelize over cells.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "attack/binary_gea.h"
#include "cfg/cfg.h"
#include "dataset/sample.h"
#include "math/rng.h"

namespace soteria::attack {

/// One generated adversarial example.
struct AttackResult {
  /// The AE's CFG — always populated; what the defense analyzes.
  cfg::Cfg cfg;
  /// The AE's runnable image. Populated whenever the victim (and the
  /// chosen injection targets) carry binaries, in which case `cfg` is
  /// re-extracted from these bytes so graph and code never diverge.
  /// Empty for graph-level-only attacks.
  std::vector<std::uint8_t> binary;
  dataset::Family original_family = dataset::Family::kBenign;
  dataset::Family target_family = dataset::Family::kBenign;
  /// Oracle queries this AE cost (0 for query-free attacks).
  std::size_t queries = 0;
};

/// One injected lobe: a target sample, cut to its first `trim`
/// instructions plus a halt when `trim` is non-zero. The lobe never
/// executes, so a cut cannot damage the victim; it bounds how far the
/// features move. Honoured at the binary level only.
struct Payload {
  const dataset::Sample* target = nullptr;
  std::size_t trim = 0;
};

/// Where the injected lobe attaches. By default a guard chain ahead of
/// the victim's entry carries every payload; an interior placement
/// hangs a single payload off `point` (binary level) or `anchor`
/// (graph level).
struct Placement {
  bool interior = false;
  GuardPoint point;
  graph::NodeId anchor = 0;
};

/// True when the victim and every payload carry a binary, i.e. the GEA
/// can be realized at the code level.
[[nodiscard]] bool binary_level(const dataset::Sample& victim,
                                std::span<const Payload> payloads);

/// Realizes one GEA of `victim` with `payloads` at `placement`, at the
/// binary level when binary_level() holds (the AE's CFG is re-extracted
/// from the combined image, exactly like a defender would) and at the
/// graph level otherwise. Throws core::Error{kInvalidArgument} for no
/// payloads or an interior placement of more than one, plus whatever
/// the combine itself throws.
[[nodiscard]] AttackResult realize_gea(const dataset::Sample& victim,
                                       std::span<const Payload> payloads,
                                       const Placement& placement,
                                       dataset::Family target_family);

/// Abstract attack strategy. Implementations must be const-callable
/// and thread-compatible: generate() may run concurrently from many
/// threads provided each call owns its Rng.
class Attacker {
 public:
  virtual ~Attacker() = default;

  /// Registry name ("gea", "score", "adaptive").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The configured parameters, rendered "key=value,key=value" — the
  /// same syntax make_attacker parses.
  [[nodiscard]] virtual std::string params() const = 0;

  /// Generates one AE for `sample`, drawing injection material from
  /// `corpus` and all randomness from `rng`. Instruments the call
  /// (t/attack.generate span, attack.generated counter) around the
  /// strategy's do_generate. Throws core::Error{kInvalidArgument} when
  /// the corpus cannot supply the configured target family.
  [[nodiscard]] AttackResult generate(
      const dataset::Sample& sample,
      std::span<const dataset::Sample> corpus, math::Rng& rng) const;

 protected:
  [[nodiscard]] virtual AttackResult do_generate(
      const dataset::Sample& sample,
      std::span<const dataset::Sample> corpus, math::Rng& rng) const = 0;
};

}  // namespace soteria::attack
