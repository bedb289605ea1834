// Graph Embedding and Augmentation (GEA) — the attack Soteria defends
// against (Abusnaina et al. [9], paper Section II-C).
//
// GEA merges the CFG of an original sample with the CFG of a target
// sample drawn from the class the adversary wants to be classified as:
// a new shared entry block branches to both sub-CFGs and a new shared
// exit block joins their exits, so only one branch (the original code)
// ever executes while the *structure* — and therefore every CFG-derived
// feature — changes.
//
// Two placements span the attack spectrum of the GEA source paper and
// the explainability-guided follow-up:
//
// * gea_chain — the paper's shape (Fig. 1c), generalized to several
//   targets: a chain of guards ahead of the original's entry, each
//   branching to one target's lobe (attack::binary_gea_chain's guard
//   prologue as a graph). One target is the classic GEA.
// * gea_attach — the injected lobe hangs off an interior node of the
//   original (the shape produced when the guard is planted mid-stream
//   at the binary level, as attribution-guided attacks do); the
//   original's entry stays the combined entry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cfg/cfg.h"

namespace soteria::cfg {

/// Where the injected lobe attaches to the original CFG.
enum class InsertionPoint : std::uint8_t {
  kEntryGuard = 0,  ///< guard chain ahead of the original's entry
  kMidBlock = 1,    ///< lobe hangs off an interior node of the original
};

/// Display name ("entry" / "mid").
[[nodiscard]] const char* insertion_point_name(InsertionPoint p) noexcept;

/// Result of a GEA combination, with the node ranges of each component
/// exposed for tests and diagnostics.
struct GeaResult {
  Cfg combined;
  graph::NodeId shared_exit = 0;
  graph::NodeId original_offset = 0;  ///< original's node k -> offset + k
  /// Guard-chain nodes, one per target; guards[0] is the combined
  /// entry. Empty for gea_attach.
  std::vector<graph::NodeId> guards;
  /// Target i's node k -> target_offsets[i] + k.
  std::vector<graph::NodeId> target_offsets;
};

/// Injects every CFG of `targets` behind a guard chain at the entry:
/// guard i falls through to guard i+1 (the last guard to the original's
/// entry) and branches to target i; every lobe's exits join one shared
/// exit. Sub-CFGs with no natural exit (e.g. ending in an infinite loop)
/// are joined from their deepest node, so the combined graph always has
/// the shared-entry/shared-exit shape of Fig. 1(c). Throws
/// core::Error{kInvalidArgument} for an empty original, an empty target
/// list, or any empty target.
[[nodiscard]] GeaResult gea_chain(const Cfg& original,
                                  std::span<const Cfg> targets);

/// The classic single-target GEA: gea_chain over `target` alone.
[[nodiscard]] GeaResult gea_combine(const Cfg& original, const Cfg& target);

/// Keeps the original's entry and adds an `anchor` -> target-entry edge,
/// with both lobes' exits joined at a shared exit. Throws
/// core::Error{kInvalidArgument} for empty CFGs and
/// core::Error{kOutOfRange} for an anchor past the original's nodes.
[[nodiscard]] GeaResult gea_attach(const Cfg& original, const Cfg& target,
                                   graph::NodeId anchor);

}  // namespace soteria::cfg
