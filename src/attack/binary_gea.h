// Code-level attacks against CFG-based classifiers.
//
// * binary_gea_chain: the GEA attack realized at the binary level — a
//   guard block branches to either the original program or the
//   injected target, with both rejoined at a shared halt. The guard
//   condition is constant-false for the injected side, so the original
//   behaviour is preserved (a *practical* AE per Section II-A: reachable
//   in the CFG, executable, undamaged). Unlike cfg::gea_chain (which
//   merges graphs), this produces an actual runnable image whose
//   *extracted* CFG has the shared-entry/shared-exit GEA shape. Several
//   targets sit behind a chain of guards, one never-taken conditional
//   branch each; one target is the classic GEA.
//
// * binary_gea_at: the guard planted at an interior instruction
//   boundary, relocating every control-flow immediate that crosses the
//   insertion point so the original still executes bit-for-bit (the
//   explainability-guided follow-up's placement). safe_guard_points
//   enumerates the boundaries where a guard is semantically transparent,
//   together with a register whose clobbering is provably invisible
//   there (never written in the image, or locally dead) — deep
//   boundaries matter because the further from the entry the lobe
//   attaches, the less the labeling ranks and walk statistics move.
//
// * append_attack: the binary-level *impractical* AE — benign bytes
//   appended past the halt. It changes byte-level representations
//   (e.g. the image baseline's input) while being invisible to CFG
//   features, which is the paper's motivating contrast.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "math/rng.h"

namespace soteria::attack {

/// Instructions in one guard: `mov rG, 0; cmpi rG, 1; jz <lobe>`.
inline constexpr std::size_t kGuardInstructions = 3;

/// Injects every image of `targets` behind a guard chain at the entry
/// and returns the runnable combined image. Guard i compares a register
/// against an impossible constant and conditionally jumps into
/// (relocated) target i; fall-through reaches guard i+1 and finally the
/// original. Each program's halts are preserved, so whichever side runs
/// terminates the process exactly like the original did. Throws
/// core::Error{kInvalidArgument} for empty or ragged images or an empty
/// target list and core::Error{kOutOfRange} when any branch exceeds
/// reach.
[[nodiscard]] std::vector<std::uint8_t> binary_gea_chain(
    std::span<const std::uint8_t> original,
    std::span<const std::vector<std::uint8_t>> targets);

/// Plants the guard at instruction boundary `insert_instruction` of
/// `original` instead of the entry and appends the injected target past
/// the original's end. Every control-flow immediate of the original
/// whose source or target crosses the boundary is relocated, and
/// branches *to* the boundary enter the (transparent) guard first, so
/// the original's execution is preserved whenever the boundary is safe
/// (see safe_guard_points, which also chooses `guard_register`). Throws
/// core::Error{kInvalidArgument} for empty or ragged images or an
/// invalid register and core::Error{kOutOfRange} for a boundary at or
/// past the original's end or a relocation that exceeds branch reach.
[[nodiscard]] std::vector<std::uint8_t> binary_gea_at(
    std::span<const std::uint8_t> original,
    std::span<const std::uint8_t> target, std::size_t insert_instruction,
    std::uint8_t guard_register = 15);

/// A provably transparent interior guard placement: the instruction
/// boundary plus the register the guard may clobber there.
struct GuardPoint {
  std::size_t boundary = 0;        ///< instruction index (see binary_gea_at)
  std::uint8_t guard_register = 0; ///< register the guard writes
};

/// Interior instruction boundaries of `image` where a guard insertion
/// is semantically transparent, each paired with a usable guard
/// register. A boundary qualifies when (1) the preceding instruction
/// falls through into it, (2) the comparison flags are dead (the
/// fall-through path reaches a fresh cmp or a halt before any branch
/// that could read them), and (3) some register's clobbering is
/// invisible — it is never written anywhere in the image (so it always
/// holds the VM's initial 0, which is exactly what the guard writes),
/// or the straight-line code after the boundary writes it before any
/// read, call, branch, or syscall (flows that enter the window from a
/// branch target never passed the guard, so they are unaffected).
/// Boundary 0 (the entry) is always safe and not listed; points are in
/// ascending boundary order. Throws core::Error{kInvalidArgument} for
/// an empty or ragged image.
[[nodiscard]] std::vector<GuardPoint> safe_guard_points(
    std::span<const std::uint8_t> image);

/// Appends `byte_count` benign-looking filler instructions after the
/// image's end (never reachable). Changes the byte stream, not the CFG.
[[nodiscard]] std::vector<std::uint8_t> append_attack(
    std::span<const std::uint8_t> image, std::size_t byte_count,
    math::Rng& rng);

}  // namespace soteria::attack
