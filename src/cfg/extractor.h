// Binary image -> CFG extraction (the radare2 role in the paper).
//
// Historically this was the toy-ISA linear sweep itself; it is now a
// thin wrapper over the pluggable front-end seam (frontend/frontend.h),
// delegating raw toy images to `frontend::ToyIsaFrontend`. The produced
// CFGs are bit-identical to the pre-seam extractor (pinned by
// tests/frontend/toy_identity_test.cpp):
//   jmp            -> target
//   jz/jnz/jlt/jge -> target + fall-through
//   call           -> callee entry + fall-through (return path)
//   ret/halt       -> no successors
//
// By default the extracted CFG is pruned to the blocks reachable from
// the entry (image offset 0). That pruning is the property Soteria
// leans on: bytes appended after a halt, or functions never called, are
// invisible to every downstream feature.
//
// For ELF containers and other ISAs, use loader::load_image +
// frontend::resolve_frontend, then analyze the CFG the front end
// extracts.
#pragma once

#include <cstdint>
#include <span>

#include "cfg/cfg.h"
#include "frontend/options.h"

namespace soteria::cfg {

/// Extraction options — shared with every front end. Historical callers
/// that set `prune_unreachable` compile unchanged; `max_image_bytes`
/// rides along from the frontend seam (0 = unlimited).
using ExtractOptions = frontend::FrontendOptions;

/// Extracts the CFG of a raw toy-ISA `image`. Throws
/// core::Error{kInvalidArgument} for an empty image, one whose size is
/// not a multiple of the instruction width, or one over
/// `options.max_image_bytes`.
[[nodiscard]] Cfg extract(std::span<const std::uint8_t> image,
                          const ExtractOptions& options = {});

}  // namespace soteria::cfg
