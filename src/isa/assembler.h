// Two-pass assembler: symbolic programs (instructions + labels) down to
// SIR-32 machine code. The code generators build `AsmProgram`s; the
// assembler resolves label references into signed instruction-relative
// offsets and emits the flat binary image the extractor consumes.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/isa.h"

namespace soteria::isa {

/// One assembly item: either a concrete instruction, an instruction
/// whose immediate is a pending label reference, or a label definition.
struct AsmItem {
  enum class Kind { kInstruction, kLabelRef, kLabelDef };

  Kind kind = Kind::kInstruction;
  Instruction insn;    ///< valid for kInstruction and kLabelRef
  std::string label;   ///< target label (kLabelRef) or name (kLabelDef)
};

/// A symbolic program under construction.
class AsmProgram {
 public:
  /// Appends a concrete instruction.
  void emit(Instruction insn);
  void emit(Opcode op, std::uint8_t reg = 0, std::int16_t imm = 0);

  /// Appends a control-flow instruction targeting `label`.
  void emit_branch(Opcode op, std::string label, std::uint8_t reg = 0);

  /// Defines `label` at the current position. Throws
  /// core::Error{kInvalidArgument} on duplicate definition.
  void define_label(std::string label);

  /// Generates a fresh unique label with the given prefix.
  [[nodiscard]] std::string fresh_label(const std::string& prefix);

  /// Number of emitted instructions (labels excluded).
  [[nodiscard]] std::size_t instruction_count() const noexcept;

  [[nodiscard]] const std::vector<AsmItem>& items() const noexcept {
    return items_;
  }

  /// Appends all of `other`'s items (labels must not collide; the caller
  /// is expected to use fresh_label()-style namespacing).
  void append(const AsmProgram& other);

 private:
  std::vector<AsmItem> items_;
  std::unordered_map<std::string, bool> defined_;
  std::size_t next_label_ = 0;
};

/// Assembles to a flat binary image. Throws core::Error{kInvalidArgument} for
/// undefined or duplicate labels and core::Error{kOutOfRange} if a relative
/// offset overflows the 16-bit immediate.
[[nodiscard]] std::vector<std::uint8_t> assemble(const AsmProgram& program);

}  // namespace soteria::isa
