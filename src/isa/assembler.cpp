#include "isa/assembler.h"

#include <limits>

#include "soteria/error.h"

namespace soteria::isa {

void AsmProgram::emit(Instruction insn) {
  AsmItem item;
  item.kind = AsmItem::Kind::kInstruction;
  item.insn = insn;
  items_.push_back(std::move(item));
}

void AsmProgram::emit(Opcode op, std::uint8_t reg, std::int16_t imm) {
  emit(Instruction{op, reg, imm});
}

void AsmProgram::emit_branch(Opcode op, std::string label,
                             std::uint8_t reg) {
  if (!is_control_flow(op)) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "emit_branch: " + mnemonic(op) +
                      " is not a control-flow opcode");
  }
  AsmItem item;
  item.kind = AsmItem::Kind::kLabelRef;
  item.insn = Instruction{op, reg, 0};
  item.label = std::move(label);
  items_.push_back(std::move(item));
}

void AsmProgram::define_label(std::string label) {
  auto [it, inserted] = defined_.emplace(label, true);
  if (!inserted) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "define_label: duplicate label '" + label +
                      "'");
  }
  AsmItem item;
  item.kind = AsmItem::Kind::kLabelDef;
  item.label = std::move(label);
  items_.push_back(std::move(item));
}

std::string AsmProgram::fresh_label(const std::string& prefix) {
  return prefix + "$" + std::to_string(next_label_++);
}

std::size_t AsmProgram::instruction_count() const noexcept {
  std::size_t n = 0;
  for (const auto& item : items_) {
    if (item.kind != AsmItem::Kind::kLabelDef) ++n;
  }
  return n;
}

void AsmProgram::append(const AsmProgram& other) {
  for (const auto& item : other.items_) {
    if (item.kind == AsmItem::Kind::kLabelDef) {
      define_label(item.label);
    } else {
      items_.push_back(item);
    }
  }
  next_label_ = std::max(next_label_, other.next_label_);
}

std::vector<std::uint8_t> assemble(const AsmProgram& program) {
  // Pass 1: assign instruction indices to labels.
  std::unordered_map<std::string, std::size_t> label_index;
  std::size_t index = 0;
  for (const auto& item : program.items()) {
    if (item.kind == AsmItem::Kind::kLabelDef) {
      if (!label_index.emplace(item.label, index).second) {
        throw core::Error(core::ErrorCode::kInvalidArgument,
                          "assemble: duplicate label '" +
                          item.label + "'");
      }
    } else {
      ++index;
    }
  }

  // Pass 2: emit, resolving label references to relative offsets.
  std::vector<std::uint8_t> image;
  image.reserve(index * kInstructionSize);
  index = 0;
  for (const auto& item : program.items()) {
    if (item.kind == AsmItem::Kind::kLabelDef) continue;
    Instruction insn = item.insn;
    if (item.kind == AsmItem::Kind::kLabelRef) {
      const auto it = label_index.find(item.label);
      if (it == label_index.end()) {
        throw core::Error(core::ErrorCode::kInvalidArgument,
                          "assemble: undefined label '" +
                          item.label + "'");
      }
      const auto rel = static_cast<std::int64_t>(it->second) -
                       (static_cast<std::int64_t>(index) + 1);
      if (rel < std::numeric_limits<std::int16_t>::min() ||
          rel > std::numeric_limits<std::int16_t>::max()) {
        throw core::Error(core::ErrorCode::kOutOfRange,
                          "assemble: branch to '" + item.label +
                          "' overflows the 16-bit offset (" +
                          std::to_string(rel) + ")");
      }
      insn.imm = static_cast<std::int16_t>(rel);
    }
    encode_to(insn, image);
    ++index;
  }
  return image;
}

}  // namespace soteria::isa
