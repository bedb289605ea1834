#include "isa/isa.h"

#include <array>

#include "soteria/error.h"

namespace soteria::isa {

bool is_control_flow(Opcode op) noexcept {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJlt:
    case Opcode::kJge:
    case Opcode::kCall:
      return true;
    default:
      return false;
  }
}

bool is_conditional_branch(Opcode op) noexcept {
  switch (op) {
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJlt:
    case Opcode::kJge:
      return true;
    default:
      return false;
  }
}

bool ends_basic_block(Opcode op) noexcept {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJlt:
    case Opcode::kJge:
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kHalt:
      return true;
    default:
      return false;
  }
}

bool is_valid_opcode(std::uint8_t value) noexcept {
  switch (static_cast<Opcode>(value)) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kMovImm:
    case Opcode::kMovReg:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kXor:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kCmp:
    case Opcode::kCmpImm:
    case Opcode::kLoad:
    case Opcode::kStore:
    case Opcode::kPush:
    case Opcode::kPop:
    case Opcode::kJmp:
    case Opcode::kJz:
    case Opcode::kJnz:
    case Opcode::kJlt:
    case Opcode::kJge:
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kSyscall:
      return true;
  }
  return false;
}

std::string mnemonic(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kMovImm: return "mov";
    case Opcode::kMovReg: return "movr";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kXor: return "xor";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kCmp: return "cmp";
    case Opcode::kCmpImm: return "cmpi";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kPush: return "push";
    case Opcode::kPop: return "pop";
    case Opcode::kJmp: return "jmp";
    case Opcode::kJz: return "jz";
    case Opcode::kJnz: return "jnz";
    case Opcode::kJlt: return "jlt";
    case Opcode::kJge: return "jge";
    case Opcode::kCall: return "call";
    case Opcode::kRet: return "ret";
    case Opcode::kSyscall: return "syscall";
  }
  return "db";
}

std::array<std::uint8_t, kInstructionSize> encode(
    const Instruction& insn) noexcept {
  const auto uimm = static_cast<std::uint16_t>(insn.imm);
  return {static_cast<std::uint8_t>(insn.opcode), insn.reg,
          static_cast<std::uint8_t>(uimm & 0xFF),
          static_cast<std::uint8_t>(uimm >> 8)};
}

void encode_to(const Instruction& insn, std::vector<std::uint8_t>& out) {
  const auto bytes = encode(insn);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::optional<Instruction> decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kInstructionSize) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "decode: need " +
                      std::to_string(kInstructionSize) +
                      " bytes, got " +
                      std::to_string(bytes.size()));
  }
  if (!is_valid_opcode(bytes[0])) return std::nullopt;
  Instruction insn;
  insn.opcode = static_cast<Opcode>(bytes[0]);
  insn.reg = bytes[1];
  insn.imm = static_cast<std::int16_t>(
      static_cast<std::uint16_t>(bytes[2]) |
      (static_cast<std::uint16_t>(bytes[3]) << 8));
  return insn;
}

std::vector<Instruction> disassemble(std::span<const std::uint8_t> image) {
  if (image.size() % kInstructionSize != 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "disassemble: image size " +
                          std::to_string(image.size()) +
                          " is not a multiple of " +
                          std::to_string(kInstructionSize));
  }
  std::vector<Instruction> out;
  out.reserve(image.size() / kInstructionSize);
  for (std::size_t off = 0; off < image.size(); off += kInstructionSize) {
    const auto insn = decode(image.subspan(off, kInstructionSize));
    if (insn.has_value()) {
      out.push_back(*insn);
    } else {
      // Inert data word: keep image length, never branches.
      Instruction data;
      data.opcode = Opcode::kNop;
      data.reg = image[off + 1];
      data.imm = static_cast<std::int16_t>(
          static_cast<std::uint16_t>(image[off + 2]) |
          (static_cast<std::uint16_t>(image[off + 3]) << 8));
      out.push_back(data);
    }
  }
  return out;
}

std::string to_string(const Instruction& insn, std::size_t index) {
  std::string text = mnemonic(insn.opcode);
  if (is_control_flow(insn.opcode)) {
    const auto target = static_cast<std::int64_t>(index) + 1 + insn.imm;
    text += " @" + std::to_string(target);
  } else if (insn.opcode != Opcode::kNop && insn.opcode != Opcode::kHalt &&
             insn.opcode != Opcode::kRet) {
    text += " r" + std::to_string(insn.reg) + ", " +
            std::to_string(insn.imm);
  }
  return text;
}

}  // namespace soteria::isa
