// SIR-32: a small fixed-width instruction set standing in for the ARM/
// MIPS firmware the paper disassembled with radare2.
//
// Every instruction is exactly 4 bytes:
//   byte 0: opcode
//   byte 1: primary register operand (dst / condition source)
//   bytes 2-3: 16-bit little-endian immediate; for control-flow opcodes
//              this is a *signed instruction-relative* offset measured
//              from the following instruction.
//
// The fixed width keeps the disassembler a linear sweep (like radare2's
// default analysis on these firmwares), so basic-block leader detection
// is exact and the CFG extraction code path is faithful.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace soteria::isa {

/// Instruction width in bytes. All encodings are fixed width.
inline constexpr std::size_t kInstructionSize = 4;

/// Number of general-purpose registers (r0..r15).
inline constexpr std::uint8_t kRegisterCount = 16;

/// SIR-32 opcodes. Values are part of the binary format; do not reorder.
enum class Opcode : std::uint8_t {
  kNop = 0x00,
  kHalt = 0x01,
  kMovImm = 0x10,  ///< rA = imm
  kMovReg = 0x11,  ///< rA = r(imm & 0xF)
  kAdd = 0x12,     ///< rA += r(imm & 0xF)
  kSub = 0x13,
  kMul = 0x14,
  kXor = 0x15,
  kAnd = 0x16,
  kOr = 0x17,
  kShl = 0x18,
  kShr = 0x19,
  kCmp = 0x20,   ///< flags = rA <=> r(imm & 0xF)
  kCmpImm = 0x21,
  kLoad = 0x30,   ///< rA = mem[r(imm & 0xF) + (imm >> 4)]
  kStore = 0x31,
  kPush = 0x32,
  kPop = 0x33,
  kJmp = 0x40,   ///< unconditional, relative
  kJz = 0x41,    ///< branch if zero flag
  kJnz = 0x42,
  kJlt = 0x43,
  kJge = 0x44,
  kCall = 0x50,  ///< relative call
  kRet = 0x51,
  kSyscall = 0x60,  ///< imm selects the service (net/io/proc)
};

/// True for opcodes whose immediate is a control-flow target.
[[nodiscard]] bool is_control_flow(Opcode op) noexcept;

/// True for conditional branches (fall-through + target successors).
[[nodiscard]] bool is_conditional_branch(Opcode op) noexcept;

/// True for opcodes that terminate a basic block.
[[nodiscard]] bool ends_basic_block(Opcode op) noexcept;

/// True if `value` encodes a known opcode.
[[nodiscard]] bool is_valid_opcode(std::uint8_t value) noexcept;

/// Mnemonic for diagnostics/disassembly listings.
[[nodiscard]] std::string mnemonic(Opcode op);

/// One decoded SIR-32 instruction.
struct Instruction {
  Opcode opcode = Opcode::kNop;
  std::uint8_t reg = 0;     ///< primary register operand
  std::int16_t imm = 0;     ///< immediate / relative target offset

  [[nodiscard]] bool operator==(const Instruction&) const = default;
};

/// Encodes one instruction into its 4-byte form.
[[nodiscard]] std::array<std::uint8_t, kInstructionSize> encode(
    const Instruction& insn) noexcept;

/// Appends the encoding of `insn` to `out`.
void encode_to(const Instruction& insn, std::vector<std::uint8_t>& out);

/// Decodes the 4 bytes at `bytes`. Returns nullopt for unknown opcodes
/// (callers treat such words as inert data). Throws
/// core::Error{kInvalidArgument} if fewer than 4 bytes are supplied.
[[nodiscard]] std::optional<Instruction> decode(
    std::span<const std::uint8_t> bytes);

/// Decodes a whole image by linear sweep; unknown words decode to kNop
/// with the raw value preserved in `imm` so the image round-trips in
/// length. Throws core::Error{kInvalidArgument} if the image size is not a
/// multiple of the instruction width.
[[nodiscard]] std::vector<Instruction> disassemble(
    std::span<const std::uint8_t> image);

/// Renders one instruction as assembly text, with `index` used to print
/// absolute targets for control flow.
[[nodiscard]] std::string to_string(const Instruction& insn,
                                    std::size_t index);

}  // namespace soteria::isa
