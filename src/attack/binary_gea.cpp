#include "attack/binary_gea.h"

#include <limits>
#include <string>

#include "isa/isa.h"
#include "soteria/error.h"

namespace soteria::attack {

namespace {

constexpr std::uint8_t kGuardRegister = 15;

void require_image(std::span<const std::uint8_t> image, const char* what) {
  if (image.empty() || image.size() % isa::kInstructionSize != 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string(what) + ": empty or ragged image");
  }
}

std::int16_t checked_offset(long long offset, const char* what) {
  if (offset < std::numeric_limits<std::int16_t>::min() ||
      offset > std::numeric_limits<std::int16_t>::max()) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      std::string(what) + ": branch offset " +
                          std::to_string(offset) +
                          " exceeds the 16-bit reach");
  }
  return static_cast<std::int16_t>(offset);
}

/// Emits `mov rG, 0; cmpi rG, 1; jz +jump` — the never-taken guard.
/// Never taken regardless of rG's prior value: the mov runs first.
void emit_guard(std::vector<std::uint8_t>& out, std::int16_t jump,
                std::uint8_t guard_register = kGuardRegister) {
  isa::encode_to(
      isa::Instruction{isa::Opcode::kMovImm, guard_register, 0}, out);
  isa::encode_to(
      isa::Instruction{isa::Opcode::kCmpImm, guard_register, 1}, out);
  isa::encode_to(isa::Instruction{isa::Opcode::kJz, 0, jump}, out);
}

/// True for opcodes that overwrite their primary register operand.
bool writes_register(isa::Opcode op) noexcept {
  switch (op) {
    case isa::Opcode::kMovImm:
    case isa::Opcode::kMovReg:
    case isa::Opcode::kAdd:
    case isa::Opcode::kSub:
    case isa::Opcode::kMul:
    case isa::Opcode::kXor:
    case isa::Opcode::kAnd:
    case isa::Opcode::kOr:
    case isa::Opcode::kShl:
    case isa::Opcode::kShr:
    case isa::Opcode::kLoad:
    case isa::Opcode::kPop:
      return true;
    default:
      return false;
  }
}

/// True for opcodes that read their primary register operand before
/// (possibly) overwriting it.
bool reads_primary(isa::Opcode op) noexcept {
  switch (op) {
    case isa::Opcode::kAdd:
    case isa::Opcode::kSub:
    case isa::Opcode::kMul:
    case isa::Opcode::kXor:
    case isa::Opcode::kAnd:
    case isa::Opcode::kOr:
    case isa::Opcode::kShl:
    case isa::Opcode::kShr:
    case isa::Opcode::kCmp:
    case isa::Opcode::kCmpImm:
    case isa::Opcode::kStore:
    case isa::Opcode::kPush:
      return true;
    default:
      return false;
  }
}

/// True for opcodes whose immediate's low nibble names a second source
/// register.
bool reads_imm_register(isa::Opcode op) noexcept {
  switch (op) {
    case isa::Opcode::kMovReg:
    case isa::Opcode::kAdd:
    case isa::Opcode::kSub:
    case isa::Opcode::kMul:
    case isa::Opcode::kXor:
    case isa::Opcode::kAnd:
    case isa::Opcode::kOr:
    case isa::Opcode::kShl:
    case isa::Opcode::kShr:
    case isa::Opcode::kCmp:
    case isa::Opcode::kLoad:
    case isa::Opcode::kStore:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<std::uint8_t> binary_gea_at(
    std::span<const std::uint8_t> original,
    std::span<const std::uint8_t> target, std::size_t insert_instruction,
    std::uint8_t guard_register) {
  require_image(original, "binary_gea_at (original)");
  require_image(target, "binary_gea_at (target)");
  if (guard_register >= isa::kRegisterCount) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "binary_gea_at: no register r" +
                          std::to_string(guard_register));
  }

  const std::size_t count = original.size() / isa::kInstructionSize;
  const std::size_t p = insert_instruction;
  if (p >= count) {
    throw core::Error(core::ErrorCode::kOutOfRange,
                      "binary_gea_at: insertion boundary " +
                          std::to_string(p) + " past an original of " +
                          std::to_string(count) + " instructions");
  }

  // New layout (instruction indices):
  //   [0, p)                 original prefix (unchanged positions)
  //   [p, p+3)               guard
  //   [p+3, count+3)         original suffix (shifted by the guard)
  //   [count+3, ...)         target, verbatim (internally relative)
  //
  // Relocation: a branch at old index i targeting old index t = i+1+imm
  // keeps its semantics under new_src = i < p ? i : i+3 and
  // new_t = t <= p ? t : t+3. Targets equal to p map to the guard start,
  // so every path that used to enter instruction p now runs through the
  // (transparent) guard first — which is what keeps the injected lobe
  // reachable in the extracted CFG.
  const auto relocate_index = [p](long long x) -> long long {
    return x < static_cast<long long>(p) ? x : x + 3;
  };
  const auto relocate_target = [p](long long t) -> long long {
    return t <= static_cast<long long>(p) ? t : t + 3;
  };

  std::vector<std::uint8_t> patched(original.begin(), original.end());
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const std::uint8_t> word =
        original.subspan(i * isa::kInstructionSize, isa::kInstructionSize);
    const std::optional<isa::Instruction> insn = isa::decode(word);
    // Unknown words are inert data and are copied verbatim.
    if (!insn.has_value() || !isa::is_control_flow(insn->opcode)) continue;
    const long long old_target =
        static_cast<long long>(i) + 1 + insn->imm;
    const long long new_imm =
        relocate_target(old_target) - (relocate_index(i) + 1);
    isa::Instruction moved = *insn;
    moved.imm = checked_offset(new_imm, "binary_gea_at");
    const auto bytes = isa::encode(moved);
    std::copy(bytes.begin(), bytes.end(),
              patched.begin() +
                  static_cast<std::ptrdiff_t>(i * isa::kInstructionSize));
  }

  // jz sits at new index p+2; the target lobe starts at count+3.
  const std::int16_t jump = checked_offset(
      static_cast<long long>(count) - static_cast<long long>(p),
      "binary_gea_at");

  const std::size_t split = p * isa::kInstructionSize;
  std::vector<std::uint8_t> image;
  image.reserve(patched.size() +
                kGuardInstructions * isa::kInstructionSize + target.size());
  image.insert(image.end(), patched.begin(),
               patched.begin() + static_cast<std::ptrdiff_t>(split));
  emit_guard(image, jump, guard_register);
  image.insert(image.end(),
               patched.begin() + static_cast<std::ptrdiff_t>(split),
               patched.end());
  image.insert(image.end(), target.begin(), target.end());
  return image;
}

std::vector<std::uint8_t> binary_gea_chain(
    std::span<const std::uint8_t> original,
    std::span<const std::vector<std::uint8_t>> targets) {
  require_image(original, "binary_gea_chain (original)");
  if (targets.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "binary_gea_chain: no targets");
  }
  for (const auto& t : targets) {
    require_image(t, "binary_gea_chain (target)");
  }

  // Layout (instruction indices): k guards of kGuardInstructions, the
  // original, then the targets in order. Guard i's jz (at index 3i+2)
  // jumps into target i; fall-through reaches guard i+1 and finally the
  // original. The guards write r15 = 0 and compare it with 1, so no jump
  // is ever taken — yet every lobe is statically reachable.
  const std::size_t guards = kGuardInstructions * targets.size();
  std::size_t target_start =
      guards + original.size() / isa::kInstructionSize;
  std::size_t total_bytes = guards * isa::kInstructionSize + original.size();
  for (const auto& t : targets) total_bytes += t.size();

  std::vector<std::uint8_t> image;
  image.reserve(total_bytes);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const long long jump = static_cast<long long>(target_start) -
                           static_cast<long long>(kGuardInstructions * (i + 1));
    emit_guard(image, checked_offset(jump, "binary_gea_chain"));
    target_start += targets[i].size() / isa::kInstructionSize;
  }
  image.insert(image.end(), original.begin(), original.end());
  for (const auto& t : targets) image.insert(image.end(), t.begin(), t.end());
  return image;
}

std::vector<GuardPoint> safe_guard_points(
    std::span<const std::uint8_t> image) {
  require_image(image, "safe_guard_points");
  const std::size_t count = image.size() / isa::kInstructionSize;

  std::vector<std::optional<isa::Instruction>> insns;
  insns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    insns.push_back(isa::decode(
        image.subspan(i * isa::kInstructionSize, isa::kInstructionSize)));
  }

  // Registers no decoded instruction ever writes always hold the VM's
  // initial 0 — exactly the value the guard's mov writes, so clobbering
  // them is invisible at *any* boundary (loops included).
  bool written_somewhere[isa::kRegisterCount] = {};
  for (const auto& insn : insns) {
    if (insn.has_value() && writes_register(insn->opcode)) {
      written_somewhere[insn->reg & 0xF] = true;
    }
  }

  std::vector<GuardPoint> points;
  for (std::size_t p = 1; p < count; ++p) {
    // The preceding instruction must fall through into the guard.
    const auto& prev = insns[p - 1];
    if (!prev.has_value() || prev->opcode == isa::Opcode::kJmp ||
        prev->opcode == isa::Opcode::kRet ||
        prev->opcode == isa::Opcode::kHalt) {
      continue;
    }

    // One straight-line scan from the boundary decides both clobbers.
    // Flags: the guard's cmpi is invisible if the path reaches a fresh
    // cmp (or halt) before any instruction that reads or redirects on
    // the flags. Registers: a register first *written* in the window is
    // dead at the boundary; on reaching a halt, so is every register
    // the window never touched. Calls, branches, syscalls, and unknown
    // words end the window — past them the value could be read. Flows
    // that branch *into* the window never executed the guard, so they
    // are unaffected by either clobber.
    enum class Access : std::uint8_t { kNone, kRead, kWrite };
    Access first[isa::kRegisterCount] = {};
    bool flags_dead = false;
    bool halt_reached = false;
    for (std::size_t j = p; j < count; ++j) {
      if (!insns[j].has_value()) break;  // data: cannot reason, unsafe
      const isa::Instruction& insn = *insns[j];
      const isa::Opcode op = insn.opcode;
      if (op == isa::Opcode::kHalt) {
        flags_dead = true;
        halt_reached = true;
        break;
      }
      if (op == isa::Opcode::kCmp || op == isa::Opcode::kCmpImm) {
        flags_dead = true;
      }
      if (isa::is_control_flow(op) || op == isa::Opcode::kRet ||
          op == isa::Opcode::kSyscall) {
        break;
      }
      // Reads happen before the (possible) write of the same register.
      if (reads_primary(op) && first[insn.reg & 0xF] == Access::kNone) {
        first[insn.reg & 0xF] = Access::kRead;
      }
      if (reads_imm_register(op) && first[insn.imm & 0xF] == Access::kNone) {
        first[insn.imm & 0xF] = Access::kRead;
      }
      if (writes_register(op) && first[insn.reg & 0xF] == Access::kNone) {
        first[insn.reg & 0xF] = Access::kWrite;
      }
    }
    if (!flags_dead) continue;

    // Prefer the conventional r15 downwards so entry-style guards and
    // interior guards pick the same register whenever they can.
    for (int g = isa::kRegisterCount - 1; g >= 0; --g) {
      const bool dead = !written_somewhere[g] ||
                        first[g] == Access::kWrite ||
                        (halt_reached && first[g] == Access::kNone);
      if (dead) {
        points.push_back(
            GuardPoint{p, static_cast<std::uint8_t>(g)});
        break;
      }
    }
  }
  return points;
}

std::vector<std::uint8_t> append_attack(
    std::span<const std::uint8_t> image, std::size_t byte_count,
    math::Rng& rng) {
  require_image(image, "append_attack");
  std::vector<std::uint8_t> out(image.begin(), image.end());
  const std::size_t instructions =
      (byte_count + isa::kInstructionSize - 1) / isa::kInstructionSize;
  static constexpr isa::Opcode kFiller[] = {
      isa::Opcode::kMovImm, isa::Opcode::kAdd, isa::Opcode::kXor,
      isa::Opcode::kLoad,   isa::Opcode::kOr,  isa::Opcode::kNop};
  for (std::size_t i = 0; i < instructions; ++i) {
    isa::encode_to(
        isa::Instruction{
            kFiller[rng.index(std::size(kFiller))],
            static_cast<std::uint8_t>(rng.index(isa::kRegisterCount)),
            static_cast<std::int16_t>(rng.uniform_int(0, 255))},
        out);
  }
  return out;
}

}  // namespace soteria::attack
