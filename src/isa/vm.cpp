#include "isa/vm.h"

#include <algorithm>
#include <array>

#include "soteria/error.h"

namespace soteria::isa {

const char* vm_status_name(VmStatus status) noexcept {
  switch (status) {
    case VmStatus::kHalted: return "halted";
    case VmStatus::kStepLimit: return "step-limit";
    case VmStatus::kFault: return "fault";
  }
  return "unknown";
}

namespace {

struct Machine {
  std::array<std::int32_t, kRegisterCount> registers{};
  std::vector<std::int32_t> memory;
  std::vector<std::int32_t> data_stack;
  std::vector<std::size_t> call_stack;
  bool zero_flag = false;
  bool negative_flag = false;
};

}  // namespace

VmResult execute(std::span<const std::uint8_t> image,
                 const VmConfig& config) {
  const auto program = disassemble(image);  // validates size/alignment
  if (program.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "execute: empty image");
  }

  Machine machine;
  machine.memory.assign(config.memory_words, 0);

  VmResult result;
  std::size_t pc = 0;
  std::vector<std::uint64_t> visit_counts;
  if (config.record_hotspots) visit_counts.assign(program.size(), 0);

  const auto finalize = [&](VmResult& r) -> VmResult& {
    if (config.record_hotspots) {
      std::vector<std::pair<std::size_t, std::uint64_t>> ranked;
      for (std::size_t i = 0; i < visit_counts.size(); ++i) {
        if (visit_counts[i] > 0) ranked.emplace_back(i, visit_counts[i]);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  return a.second > b.second;
                });
      if (ranked.size() > config.hotspot_count) {
        ranked.resize(config.hotspot_count);
      }
      r.hotspots = std::move(ranked);
    }
    return r;
  };

  const auto fault = [&](std::size_t index) -> VmResult {
    result.status = VmStatus::kFault;
    result.faulting_index = index;
    return finalize(result);
  };

  while (result.steps < config.max_steps) {
    if (pc >= program.size()) return fault(pc);
    const Instruction& insn = program[pc];
    const std::size_t current = pc;
    if (config.record_hotspots) ++visit_counts[current];
    ++result.steps;
    ++pc;

    const auto reg_a = static_cast<std::size_t>(insn.reg % kRegisterCount);
    const auto reg_b =
        static_cast<std::size_t>(insn.imm & (kRegisterCount - 1));
    auto& ra = machine.registers[reg_a];
    const std::int32_t rb = machine.registers[reg_b];

    const auto branch_to = [&](std::size_t from) -> bool {
      const auto target = static_cast<std::int64_t>(from) + 1 + insn.imm;
      if (target < 0 ||
          target >= static_cast<std::int64_t>(program.size())) {
        return false;
      }
      pc = static_cast<std::size_t>(target);
      return true;
    };

    switch (insn.opcode) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        result.status = VmStatus::kHalted;
        return finalize(result);
      case Opcode::kMovImm:
        ra = insn.imm;
        break;
      case Opcode::kMovReg:
        ra = rb;
        break;
      case Opcode::kAdd:
        ra = static_cast<std::int32_t>(static_cast<std::uint32_t>(ra) +
                                       static_cast<std::uint32_t>(rb));
        break;
      case Opcode::kSub:
        ra = static_cast<std::int32_t>(static_cast<std::uint32_t>(ra) -
                                       static_cast<std::uint32_t>(rb));
        break;
      case Opcode::kMul:
        ra = static_cast<std::int32_t>(static_cast<std::uint32_t>(ra) *
                                       static_cast<std::uint32_t>(rb));
        break;
      case Opcode::kXor:
        ra ^= rb;
        break;
      case Opcode::kAnd:
        ra &= rb;
        break;
      case Opcode::kOr:
        ra |= rb;
        break;
      case Opcode::kShl:
        ra = static_cast<std::int32_t>(static_cast<std::uint32_t>(ra)
                                       << (static_cast<std::uint32_t>(rb) &
                                           31U));
        break;
      case Opcode::kShr:
        ra = static_cast<std::int32_t>(static_cast<std::uint32_t>(ra) >>
                                       (static_cast<std::uint32_t>(rb) &
                                        31U));
        break;
      case Opcode::kCmp: {
        const std::int64_t diff =
            static_cast<std::int64_t>(ra) - static_cast<std::int64_t>(rb);
        machine.zero_flag = diff == 0;
        machine.negative_flag = diff < 0;
        break;
      }
      case Opcode::kCmpImm: {
        const std::int64_t diff = static_cast<std::int64_t>(ra) - insn.imm;
        machine.zero_flag = diff == 0;
        machine.negative_flag = diff < 0;
        break;
      }
      case Opcode::kLoad: {
        const auto address = static_cast<std::size_t>(
            static_cast<std::uint32_t>(rb + insn.imm)) %
                             machine.memory.size();
        ra = machine.memory[address];
        break;
      }
      case Opcode::kStore: {
        const auto address = static_cast<std::size_t>(
            static_cast<std::uint32_t>(rb + insn.imm)) %
                             machine.memory.size();
        machine.memory[address] = ra;
        break;
      }
      case Opcode::kPush:
        if (machine.data_stack.size() >= config.stack_limit) {
          return fault(current);
        }
        machine.data_stack.push_back(ra);
        break;
      case Opcode::kPop:
        if (machine.data_stack.empty()) return fault(current);
        ra = machine.data_stack.back();
        machine.data_stack.pop_back();
        break;
      case Opcode::kJmp:
        if (!branch_to(current)) return fault(current);
        break;
      case Opcode::kJz:
        if (machine.zero_flag && !branch_to(current)) return fault(current);
        break;
      case Opcode::kJnz:
        if (!machine.zero_flag && !branch_to(current)) {
          return fault(current);
        }
        break;
      case Opcode::kJlt:
        if (machine.negative_flag && !branch_to(current)) {
          return fault(current);
        }
        break;
      case Opcode::kJge:
        if (!machine.negative_flag && !branch_to(current)) {
          return fault(current);
        }
        break;
      case Opcode::kCall:
        if (machine.call_stack.size() >= config.stack_limit) {
          return fault(current);
        }
        machine.call_stack.push_back(pc);
        if (!branch_to(current)) return fault(current);
        result.max_call_depth =
            std::max<std::uint64_t>(result.max_call_depth,
                                    machine.call_stack.size());
        break;
      case Opcode::kRet:
        if (machine.call_stack.empty()) return fault(current);
        pc = machine.call_stack.back();
        machine.call_stack.pop_back();
        break;
      case Opcode::kSyscall:
        ++result.syscalls;
        break;
    }
  }
  result.status = VmStatus::kStepLimit;
  return finalize(result);
}

}  // namespace soteria::isa
