#include "isa/mutate.h"

#include <map>
#include <string>
#include <vector>

#include "soteria/error.h"

namespace soteria::isa {

void validate(const MutationConfig& c) {
  auto check = [](int lo, int hi, const char* what) {
    if (lo < 0 || lo > hi) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        std::string("MutationConfig: bad ") +
                        what + " range [" + std::to_string(lo) +
                        ", " + std::to_string(hi) + "]");
    }
  };
  check(c.min_imm_tweaks, c.max_imm_tweaks, "imm-tweak");
  check(c.min_straight_insertions, c.max_straight_insertions,
        "straight-insertion");
  check(c.min_diamond_insertions, c.max_diamond_insertions,
        "diamond-insertion");
  check(c.min_helper_functions, c.max_helper_functions, "helper-function");
  if (c.min_helper_ops < 1 || c.min_helper_ops > c.max_helper_ops) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "MutationConfig: bad helper-op range");
  }
}

namespace {

constexpr Opcode kStraightOps[] = {Opcode::kMovImm, Opcode::kAdd,
                                   Opcode::kXor,    Opcode::kAnd,
                                   Opcode::kOr,     Opcode::kLoad,
                                   Opcode::kStore,  Opcode::kSyscall};

// Inserted code must not clobber live control state: r1 is the code
// generator's loop counter, r14/r15 are reserved by the obfuscation and
// GEA guards. Mutations write only r2..r13, like a compiler allocating
// around live ranges.
constexpr std::uint8_t kFirstScratchRegister = 2;
constexpr std::uint8_t kScratchRegisterCount = 12;

AsmItem straight_item(math::Rng& rng) {
  AsmItem item;
  item.kind = AsmItem::Kind::kInstruction;
  item.insn.opcode = kStraightOps[rng.index(std::size(kStraightOps))];
  item.insn.reg = static_cast<std::uint8_t>(
      kFirstScratchRegister + rng.index(kScratchRegisterCount));
  item.insn.imm = static_cast<std::int16_t>(rng.uniform_int(0, 255));
  return item;
}

}  // namespace

AsmProgram mutate_program(const AsmProgram& program,
                          const MutationConfig& config, math::Rng& rng) {
  validate(config);
  const auto& items = program.items();

  // Instruction positions (insertions only go before instructions, so a
  // label definition keeps binding to the instruction after it).
  // Positions directly after a cmp/cmpi are excluded: an insertion
  // there could clobber the flags a following conditional branch reads,
  // changing program behaviour (mutations must preserve executability
  // and rough semantics, like real malware forks do).
  std::vector<std::size_t> instruction_positions;
  const Instruction* previous_instruction = nullptr;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].kind == AsmItem::Kind::kLabelDef) continue;
    const bool after_compare =
        previous_instruction != nullptr &&
        (previous_instruction->opcode == Opcode::kCmp ||
         previous_instruction->opcode == Opcode::kCmpImm);
    if (!after_compare) instruction_positions.push_back(i);
    previous_instruction = &items[i].insn;
  }

  // Planned insertions: item index -> sequences to splice in before it.
  std::map<std::size_t, std::vector<std::vector<AsmItem>>> insertions;
  std::size_t mutation_label = 0;
  const auto fresh = [&mutation_label](const char* prefix) {
    return std::string("mut") + prefix + "$" +
           std::to_string(mutation_label++);
  };

  if (!instruction_positions.empty()) {
    const auto pick_position = [&] {
      return instruction_positions[rng.index(instruction_positions.size())];
    };

    const int straight = static_cast<int>(rng.uniform_int(
        config.min_straight_insertions, config.max_straight_insertions));
    for (int i = 0; i < straight; ++i) {
      insertions[pick_position()].push_back({straight_item(rng)});
    }

    const int diamonds = static_cast<int>(rng.uniform_int(
        config.min_diamond_insertions, config.max_diamond_insertions));
    for (int i = 0; i < diamonds; ++i) {
      const std::string skip = fresh("skip");
      std::vector<AsmItem> seq;
      AsmItem cmp;
      cmp.kind = AsmItem::Kind::kInstruction;
      cmp.insn = Instruction{
          Opcode::kCmpImm,
          static_cast<std::uint8_t>(kFirstScratchRegister +
                                    rng.index(kScratchRegisterCount)),
          static_cast<std::int16_t>(rng.uniform_int(0, 99))};
      seq.push_back(cmp);
      AsmItem branch;
      branch.kind = AsmItem::Kind::kLabelRef;
      branch.insn = Instruction{Opcode::kJz, 0, 0};
      branch.label = skip;
      seq.push_back(branch);
      const int body = static_cast<int>(rng.uniform_int(1, 3));
      for (int b = 0; b < body; ++b) seq.push_back(straight_item(rng));
      AsmItem def;
      def.kind = AsmItem::Kind::kLabelDef;
      def.label = skip;
      seq.push_back(def);
      insertions[pick_position()].push_back(std::move(seq));
    }

    const int helpers = static_cast<int>(rng.uniform_int(
        config.min_helper_functions, config.max_helper_functions));
    for (int i = 0; i < helpers; ++i) {
      const std::string name = fresh("fn");
      AsmItem call;
      call.kind = AsmItem::Kind::kLabelRef;
      call.insn = Instruction{Opcode::kCall, 0, 0};
      call.label = name;
      insertions[pick_position()].push_back({call});
      // The helper body is appended after the last item.
      std::vector<AsmItem> body;
      AsmItem def;
      def.kind = AsmItem::Kind::kLabelDef;
      def.label = name;
      body.push_back(def);
      const int ops = static_cast<int>(
          rng.uniform_int(config.min_helper_ops, config.max_helper_ops));
      for (int b = 0; b < ops; ++b) body.push_back(straight_item(rng));
      AsmItem ret;
      ret.kind = AsmItem::Kind::kInstruction;
      ret.insn = Instruction{Opcode::kRet, 0, 0};
      body.push_back(ret);
      insertions[items.size()].push_back(std::move(body));
    }
  }

  // Immediate tweaks only touch instructions whose immediate is a true
  // data constant. Register-register ALU ops encode their *source
  // register* in the immediate (tweaking one rewires dataflow and can
  // break loop decrements), and cmp immediates feed branch decisions —
  // both are excluded so mutated programs keep terminating.
  const auto is_tweakable = [](Opcode op) {
    switch (op) {
      case Opcode::kMovImm:
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kSyscall:
        return true;
      default:
        return false;
    }
  };
  std::vector<std::size_t> tweakable;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].kind == AsmItem::Kind::kInstruction &&
        is_tweakable(items[i].insn.opcode)) {
      tweakable.push_back(i);
    }
  }
  std::vector<std::pair<std::size_t, std::int16_t>> tweaks;
  if (!tweakable.empty()) {
    const int count = static_cast<int>(
        rng.uniform_int(config.min_imm_tweaks, config.max_imm_tweaks));
    for (int i = 0; i < count; ++i) {
      tweaks.emplace_back(tweakable[rng.index(tweakable.size())],
                          static_cast<std::int16_t>(rng.uniform_int(0, 255)));
    }
  }

  // Rebuild with splices applied.
  AsmProgram mutated;
  const auto emit_item = [&mutated](const AsmItem& item) {
    switch (item.kind) {
      case AsmItem::Kind::kInstruction:
        mutated.emit(item.insn);
        break;
      case AsmItem::Kind::kLabelRef:
        mutated.emit_branch(item.insn.opcode, item.label, item.insn.reg);
        break;
      case AsmItem::Kind::kLabelDef:
        mutated.define_label(item.label);
        break;
    }
  };
  for (std::size_t i = 0; i <= items.size(); ++i) {
    if (const auto it = insertions.find(i); it != insertions.end()) {
      for (const auto& seq : it->second) {
        for (const auto& item : seq) emit_item(item);
      }
    }
    if (i == items.size()) break;
    AsmItem item = items[i];
    for (const auto& [index, imm] : tweaks) {
      if (index == i) item.insn.imm = imm;
    }
    emit_item(item);
  }
  return mutated;
}

}  // namespace soteria::isa
