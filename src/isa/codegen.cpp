#include "isa/codegen.h"

#include "soteria/error.h"

namespace soteria::isa {

namespace {

constexpr std::uint8_t kTempReg = 1;  // loop counters / switch selector

/// Generation context threaded through the recursive construct emitter.
struct GenContext {
  const CodeGenProfile& profile;
  math::Rng& rng;
  AsmProgram& program;
  std::vector<std::vector<int>>& pending_calls;  // per function
  int current_function = 0;
};

std::string function_label(int index) {
  return "fn" + std::to_string(index);
}

void emit_random_alu(GenContext& ctx) {
  // kPush/kPop are deliberately excluded: an unpaired pop faults the
  // VM, and generated firmware must always execute cleanly (the
  // paper's practicality requirement, enforced by tests via
  // isa::execute).
  static constexpr Opcode kAluOps[] = {
      Opcode::kMovImm, Opcode::kMovReg, Opcode::kAdd,  Opcode::kSub,
      Opcode::kMul,    Opcode::kXor,    Opcode::kAnd,  Opcode::kOr,
      Opcode::kShl,    Opcode::kShr,    Opcode::kLoad, Opcode::kStore,
      Opcode::kSyscall};
  const Opcode op =
      kAluOps[ctx.rng.index(std::size(kAluOps))];
  const auto reg =
      static_cast<std::uint8_t>(ctx.rng.index(kRegisterCount));
  const auto imm = static_cast<std::int16_t>(ctx.rng.uniform_int(0, 255));
  ctx.program.emit(op, reg, imm);
}

// Pops and emits one pending mandatory call for the current function,
// if any remain; otherwise emits a call to a random *later* function.
// Calls only ever target higher indices, so the call graph is acyclic
// and every generated program terminates (isa::execute relies on this).
void emit_call_site(GenContext& ctx, int function_count) {
  auto& pending = ctx.pending_calls[ctx.current_function];
  int target;
  if (!pending.empty()) {
    target = pending.back();
    pending.pop_back();
  } else {
    const int first_later = ctx.current_function + 1;
    if (first_later >= function_count) return;
    target = static_cast<int>(
        ctx.rng.uniform_int(first_later, function_count - 1));
  }
  ctx.program.emit_branch(Opcode::kCall, function_label(target));
}

void emit_straight_block(GenContext& ctx) {
  const int ops = static_cast<int>(ctx.rng.uniform_int(
      ctx.profile.min_straight, ctx.profile.max_straight));
  for (int i = 0; i < ops; ++i) emit_random_alu(ctx);
}

void emit_construct(GenContext& ctx, int function_count, int depth);

// Body of a branch arm / loop / switch case: either a nested construct
// or a straight-line block.
void emit_body(GenContext& ctx, int function_count, int depth) {
  if (depth < ctx.profile.max_nesting_depth &&
      ctx.rng.bernoulli(ctx.profile.nest_probability)) {
    emit_construct(ctx, function_count, depth + 1);
  } else {
    emit_straight_block(ctx);
  }
  if (ctx.rng.bernoulli(ctx.profile.call_probability)) {
    emit_call_site(ctx, function_count);
  }
}

void emit_branch_diamond(GenContext& ctx, int function_count, int depth) {
  const std::string else_l = ctx.program.fresh_label("else");
  const std::string end_l = ctx.program.fresh_label("endif");
  ctx.program.emit(Opcode::kCmpImm, kTempReg,
                   static_cast<std::int16_t>(ctx.rng.uniform_int(0, 99)));
  ctx.program.emit_branch(Opcode::kJz, else_l);
  emit_body(ctx, function_count, depth);
  if (ctx.rng.bernoulli(ctx.profile.early_ret_probability) &&
      ctx.current_function != 0) {
    ctx.program.emit(Opcode::kRet);
  } else {
    ctx.program.emit_branch(Opcode::kJmp, end_l);
  }
  ctx.program.define_label(else_l);
  emit_body(ctx, function_count, depth);
  ctx.program.define_label(end_l);
}

void emit_loop(GenContext& ctx, int function_count, int depth) {
  const std::string head_l = ctx.program.fresh_label("loop");
  const std::string end_l = ctx.program.fresh_label("endloop");
  ctx.program.emit(Opcode::kMovImm, kTempReg,
                   static_cast<std::int16_t>(ctx.rng.uniform_int(1, 64)));
  ctx.program.define_label(head_l);
  ctx.program.emit(Opcode::kCmpImm, kTempReg, 0);
  ctx.program.emit_branch(Opcode::kJz, end_l);
  emit_body(ctx, function_count, depth);
  ctx.program.emit(Opcode::kSub, kTempReg, 1);
  ctx.program.emit_branch(Opcode::kJmp, head_l);
  ctx.program.define_label(end_l);
}

void emit_switch(GenContext& ctx, int function_count, int depth) {
  const std::string end_l = ctx.program.fresh_label("endswitch");
  const int cases = static_cast<int>(ctx.rng.uniform_int(
      ctx.profile.min_switch_cases, ctx.profile.max_switch_cases));
  for (int c = 0; c < cases; ++c) {
    const std::string next_l = ctx.program.fresh_label("case");
    ctx.program.emit(Opcode::kCmpImm, kTempReg,
                     static_cast<std::int16_t>(c));
    ctx.program.emit_branch(Opcode::kJnz, next_l);
    emit_body(ctx, function_count, depth);
    ctx.program.emit_branch(Opcode::kJmp, end_l);
    ctx.program.define_label(next_l);
  }
  emit_straight_block(ctx);  // default arm
  ctx.program.define_label(end_l);
}

void emit_construct(GenContext& ctx, int function_count, int depth) {
  const double total = ctx.profile.straight_weight +
                       ctx.profile.branch_weight + ctx.profile.loop_weight +
                       ctx.profile.switch_weight;
  double pick = ctx.rng.uniform(0.0, total);
  if ((pick -= ctx.profile.straight_weight) < 0.0) {
    emit_straight_block(ctx);
    if (ctx.rng.bernoulli(ctx.profile.call_probability)) {
      emit_call_site(ctx, function_count);
    }
  } else if ((pick -= ctx.profile.branch_weight) < 0.0) {
    emit_branch_diamond(ctx, function_count, depth);
  } else if ((pick -= ctx.profile.loop_weight) < 0.0) {
    emit_loop(ctx, function_count, depth);
  } else {
    emit_switch(ctx, function_count, depth);
  }
}

}  // namespace

void validate(const CodeGenProfile& p) {
  auto check_range = [](int lo, int hi, const char* what) {
    if (lo < 1 || lo > hi) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        std::string("CodeGenProfile: bad ") +
                        what + " range [" + std::to_string(lo) +
                        ", " + std::to_string(hi) + "]");
    }
  };
  check_range(p.min_functions, p.max_functions, "function");
  check_range(p.min_constructs, p.max_constructs, "construct");
  check_range(p.min_straight, p.max_straight, "straight-block");
  check_range(p.min_switch_cases, p.max_switch_cases, "switch-case");
  auto check_prob = [](double v, const char* what) {
    if (v < 0.0 || v > 1.0) {
      throw core::Error(core::ErrorCode::kInvalidArgument,
                        std::string("CodeGenProfile: ") + what +
                        " outside [0,1]");
    }
  };
  check_prob(p.nest_probability, "nest_probability");
  check_prob(p.call_probability, "call_probability");
  check_prob(p.early_ret_probability, "early_ret_probability");
  const double total = p.straight_weight + p.branch_weight +
                       p.loop_weight + p.switch_weight;
  if (p.straight_weight < 0.0 || p.branch_weight < 0.0 ||
      p.loop_weight < 0.0 || p.switch_weight < 0.0 || total <= 0.0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "CodeGenProfile: construct weights must be "
                      "non-negative with a positive sum");
  }
  if (p.max_nesting_depth < 0) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "CodeGenProfile: negative nesting depth");
  }
}

AsmProgram generate_program(const CodeGenProfile& profile, math::Rng& rng) {
  validate(profile);
  const int function_count = static_cast<int>(
      rng.uniform_int(profile.min_functions, profile.max_functions));

  // Call plan: every function i > 0 is called from some j < i, making
  // the whole call graph reachable from main (function 0).
  std::vector<std::vector<int>> pending_calls(function_count);
  for (int i = 1; i < function_count; ++i) {
    const int caller = static_cast<int>(rng.index(i));
    pending_calls[caller].push_back(i);
  }

  AsmProgram program;
  GenContext ctx{profile, rng, program, pending_calls, 0};

  for (int f = 0; f < function_count; ++f) {
    ctx.current_function = f;
    program.define_label(function_label(f));
    const int constructs = static_cast<int>(rng.uniform_int(
        profile.min_constructs, profile.max_constructs));
    for (int c = 0; c < constructs; ++c) {
      emit_construct(ctx, function_count, 0);
    }
    // Flush mandatory calls that body generation did not consume, so the
    // call plan's reachability guarantee holds.
    while (!pending_calls[f].empty()) {
      const int target = pending_calls[f].back();
      pending_calls[f].pop_back();
      program.emit_branch(Opcode::kCall, function_label(target));
    }
    program.emit(f == 0 ? Opcode::kHalt : Opcode::kRet);
  }
  return program;
}

std::vector<std::uint8_t> generate_binary(const CodeGenProfile& profile,
                                          math::Rng& rng) {
  return assemble(generate_program(profile, rng));
}

}  // namespace soteria::isa
