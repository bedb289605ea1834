#include "isa/assembler.h"

#include <gtest/gtest.h>

#include "expect_error.h"

namespace soteria::isa {
namespace {

TEST(Assembler, EmitsPlainInstructions) {
  AsmProgram p;
  p.emit(Opcode::kMovImm, 1, 42);
  p.emit(Opcode::kHalt);
  const auto image = assemble(p);
  ASSERT_EQ(image.size(), 2 * kInstructionSize);
  const auto insns = disassemble(image);
  EXPECT_EQ(insns[0].opcode, Opcode::kMovImm);
  EXPECT_EQ(insns[0].imm, 42);
  EXPECT_EQ(insns[1].opcode, Opcode::kHalt);
}

TEST(Assembler, ResolvesForwardLabel) {
  AsmProgram p;
  p.emit_branch(Opcode::kJmp, "end");
  p.emit(Opcode::kNop);
  p.define_label("end");
  p.emit(Opcode::kHalt);
  const auto insns = disassemble(assemble(p));
  // jmp at 0, target at 2: offset = 2 - (0 + 1) = 1.
  EXPECT_EQ(insns[0].imm, 1);
}

TEST(Assembler, ResolvesBackwardLabel) {
  AsmProgram p;
  p.define_label("loop");
  p.emit(Opcode::kCmpImm, 1, 0);
  p.emit_branch(Opcode::kJnz, "loop");
  p.emit(Opcode::kHalt);
  const auto insns = disassemble(assemble(p));
  // jnz at 1, target 0: offset = 0 - 2 = -2.
  EXPECT_EQ(insns[1].imm, -2);
}

TEST(Assembler, LabelAtSameInstructionIsZeroMinusOne) {
  AsmProgram p;
  p.define_label("self");
  p.emit_branch(Opcode::kJmp, "self");
  const auto insns = disassemble(assemble(p));
  EXPECT_EQ(insns[0].imm, -1);  // jumps back to itself
}

TEST(Assembler, UndefinedLabelThrows) {
  AsmProgram p;
  p.emit_branch(Opcode::kJmp, "nowhere");
  EXPECT_ERROR((void)assemble(p), core::ErrorCode::kInvalidArgument);
}

TEST(Assembler, DuplicateLabelThrowsAtDefinition) {
  AsmProgram p;
  p.define_label("x");
  EXPECT_ERROR(p.define_label("x"), core::ErrorCode::kInvalidArgument);
}

TEST(Assembler, BranchWithNonControlFlowOpcodeThrows) {
  AsmProgram p;
  EXPECT_ERROR(p.emit_branch(Opcode::kAdd, "x"),
               core::ErrorCode::kInvalidArgument);
}

TEST(Assembler, FreshLabelsAreUnique) {
  AsmProgram p;
  const auto a = p.fresh_label("L");
  const auto b = p.fresh_label("L");
  EXPECT_NE(a, b);
}

TEST(Assembler, InstructionCountIgnoresLabels) {
  AsmProgram p;
  p.define_label("a");
  p.emit(Opcode::kNop);
  p.define_label("b");
  p.emit(Opcode::kHalt);
  EXPECT_EQ(p.instruction_count(), 2U);
}

TEST(Assembler, AppendMergesPrograms) {
  AsmProgram a;
  a.emit(Opcode::kNop);
  AsmProgram b;
  b.define_label("f");
  b.emit(Opcode::kRet);
  a.append(b);
  EXPECT_EQ(a.instruction_count(), 2U);
  const auto insns = disassemble(assemble(a));
  EXPECT_EQ(insns[1].opcode, Opcode::kRet);
}

TEST(Assembler, AppendDetectsLabelCollision) {
  AsmProgram a;
  a.define_label("f");
  AsmProgram b;
  b.define_label("f");
  EXPECT_ERROR(a.append(b), core::ErrorCode::kInvalidArgument);
}

TEST(Assembler, OffsetOverflowThrows) {
  AsmProgram p;
  p.emit_branch(Opcode::kJmp, "far");
  for (int i = 0; i < 40000; ++i) p.emit(Opcode::kNop);
  p.define_label("far");
  p.emit(Opcode::kHalt);
  EXPECT_ERROR((void)assemble(p), core::ErrorCode::kOutOfRange);
}

}  // namespace
}  // namespace soteria::isa
