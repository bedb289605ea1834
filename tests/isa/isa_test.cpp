#include "isa/isa.h"

#include <gtest/gtest.h>

#include "expect_error.h"

namespace soteria::isa {
namespace {

const Opcode kAllOpcodes[] = {
    Opcode::kNop,    Opcode::kHalt,   Opcode::kMovImm, Opcode::kMovReg,
    Opcode::kAdd,    Opcode::kSub,    Opcode::kMul,    Opcode::kXor,
    Opcode::kAnd,    Opcode::kOr,     Opcode::kShl,    Opcode::kShr,
    Opcode::kCmp,    Opcode::kCmpImm, Opcode::kLoad,   Opcode::kStore,
    Opcode::kPush,   Opcode::kPop,    Opcode::kJmp,    Opcode::kJz,
    Opcode::kJnz,    Opcode::kJlt,    Opcode::kJge,    Opcode::kCall,
    Opcode::kRet,    Opcode::kSyscall};

class OpcodeRoundTrip : public ::testing::TestWithParam<Opcode> {};

TEST_P(OpcodeRoundTrip, EncodeDecodeIsIdentity) {
  const Instruction original{GetParam(), 7, -1234};
  const auto bytes = encode(original);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST_P(OpcodeRoundTrip, OpcodeIsValid) {
  EXPECT_TRUE(is_valid_opcode(static_cast<std::uint8_t>(GetParam())));
}

TEST_P(OpcodeRoundTrip, MnemonicNonEmpty) {
  EXPECT_FALSE(mnemonic(GetParam()).empty());
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeRoundTrip,
                         ::testing::ValuesIn(kAllOpcodes));

TEST(Isa, ControlFlowClassification) {
  EXPECT_TRUE(is_control_flow(Opcode::kJmp));
  EXPECT_TRUE(is_control_flow(Opcode::kCall));
  EXPECT_FALSE(is_control_flow(Opcode::kRet));  // target-less
  EXPECT_FALSE(is_control_flow(Opcode::kAdd));

  EXPECT_TRUE(is_conditional_branch(Opcode::kJz));
  EXPECT_TRUE(is_conditional_branch(Opcode::kJge));
  EXPECT_FALSE(is_conditional_branch(Opcode::kJmp));
  EXPECT_FALSE(is_conditional_branch(Opcode::kCall));

  EXPECT_TRUE(ends_basic_block(Opcode::kRet));
  EXPECT_TRUE(ends_basic_block(Opcode::kHalt));
  EXPECT_TRUE(ends_basic_block(Opcode::kJnz));
  EXPECT_FALSE(ends_basic_block(Opcode::kMovImm));
}

TEST(Isa, InvalidOpcodeDecodesToNothing) {
  const std::vector<std::uint8_t> bytes{0xFF, 0x00, 0x00, 0x00};
  EXPECT_FALSE(decode(bytes).has_value());
  EXPECT_FALSE(is_valid_opcode(0xFF));
  EXPECT_FALSE(is_valid_opcode(0x02));
}

TEST(Isa, DecodeRequiresFourBytes) {
  const std::vector<std::uint8_t> bytes{0x00, 0x00};
  EXPECT_ERROR((void)decode(bytes), core::ErrorCode::kInvalidArgument);
}

TEST(Isa, ImmediateIsLittleEndianSigned) {
  const Instruction insn{Opcode::kJmp, 0, -2};
  const auto bytes = encode(insn);
  EXPECT_EQ(bytes[2], 0xFE);
  EXPECT_EQ(bytes[3], 0xFF);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, -2);
}

TEST(Isa, DisassembleRoundTripsLength) {
  std::vector<std::uint8_t> image;
  encode_to(Instruction{Opcode::kMovImm, 1, 5}, image);
  encode_to(Instruction{Opcode::kJmp, 0, -1}, image);
  encode_to(Instruction{Opcode::kHalt, 0, 0}, image);
  const auto insns = disassemble(image);
  ASSERT_EQ(insns.size(), 3U);
  EXPECT_EQ(insns[0].opcode, Opcode::kMovImm);
  EXPECT_EQ(insns[1].imm, -1);
  EXPECT_EQ(insns[2].opcode, Opcode::kHalt);
}

TEST(Isa, DisassembleTreatsUnknownWordsAsData) {
  const std::vector<std::uint8_t> image{0xAB, 0x01, 0x02, 0x03};
  const auto insns = disassemble(image);
  ASSERT_EQ(insns.size(), 1U);
  EXPECT_EQ(insns[0].opcode, Opcode::kNop);
}

TEST(Isa, DisassembleRejectsRaggedImages) {
  const std::vector<std::uint8_t> image{0x00, 0x00, 0x00};
  EXPECT_ERROR((void)disassemble(image), core::ErrorCode::kInvalidArgument);
}

TEST(Isa, ToStringShowsAbsoluteTargets) {
  // jmp at index 5 with imm +2 targets instruction 8.
  const Instruction jmp{Opcode::kJmp, 0, 2};
  EXPECT_EQ(to_string(jmp, 5), "jmp @8");
  const Instruction mov{Opcode::kMovImm, 3, 42};
  EXPECT_EQ(to_string(mov, 0), "mov r3, 42");
  EXPECT_EQ(to_string(Instruction{Opcode::kRet, 0, 0}, 9), "ret");
}

}  // namespace
}  // namespace soteria::isa
