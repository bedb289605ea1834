#include "isa/vm.h"

#include <gtest/gtest.h>

#include "dataset/family_profiles.h"
#include "expect_error.h"
#include "isa/assembler.h"
#include "isa/codegen.h"
#include "isa/mutate.h"

namespace soteria::isa {
namespace {

std::vector<std::uint8_t> assemble_program(
    const std::function<void(AsmProgram&)>& build) {
  AsmProgram p;
  build(p);
  return assemble(p);
}

TEST(Vm, HaltTerminatesCleanly) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kMovImm, 0, 42);
    p.emit(Opcode::kHalt);
  });
  const auto result = execute(image);
  EXPECT_EQ(result.status, VmStatus::kHalted);
  EXPECT_EQ(result.steps, 2U);
}

TEST(Vm, EmptyImageThrows) {
  EXPECT_ERROR((void)execute(std::vector<std::uint8_t>{}),
               core::ErrorCode::kInvalidArgument);
}

TEST(Vm, LoopRunsToCompletion) {
  // r1 = 5; while (r1 != 0) r1 -= r2(=1);
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kMovImm, 2, 1);
    p.emit(Opcode::kMovImm, 1, 5);
    p.define_label("head");
    p.emit(Opcode::kCmpImm, 1, 0);
    p.emit_branch(Opcode::kJz, "end");
    p.emit(Opcode::kSub, 1, 2);
    p.emit_branch(Opcode::kJmp, "head");
    p.define_label("end");
    p.emit(Opcode::kHalt);
  });
  const auto result = execute(image);
  EXPECT_EQ(result.status, VmStatus::kHalted);
  // 2 setup + 5 * (cmp, jz, sub, jmp) + final (cmp, jz) + halt.
  EXPECT_EQ(result.steps, 2 + 5 * 4 + 2 + 1U);
}

TEST(Vm, InfiniteLoopHitsStepLimit) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.define_label("spin");
    p.emit_branch(Opcode::kJmp, "spin");
  });
  VmConfig config;
  config.max_steps = 1000;
  const auto result = execute(image, config);
  EXPECT_EQ(result.status, VmStatus::kStepLimit);
  EXPECT_EQ(result.steps, 1000U);
}

TEST(Vm, CallAndRetNest) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit_branch(Opcode::kCall, "f");
    p.emit(Opcode::kHalt);
    p.define_label("f");
    p.emit_branch(Opcode::kCall, "g");
    p.emit(Opcode::kRet);
    p.define_label("g");
    p.emit(Opcode::kRet);
  });
  const auto result = execute(image);
  EXPECT_EQ(result.status, VmStatus::kHalted);
  EXPECT_EQ(result.max_call_depth, 2U);
}

TEST(Vm, RetWithoutCallFaults) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kRet);
  });
  const auto result = execute(image);
  EXPECT_EQ(result.status, VmStatus::kFault);
  EXPECT_EQ(result.faulting_index, 0U);
}

TEST(Vm, PopOnEmptyStackFaults) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kPop, 3);
    p.emit(Opcode::kHalt);
  });
  EXPECT_EQ(execute(image).status, VmStatus::kFault);
}

TEST(Vm, PushPopRoundTrips) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kMovImm, 0, 7);
    p.emit(Opcode::kPush, 0);
    p.emit(Opcode::kMovImm, 0, 9);
    p.emit(Opcode::kPop, 1);
    p.emit(Opcode::kCmpImm, 1, 7);
    p.emit_branch(Opcode::kJz, "ok");
    p.emit(Opcode::kRet);  // would fault if the pop was wrong
    p.define_label("ok");
    p.emit(Opcode::kHalt);
  });
  EXPECT_EQ(execute(image).status, VmStatus::kHalted);
}

TEST(Vm, UnboundedRecursionFaultsOnStackLimit) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.define_label("f");
    p.emit_branch(Opcode::kCall, "f");
  });
  VmConfig config;
  config.stack_limit = 64;
  const auto result = execute(image, config);
  EXPECT_EQ(result.status, VmStatus::kFault);
}

TEST(Vm, SyscallsAreCounted) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kSyscall, 0, 1);
    p.emit(Opcode::kSyscall, 0, 2);
    p.emit(Opcode::kHalt);
  });
  EXPECT_EQ(execute(image).syscalls, 2U);
}

TEST(Vm, MemoryLoadStoreWrapsAddresses) {
  const auto image = assemble_program([](AsmProgram& p) {
    p.emit(Opcode::kMovImm, 0, 123);
    p.emit(Opcode::kMovImm, 2, 40);
    p.emit(Opcode::kStore, 0, 2);   // mem[r2 + 2] = r0
    p.emit(Opcode::kLoad, 1, 2);    // r1 = mem[r2 + 2]
    p.emit(Opcode::kCmpImm, 1, 123);
    p.emit_branch(Opcode::kJz, "ok");
    p.emit(Opcode::kRet);  // fault path
    p.define_label("ok");
    p.emit(Opcode::kHalt);
  });
  EXPECT_EQ(execute(image).status, VmStatus::kHalted);
}

TEST(Vm, StatusNames) {
  EXPECT_STREQ(vm_status_name(VmStatus::kHalted), "halted");
  EXPECT_STREQ(vm_status_name(VmStatus::kStepLimit), "step-limit");
  EXPECT_STREQ(vm_status_name(VmStatus::kFault), "fault");
}

// The practicality invariant: every generated firmware sample runs to a
// clean halt, and so does every mutated variant.
class FamilyExecution
    : public ::testing::TestWithParam<soteria::dataset::Family> {};

TEST_P(FamilyExecution, GeneratedProgramsHalt) {
  math::Rng rng(101);
  const auto profile = dataset::profile_for(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const auto binary = generate_binary(profile, rng);
    const auto result = execute(binary);
    EXPECT_EQ(result.status, VmStatus::kHalted)
        << "trial " << trial << ": " << vm_status_name(result.status);
  }
}

TEST_P(FamilyExecution, MutatedProgramsStillHalt) {
  math::Rng rng(202);
  const auto profile = dataset::profile_for(GetParam());
  MutationConfig mutation;
  mutation.max_diamond_insertions = 2;
  mutation.max_helper_functions = 1;
  for (int trial = 0; trial < 5; ++trial) {
    const auto program = generate_program(profile, rng);
    const auto mutated = mutate_program(program, mutation, rng);
    const auto result = execute(assemble(mutated));
    EXPECT_EQ(result.status, VmStatus::kHalted)
        << "trial " << trial << ": " << vm_status_name(result.status);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyExecution,
    ::testing::Values(soteria::dataset::Family::kBenign,
                      soteria::dataset::Family::kGafgyt,
                      soteria::dataset::Family::kMirai,
                      soteria::dataset::Family::kTsunami),
    [](const auto& info) {
      return soteria::dataset::family_name(info.param);
    });

}  // namespace
}  // namespace soteria::isa
