// SIR-32 virtual machine.
//
// Executes firmware images so the *practicality* requirement of the
// paper's threat model is checkable, not assumed: a practical AE "should
// still be executable (undamaged)". Tests run every generated sample,
// every mutated variant, and every binary-level GEA combination through
// the VM and assert clean termination.
//
// The machine: 16 registers, a data memory, a call/data stack, and
// zero/negative flags from cmp. Syscalls are counted, not performed.
// Execution is bounded by a step budget; loops in generated code are
// data-driven and terminate, but adversarially crafted inputs may not,
// so the budget distinguishes kHalted / kStepLimit / kFault outcomes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "isa/isa.h"

namespace soteria::isa {

/// Why execution stopped.
enum class VmStatus : std::uint8_t {
  kHalted = 0,     ///< reached halt at top level (clean termination)
  kStepLimit = 1,  ///< budget exhausted (possibly non-terminating)
  kFault = 2,      ///< jump out of image, stack underflow/overflow, ...
};

/// Name for diagnostics.
[[nodiscard]] const char* vm_status_name(VmStatus status) noexcept;

/// Execution summary.
struct VmResult {
  VmStatus status = VmStatus::kFault;
  std::uint64_t steps = 0;           ///< instructions retired
  std::uint64_t syscalls = 0;        ///< syscall instructions seen
  std::uint64_t max_call_depth = 0;  ///< deepest call nesting reached
  std::size_t faulting_index = 0;    ///< instruction index of a fault
  /// With VmConfig::record_hotspots: (instruction index, visit count)
  /// for the most-executed instructions, hottest first.
  std::vector<std::pair<std::size_t, std::uint64_t>> hotspots;
};

/// VM limits.
struct VmConfig {
  std::uint64_t max_steps = 1'000'000;
  std::size_t stack_limit = 4096;     ///< max stack slots
  std::size_t memory_words = 65536;   ///< data memory size
  bool record_hotspots = false;       ///< collect VmResult::hotspots
  std::size_t hotspot_count = 8;      ///< how many to report
};

/// Runs `image` from instruction 0 until halt, fault, or budget
/// exhaustion. Throws core::Error{kInvalidArgument} for an empty or ragged
/// image.
[[nodiscard]] VmResult execute(std::span<const std::uint8_t> image,
                               const VmConfig& config = {});

}  // namespace soteria::isa
