// Scalar (single-issue, operation-triggered) backend: the MicroBlaze
// stand-in. Sequential code generation from the shared machine-level form,
// a 32-bit fixed-width encoder with an IMM-prefix word for wide immediates
// (as MicroBlaze does), and an in-order pipeline timing simulator
// parameterized by mach::ScalarTiming (3-stage vs 5-stage models).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codegen/lower.hpp"
#include "ir/memory.hpp"
#include "ir/module.hpp"
#include "mach/machine.hpp"
#include "sim/observer.hpp"
#include "sim/snapshot.hpp"

namespace ttsc::sim {
struct PredecodedScalar;
}

namespace ttsc::scalar {

struct ScalarProgram {
  std::vector<codegen::MInstr> instrs;
  std::vector<std::uint32_t> block_entry;  // block id -> instruction index
  std::uint32_t spill_base = 0;

  /// Number of 32-bit instruction words, including IMM prefixes and
  /// (without a barrel shifter) expanded shift sequences.
  std::uint64_t code_words(const mach::ScalarTiming& timing) const;
  /// Program image size in bits (Table II reports total program bits).
  std::uint64_t image_bits(const mach::ScalarTiming& timing) const {
    return code_words(timing) * 32;
  }
  static constexpr int kInstrBits = 32;
};

/// Immediates representable without an IMM prefix word.
bool fits_short_imm(std::int32_t value);

/// Instruction words for one operation: 1 plus an IMM prefix when a wide
/// immediate is used; without a barrel shifter, constant shifts expand into
/// single-bit sequences (capped). Shared with the simulator predecoder.
int instr_words(const mach::ScalarTiming& timing, const codegen::MInstr& in);

/// Extra cycles when `op`'s result feeds the immediately following use
/// (load-use / multiply / shift stalls of mach::ScalarTiming).
int dependent_use_stall(const mach::ScalarTiming& timing, ir::Opcode op);

/// Linearize an MFunction into a scalar instruction stream. Jumps to the
/// immediately following block are elided (fallthrough).
ScalarProgram emit_scalar(const codegen::MFunction& func);

using ExecResult = sim::ExecResult;

/// Cycle-approximate in-order pipeline simulation: functional execution plus
/// the hazard/penalty model of mach::ScalarTiming (forwarding, load-use /
/// multiply / shift stalls, taken-branch penalty, IMM prefix cycles).
///
/// run() executes a predecoded instruction form (sim/predecode.hpp);
/// run_reference() is the original interpretive loop, which produces
/// bit-identical ExecResults.
class ScalarSim {
 public:
  ScalarSim(const ScalarProgram& program, const mach::Machine& machine, ir::Memory& memory,
            sim::SimOptions options = {});
  ~ScalarSim();

  /// Reuse an externally predecoded program (e.g. from sim::Engine) instead
  /// of predecoding on first run.
  void use_predecoded(std::shared_ptr<const sim::PredecodedScalar> predecoded);

  ExecResult run(std::uint64_t max_cycles = 2'000'000'000ull);

  /// run() from `from`'s machine state (nullptr: cycle 0) on this
  /// simulator's memory, which must already hold the image at `from`. A run
  /// still going at the first instruction boundary at or past `stop_at`
  /// stops there and returns its machine state; the snapshot's memory
  /// fields stay empty (sim::Engine fills them).
  sim::Segment run(std::uint64_t max_cycles, const sim::Snapshot* from, std::uint64_t stop_at);

  /// The interpretive reference loop: the oracle the tests hold run() to.
  ExecResult run_reference(std::uint64_t max_cycles = 2'000'000'000ull);

 private:
  template <bool kObserve, bool kHarden, bool kProfile>
  sim::Segment run_fast(std::uint64_t max_cycles, const sim::Snapshot* from,
                        std::uint64_t stop_at);

  const ScalarProgram& program_;
  const mach::Machine& machine_;
  ir::Memory& mem_;
  sim::SimOptions options_;
  std::shared_ptr<const sim::PredecodedScalar> predecoded_;
};

}  // namespace ttsc::scalar
