// Transport-Triggered Architecture backend: the paper's primary subject.
//
// Programs are sequences of instructions, each a set of parallel moves over
// the machine's transport buses (Section III). Operations fire as a side
// effect of moving an operand to an FU trigger port. The scheduler applies
// the TTA-specific freedoms the paper measures:
//
//  * software bypassing     — route an FU result register directly to a
//                             consumer port, skipping the RF and saving the
//                             write-back + read-back cycle (Section III-B);
//  * dead-result-move elimination — when every consumer was bypassed and
//                             the value is not live out of the block, the
//                             RF write move disappears entirely, relieving
//                             RF write-port pressure;
//  * operand sharing        — an immediate already sitting in an FU operand
//                             port register is not moved again;
//  * early control scheduling — jumps move up into their own delay slots.
//
// Each freedom can be disabled individually (TtaOptions) for the ablation
// benchmarks; disabling all of them degenerates to an operation-triggered
// schedule, which is how the paper produces its VLIW numbers from one
// compiler.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "codegen/lower.hpp"
#include "ir/memory.hpp"
#include "mach/machine.hpp"
#include "sim/observer.hpp"
#include "sim/snapshot.hpp"

namespace ttsc::sim {
struct PredecodedTta;
class RegLanes;
}

namespace ttsc::opt {
struct SuperblockPlan;
}

namespace ttsc::tta {

struct MoveSrc {
  enum class Kind : std::uint8_t { FuResult, RfRead, Imm } kind = Kind::Imm;
  int unit = -1;       // FU or RF index
  int reg_index = -1;  // RfRead only
  std::int32_t imm = 0;

  static MoveSrc fu_result(int fu) { return {Kind::FuResult, fu, -1, 0}; }
  static MoveSrc rf_read(int rf, int index) { return {Kind::RfRead, rf, index, 0}; }
  static MoveSrc immediate(std::int32_t v) { return {Kind::Imm, -1, -1, v}; }
};

struct MoveDst {
  enum class Kind : std::uint8_t { FuOperand, FuTrigger, RfWrite, GuardWrite } kind = Kind::RfWrite;
  int unit = -1;                         // FU / RF index; guard register for GuardWrite
  int reg_index = -1;                    // RfWrite only
  ir::Opcode opcode = ir::Opcode::MovI;  // FuTrigger only: operation to fire

  static MoveDst fu_operand(int fu) { return {Kind::FuOperand, fu, -1, ir::Opcode::MovI}; }
  static MoveDst fu_trigger(int fu, ir::Opcode op) { return {Kind::FuTrigger, fu, -1, op}; }
  static MoveDst rf_write(int rf, int index) { return {Kind::RfWrite, rf, index, ir::Opcode::MovI}; }
  static MoveDst guard_write(int guard) { return {Kind::GuardWrite, guard, -1, ir::Opcode::MovI}; }
};

struct Move {
  int bus = -1;
  MoveSrc src;
  MoveDst dst;
  /// Branch target (block id) for control trigger moves; the simulator
  /// resolves it through block_entry.
  std::uint32_t target = 0;
  bool is_control = false;
  /// True when this move's immediate does not fit the bus short-immediate
  /// field and a second bus slot was consumed for the extension.
  bool long_imm = false;
  /// The bus whose move slot carries the immediate extension bits
  /// (valid when long_imm; TCE-style long immediates span two slots).
  int extra_bus = -1;
  /// Predication: index of the guard register this move is conditional on
  /// (-1 = unconditional); when guard_negate is set the move executes on a
  /// false guard.
  int guard = -1;
  bool guard_negate = false;
};

struct TtaInstruction {
  std::vector<Move> moves;  // distinct buses
};

struct TtaProgram {
  std::vector<TtaInstruction> instrs;
  std::vector<std::uint32_t> block_entry;
  /// Static empty-slot cause per instruction (one prof::Cause byte per pc),
  /// recorded by the scheduler: why this cycle slot was not (fully) used —
  /// a recorded resource conflict, a control delay slot, an FU-latency
  /// shadow, or a plain dependence. Empty for hand-built programs; the
  /// profiler then falls back to Dep/Frontend defaults.
  std::vector<std::uint8_t> stall_cause;
};

struct TtaOptions {
  bool software_bypass = true;
  bool dead_result_elim = true;  // only effective with software_bypass
  bool operand_share = true;
  bool early_control = true;
};

struct TtaScheduleStats {
  std::uint64_t instructions = 0;
  std::uint64_t moves = 0;
  std::uint64_t bypassed_operands = 0;
  std::uint64_t eliminated_result_moves = 0;
  std::uint64_t shared_operands = 0;
  std::uint64_t guarded_selects = 0;  // Select ops lowered to guarded moves

  // Trace (superblock) scheduling: operand reads bypassed from an FU result
  // register across a side-exit boundary of a merged trace — transports the
  // per-block scheduler structurally cannot make.
  std::uint64_t superblock_cross_block_bypass = 0;

  // Scheduling-failure reasons: why a move could not be placed at the cycle
  // the scheduler probed (each count is one rejected placement attempt; the
  // move was retried at a later cycle). High values mean the machine's
  // transport/RF-port resources, not data dependences, bound the schedule.
  std::uint64_t fail_no_bus = 0;            // no free matching bus this cycle
  std::uint64_t fail_long_imm = 0;          // wide immediate lacked an extension bus
  std::uint64_t fail_rf_read_port = 0;      // RF read ports exhausted this cycle
  std::uint64_t fail_rf_write_port = 0;     // RF write ports exhausted this cycle
};

/// Schedule `func` onto the TTA `machine`. When `plan` is given (profile-
/// guided superblock compile), each formed trace is scheduled as one merged
/// region sequence: bypassing, dead-result elimination and operand sharing
/// fire across the trace's side-exit boundaries. A null plan reproduces the
/// per-block schedule exactly.
TtaProgram schedule_tta(const codegen::MFunction& func, const mach::Machine& machine,
                        const TtaOptions& options = {}, TtaScheduleStats* stats = nullptr,
                        const opt::SuperblockPlan* plan = nullptr);

/// Automatically generated instruction format (Section IV: "TCE produces an
/// instruction encoding automatically"): per bus, a source field of
/// 1 immediate-select bit + max(source-id bits, short-immediate bits) and a
/// destination field addressing every reachable destination (registers
/// individually, triggers per operation), plus one NOP code; one extra bit
/// selects the long-immediate instruction template.
int instruction_bits(const mach::Machine& machine);
int bus_slot_bits(const mach::Machine& machine, int bus);

std::uint64_t image_bits(const TtaProgram& program, const mach::Machine& machine);

using ExecResult = sim::ExecResult;

/// Cycle-accurate transport simulator with semi-virtual time latching FU
/// pipelines (Fig. 3): operand ports are registers, triggers launch
/// operations, results appear in the FU result register after the
/// operation latency and stay until replaced.
///
/// Two execution paths produce bit-identical ExecResults: run() executes a
/// predecoded flat program form (sim/predecode.hpp) with no per-cycle
/// allocation or lookup, while run_reference() is the original
/// interpretive loop the tests hold run() to.
class TtaSim {
 public:
  TtaSim(const TtaProgram& program, const mach::Machine& machine, ir::Memory& memory,
         sim::SimOptions options = {});
  ~TtaSim();

  /// Reuse an externally predecoded program (e.g. from sim::Engine) instead
  /// of predecoding on first run.
  void use_predecoded(std::shared_ptr<const sim::PredecodedTta> predecoded);

  ExecResult run(std::uint64_t max_cycles = 2'000'000'000ull);

  /// run() from `from`'s machine state (nullptr: cycle 0) on this
  /// simulator's memory, which must already hold the image at `from`. A run
  /// still going at cycle `stop_at` stops at the top of it and returns its
  /// machine state; the snapshot's memory fields stay empty (sim::Engine
  /// fills them).
  sim::Segment run(std::uint64_t max_cycles, const sim::Snapshot* from, std::uint64_t stop_at);

  /// A hardened run() from cycle 0 as the leader of a lockstep batch
  /// (sim/lanes.hpp): `lanes` follows every state change it makes.
  ExecResult run(std::uint64_t max_cycles, sim::RegLanes& lanes);

  /// The interpretive reference loop: the oracle the tests hold run() to.
  ExecResult run_reference(std::uint64_t max_cycles = 2'000'000'000ull);

 private:
  /// The fast loop. With Lanes = sim::RegLanes it leads the lockstep batch
  /// at lanes_; sim::NoLanes is the plain run.
  template <bool kObserve, sim::Check kCheck, bool kProfile, typename Lanes>
  sim::Segment run_fast(std::uint64_t max_cycles, const sim::Snapshot* from,
                        std::uint64_t stop_at);

  const TtaProgram& program_;
  const mach::Machine& machine_;
  ir::Memory& mem_;
  sim::SimOptions options_;
  std::shared_ptr<const sim::PredecodedTta> predecoded_;
  sim::RegLanes* lanes_ = nullptr;  // during run(max_cycles, lanes)
};

}  // namespace ttsc::tta
