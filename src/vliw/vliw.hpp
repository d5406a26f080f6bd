// Operation-triggered VLIW backend.
//
// The scheduler is a DDG-driven list scheduler with the paper's VLIW
// constraints: operations issue atomically into issue slots, all register
// operands are read from the RF in the issue cycle (counting read ports),
// results are written back `latency` cycles later (counting write ports)
// and become readable one cycle after that — the paper's VLIW RTL has no
// forwarding network (Section V-B), which is exactly the +1 the TTA model
// saves by software bypassing. Control transfers expose
// machine.delay_slots delay slots which the scheduler fills.
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
struct PredecodedVliw;
class RegLanes;
}

namespace ttsc::opt {
struct SuperblockPlan;
}

namespace ttsc::vliw {

struct SlotOp {
  codegen::MInstr instr;
  int fu = -1;
};

struct Bundle {
  std::vector<std::optional<SlotOp>> slots;  // one entry per issue slot
};

struct VliwProgram {
  std::vector<Bundle> bundles;
  std::vector<std::uint32_t> block_entry;  // block -> first bundle index
  int num_slots = 0;
  /// Static empty-slot cause per bundle (one prof::Cause byte per pc),
  /// recorded by the scheduler: why this issue cycle was not (fully) used.
  /// Empty for hand-built programs; the profiler then falls back to
  /// Dep/Frontend defaults.
  std::vector<std::uint8_t> stall_cause;

  std::uint64_t num_bundles() const { return bundles.size(); }
};

/// Signed short-immediate width of a VLIW slot's source fields; a wider
/// immediate spreads over one additional (otherwise idle) issue slot.
inline constexpr int kVliwSimmBits = 8;

/// Whether `in` carries an immediate operand too wide for the slot's
/// short-immediate field (branch targets are label fields, never wide).
bool needs_wide_imm(const codegen::MInstr& in);

struct ScheduleStats {
  std::uint64_t bundles = 0;
  std::uint64_t ops = 0;
  double fill_rate = 0.0;  // scheduled ops / (bundles * slots)

  // Scheduling-failure reasons (filled by schedule_tta-style list
  // scheduling, i.e. only when schedule_vliw collects stats): one count per
  // placement attempt rejected at a probed cycle before the op moved to a
  // later cycle.
  std::uint64_t fail_rf_read_port = 0;   // RF read ports exhausted
  std::uint64_t fail_rf_write_port = 0;  // RF write port exhausted at commit
  std::uint64_t fail_no_slot = 0;        // no free issue slot with a capable FU
  std::uint64_t fail_wide_imm = 0;       // wide immediate lacked a spare slot
};

/// Schedule `func` for the VLIW `machine`. Throws ttsc::Error when an
/// instruction cannot be mapped (missing FU). When given, `stats` receives
/// the schedule statistics (bundle/op counts, fill rate, failure reasons).
/// When `plan` is given (profile-guided superblock compile), each formed
/// trace is scheduled as one merged block whose interior branches become
/// side exits: every operation issued after a side exit stays past that
/// exit's delay slots, and all earlier write-backs commit inside them, so
/// the exit path observes exactly the per-block architectural state. A null
/// plan reproduces the per-block schedule exactly.
VliwProgram schedule_vliw(const codegen::MFunction& func, const mach::Machine& machine,
                          ScheduleStats* stats = nullptr,
                          const opt::SuperblockPlan* plan = nullptr);

ScheduleStats stats_of(const VliwProgram& program);

/// Instruction width in bits per the paper's manual VLIW encoding
/// (Section IV): per slot a 4-bit opcode, two source fields of
/// (register-address bits + 1 immediate-select bit) and a destination
/// register address; register addresses cover the machine's total register
/// count.
int instruction_bits(const mach::Machine& machine);

/// Program image bits: instruction width times bundle count (the VLIW has
/// no NOP compression, matching the paper's encoding).
std::uint64_t image_bits(const VliwProgram& program, const mach::Machine& machine);

using ExecResult = sim::ExecResult;

/// Human-readable listing of a scheduled bundle program.
std::string disassemble(const VliwProgram& program, const mach::Machine& machine);

/// Cycle-accurate bundle-stepping simulator. Models RF write-back latency
/// (a result is readable one cycle after its write-back commits), delayed
/// control transfer with delay-slot execution, and squashing of younger
/// control operations once a transfer is pending.
///
/// run() executes a predecoded flat form (sim/predecode.hpp);
/// run_reference() is the original interpretive loop, which produces
/// bit-identical ExecResults.
class VliwSim {
 public:
  VliwSim(const VliwProgram& program, const mach::Machine& machine, ir::Memory& memory,
          sim::SimOptions options = {});
  ~VliwSim();

  /// Reuse an externally predecoded program (e.g. from sim::Engine) instead
  /// of predecoding on first run.
  void use_predecoded(std::shared_ptr<const sim::PredecodedVliw> predecoded);

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

  const VliwProgram& program_;
  const mach::Machine& machine_;
  ir::Memory& mem_;
  sim::SimOptions options_;
  std::shared_ptr<const sim::PredecodedVliw> predecoded_;
  sim::RegLanes* lanes_ = nullptr;  // during run(max_cycles, lanes)
};

}  // namespace ttsc::vliw
