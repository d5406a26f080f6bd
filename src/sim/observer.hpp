// Execution observability protocol shared by the three instruction-set
// simulators (TTA, VLIW, scalar).
//
// An ExecObserver receives cycle-level execution events. The fast-path run
// loops are instantiated with and without observer dispatch compiled in
// (run_fast_loop below), so a null observer costs nothing per cycle (no
// branch, no virtual call). The reference loops use plain null checks
// (they are the differential baseline, not a hot path).
//
// Event semantics (identical on the fast and reference paths, so observer
// counts can be differentially tested too):
//  * on_move         — one executed (non-squashed) TTA transport on `bus`.
//  * on_guard_squash — a guarded TTA move whose guard disagreed; the move
//                      occupied its bus but had no effect.
//  * on_trigger      — an operation fired: a TTA trigger-port write, a VLIW
//                      operation issue (fu = issue slot's FU), or a scalar
//                      instruction execution (fu = -1). Control operations
//                      included; squashed ones are not.
//  * on_rf_read      — a register-file read by an executing move/operation.
//  * on_rf_write     — a register-file write at the cycle it commits
//                      (becomes architecturally visible).
//  * on_stall        — scalar only: cycles the pipeline waited for an
//                      operand that was not ready (hazard stalls; multi-word
//                      expansions and branch penalties are not stalls).
//                      The statically-scheduled cores have no dynamic
//                      stall event: their equivalent of a stall is an
//                      *empty slot* baked into the schedule — a VLIW bundle
//                      slot or TTA bus with no operation in a cycle — which
//                      is visible as the complement of on_trigger/on_move
//                      occupancy and is classified per cause by the static
//                      stall_cause tables (prof/cause.hpp). Consumers that
//                      need per-cycle idleness (the flight recorder's VCD
//                      export renders idle buses/FUs as their idle level)
//                      reconstruct it from the absence of events at a
//                      cycle rather than from a callback.
//  * on_block_enter  — the instruction at a block-entry pc began executing.
//                      `block` is the source-program block id (an index into
//                      the program's block_entry table). When several blocks
//                      share an entry pc (empty or fully-elided blocks), the
//                      event attributes to the LAST block id with that pc on
//                      both paths, so profile counts stay differentially
//                      comparable. Fires only on architectural entries: a
//                      block-entry pc executing inside a pending control
//                      transfer's delay-slot shadow is NOT an entry (the
//                      profile layer depends on this — a taken branch must
//                      produce one clean (source, target) edge, not a fake
//                      detour through the fallthrough block).
//  * on_exec         — one instruction/bundle execution cycle: the TTA/VLIW
//                      instruction at `pc` executed this cycle (`shadow` set
//                      when inside a pending control transfer's delay-slot
//                      shadow), or the scalar instruction at `pc` issued
//                      (shadow always false; the issue cycle is reported,
//                      after any hazard stall). The cycle-attribution
//                      profiler keys its per-cycle classification off this
//                      event plus the program's static stall_cause table.
//  * on_overhead     — scalar only: non-stall overhead cycles folded into
//                      the instruction-stepped timing model, by kind —
//                      pipeline fill before the first instruction,
//                      multi-word immediate fetch, unrolled/variable shift
//                      sequencing, and the taken-branch penalty. Together
//                      with on_exec and on_stall these partition a scalar
//                      run's cycle count exactly.
//  * on_guard_write  — TTA only: a guard register latched a new value at
//                      the cycle it becomes architecturally visible (one
//                      cycle after the guard-write move executed), mirroring
//                      on_rf_write's commit-cycle convention. `value` is the
//                      latched boolean (guard writes latch `v != 0`).
//  * on_store        — a memory store became architecturally visible: the
//                      byte/halfword/word at `addr` now holds `value`
//                      (low `width` bytes). Fires on all three engines at
//                      the commit cycle (scalar reports the issue cycle,
//                      like its on_trigger/on_rf_write), after the
//                      operation's on_trigger. Together with on_rf_write
//                      and on_guard_write this makes the observer stream a
//                      complete commit log of architectural state changes —
//                      what the flight recorder and the resilience layer's
//                      first-divergence forensics replay against.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/opcode.hpp"

namespace ttsc::sim {

/// How a simulation ended. TimedOut means the cycle budget (`max_cycles`)
/// was exhausted before the program returned; the ExecResult then carries
/// the cycles actually executed, distinguishable from a normal halt.
/// Trapped means the simulator detected an illegal architectural state —
/// an out-of-range RF/FU/guard index, an invalid or unsupported opcode, a
/// branch target outside the program, a memory access outside the address
/// space, or the PC running off the end — and failed closed instead of
/// asserting. Traps only arise from malformed or fault-corrupted programs
/// (see src/resil/); a well-formed program never traps.
enum class ExecStatus : std::uint8_t { Ok, TimedOut, Trapped };

constexpr const char* exec_status_name(ExecStatus s) {
  switch (s) {
    case ExecStatus::Ok: return "ok";
    case ExecStatus::TimedOut: return "timeout";
    case ExecStatus::Trapped: return "trap";
  }
  return "?";
}

/// Why a simulator trapped. The reasons mirror the decoder/executor checks:
/// any single-bit corruption of an instruction encoding or of architectural
/// state resolves to exactly one of these (or to a wrong-but-valid
/// execution that the resilience layer classifies by output diffing).
enum class TrapReason : std::uint8_t {
  InvalidOpcode,        // opcode outside the ISA, or unsupported by the FU
  RfIndexOutOfRange,    // register-file or register index out of range
  FuIndexOutOfRange,    // function-unit index out of range
  GuardIndexOutOfRange, // guard register index out of range
  BadJumpTarget,        // branch target outside the program's blocks
  MemoryOutOfRange,     // load/store address outside the memory image
  PcOutOfRange,         // PC ran off the end with no transfer pending
  ProtectionDetected,   // a declared protection mechanism (parity, SEC-DED
                        // detect, DMR/residue compare, imem code) caught a
                        // corrupted element at its read/fetch site; the
                        // recovery policy decides what happens next
  DetectedUnrecoverable,// detection with rollback enabled, but re-execution
                        // exhausted the retry budget (or rollback was
                        // impossible) — the structured "DUE" end state
};

constexpr const char* trap_reason_name(TrapReason r) {
  switch (r) {
    case TrapReason::InvalidOpcode: return "invalid-opcode";
    case TrapReason::RfIndexOutOfRange: return "rf-index";
    case TrapReason::FuIndexOutOfRange: return "fu-index";
    case TrapReason::GuardIndexOutOfRange: return "guard-index";
    case TrapReason::BadJumpTarget: return "bad-jump-target";
    case TrapReason::MemoryOutOfRange: return "memory";
    case TrapReason::PcOutOfRange: return "pc";
    case TrapReason::ProtectionDetected: return "protect-detected";
    case TrapReason::DetectedUnrecoverable: return "detect-unrecoverable";
  }
  return "?";
}

/// Structured trap record carried by ExecResult when status == Trapped.
/// Identical on the fast and reference paths (differentially tested): the
/// trap fires at the same cycle with the same reason/unit/detail whether
/// the illegal encoding was caught at predecode time (fast path) or at
/// execute time (reference path).
struct TrapInfo {
  TrapReason reason = TrapReason::InvalidOpcode;
  std::uint64_t cycle = 0;
  /// Offending unit: the move's bus (TTA), the issue slot's FU (VLIW),
  /// -1 (scalar / not applicable).
  int unit = -1;
  /// Offending value: the out-of-range index, raw opcode byte, address…
  std::uint32_t detail = 0;

  bool operator==(const TrapInfo&) const = default;
};

/// What one simulation run of any of the three models returns.
struct ExecResult {
  /// Ok = the program returned; TimedOut = the cycle budget was exhausted
  /// and `cycles` holds the cycles actually executed; Trapped = the
  /// simulator failed closed on an illegal state and `trap` says why.
  ExecStatus status = ExecStatus::Ok;
  /// Valid when status == Trapped (default-initialized otherwise).
  TrapInfo trap{};
  std::uint64_t cycles = 0;
  std::uint32_t ret = 0;
  /// Architectural state at halt, for cycle-exact differential testing:
  /// register files concatenated in machine order, and the guard registers
  /// (TTA only; empty on the other models).
  std::vector<std::uint32_t> rf_state;
  std::vector<std::uint8_t> guard_state;

  bool timed_out() const { return status == ExecStatus::TimedOut; }
  bool trapped() const { return status == ExecStatus::Trapped; }
  bool operator==(const ExecResult&) const = default;
};

struct FaultSet;      // sim/fault.hpp: mid-run single-bit state faults
struct ProtectState;  // sim/protect.hpp: architectural protection semantics

/// Scalar timing-model overhead categories, reported via on_overhead. The
/// pipelined cores have no equivalent events: their overhead cycles are
/// classified from the static schedule instead (prof/cause.hpp).
enum class OverheadKind : std::uint8_t {
  FrontendFill,   // pipeline fill before the first instruction issues
  ImmWords,       // extra instruction words fetched for wide immediates
  VarShift,       // unrolled / data-dependent shift sequencing cycles
  BranchPenalty,  // taken-branch redirect penalty
};

/// Flat execution tallies the run loops fill when SimOptions::profile is
/// set — the cheap collection mode behind the cycle-attribution profiler
/// (src/prof). Unlike an ExecObserver there is no per-event virtual
/// dispatch — and no per-cycle work at all: the loops count only *taken
/// control transfers* (rare), guard squashes (rare), the scalar timing
/// model's overhead events (rare), and a one-time state capture at halt.
/// prof::derive_profile() reconstructs the per-pc execution counts from the
/// transfer counts by prefix-summing a difference array over the program's
/// straight-line flow (control enters at pc 0 and only the counted
/// transfers redirect it), then folds the static schedule over them.
///
/// Sizing contract (prof::make_profile_counts sizes all of this): `taken`
/// holds one slot per flat slot-op in program order (only control ops ever
/// count — a slot's completed taken transfers, i.e. those whose landing at
/// the target actually executed); `squash` holds two slots per TTA move in
/// flat program order (2*move for architectural squashes, 2*move+1 for
/// squashes inside a shadow); the scalar arrays hold one slot per pc; and
/// `uncommitted_rf_writes` holds one slot per register file, filled at halt
/// with writes still in flight (issued, never committed — so never seen by
/// ExecObserver::on_rf_write either).
struct ProfileCounts {
  /// Per flat slot-op: taken control transfers that completed (landed and
  /// executed their target). A transfer still in flight at a timeout is
  /// counted here too and backed out via the end_* capture below.
  std::vector<std::uint64_t> taken;
  std::vector<std::uint64_t> squash;

  // Scalar timing-model events (data-dependent, so counted at the event
  // sites rather than derived): hazard stalls, variable/unrolled shift
  // cycles, extra immediate fetch words, taken-branch penalties — each a
  // per-pc cycle total — and the one-time pipeline fill.
  std::vector<std::uint64_t> stall;
  std::vector<std::uint64_t> var_shift;
  std::vector<std::uint64_t> imm_words;
  std::vector<std::uint64_t> branch_penalty;
  std::uint64_t frontend_fill = 0;

  // Filled once at run exit.
  std::vector<std::uint64_t> uncommitted_rf_writes;
  /// Last architecturally-executed pc (shadow executions excluded): closes
  /// the final straight-line flow segment, and the residual drain past the
  /// program end is attributed to its block.
  std::uint32_t final_pc = 0;
  /// TTA/VLIW halt state: the pc about to execute next (`end_pc`) and the
  /// pending control transfer, if any (`end_transfer_in` cycles left until
  /// redirect to `end_transfer_target`; -1 when none). A timeout can halt
  /// mid-shadow; derive_profile backs the unexecuted tail of the final
  /// taken transfer out of the reconstruction with these.
  std::uint32_t end_pc = 0;
  std::int32_t end_transfer_in = -1;
  std::int32_t end_transfer_target = -1;
};

class ExecObserver {
 public:
  virtual ~ExecObserver() = default;

  virtual void on_move(std::uint64_t /*cycle*/, int /*bus*/) {}
  virtual void on_guard_squash(std::uint64_t /*cycle*/, int /*bus*/) {}
  virtual void on_trigger(std::uint64_t /*cycle*/, int /*fu*/, ir::Opcode /*op*/) {}
  virtual void on_rf_read(std::uint64_t /*cycle*/, int /*rf*/, int /*index*/) {}
  virtual void on_rf_write(std::uint64_t /*cycle*/, int /*rf*/, int /*index*/,
                           std::uint32_t /*value*/) {}
  virtual void on_stall(std::uint64_t /*cycle*/, std::uint64_t /*stall_cycles*/) {}
  virtual void on_block_enter(std::uint64_t /*cycle*/, std::uint32_t /*block*/) {}
  virtual void on_exec(std::uint64_t /*cycle*/, std::uint32_t /*pc*/, bool /*shadow*/) {}
  virtual void on_overhead(std::uint64_t /*cycle*/, OverheadKind /*kind*/,
                           std::uint64_t /*cycles*/) {}
  virtual void on_guard_write(std::uint64_t /*cycle*/, int /*guard*/, std::uint32_t /*value*/) {}
  virtual void on_store(std::uint64_t /*cycle*/, std::uint32_t /*addr*/,
                        std::uint32_t /*value*/, std::uint8_t /*width*/) {}
};

/// Per-run simulator configuration, accepted by all three simulators.
struct SimOptions {
  /// Cycle-level event sink; nullptr disables observation entirely.
  ExecObserver* observer = nullptr;

  /// Cheap profile-collection sink; nullptr disables it entirely (the fast
  /// paths template it out, so the off cost is zero). Must be sized for the
  /// program being run — see ProfileCounts / prof::make_profile_counts.
  ProfileCounts* profile = nullptr;

  /// Driver-level convenience (report::compile_and_run_prebuilt): attach a
  /// UtilizationCollector for the run and surface its report through
  /// RunOutcome::utilization. The simulators themselves ignore this flag.
  bool collect_utilization = false;

  /// Driver-level convenience: attach a prof::CycleProfiler for the run and
  /// surface its cycle-attribution profile through RunOutcome::profile.
  /// The simulators themselves ignore this flag.
  bool collect_profile = false;

  /// Fail-closed execution: bounds-check memory accesses (and apply
  /// `faults`, when given), turning illegal states into
  /// ExecStatus::Trapped instead of assertions. Selected automatically
  /// whenever `faults` or `protect` is set; the reference loops always fail
  /// closed.
  /// Off (the default) keeps the no-fault fast path's cycle stream and
  /// instruction mix untouched.
  bool harden = false;

  /// Mid-run single-bit state faults (sim/fault.hpp), applied at the top of
  /// their cycle by both execution paths. Implies hardened execution on the
  /// fast path. The caller owns the set; it must stay alive for the run.
  const FaultSet* faults = nullptr;

  /// Architectural fault-protection semantics (sim/protect.hpp): filters
  /// applied faults (TMR suppression, parity masking), tracks poisoned
  /// elements, and turns read/fetch-site detections into
  /// ProtectionDetected traps. Implies hardened execution on the fast path.
  /// With no faults applied a protected run is byte-identical to an
  /// unprotected one (the mechanisms only ever react to corruption). The
  /// caller owns the state; it must stay alive for the run and be reset
  /// between runs.
  ProtectState* protect = nullptr;
};

/// How much checking a fast-loop instantiation compiles in.
enum class Check : std::uint8_t {
  /// The trusted no-fault run: no bounds checks, no faults.
  None,
  /// Fail-closed execution (SimOptions::harden, implied by faults): memory
  /// bounds checks and SimOptions::faults, but no protection hook.
  Harden,
  /// Harden plus every sim::ProtectState hook (SimOptions::protect set).
  Protect,
};

/// Runs `loop.template operator()<kObserve, kCheck, kProfile>()` — a
/// simulator's predecoded fast loop — instantiated for what `options`
/// attaches: observer dispatch, the check level and profile counting. Only
/// a run with a ProtectState gets the Protect level: every other hardened
/// run (unprotected imem faults, state faults, lockstep leaders) carries
/// no protection code at all. The one place options pick a loop
/// instantiation, so an unused feature costs nothing per cycle.
template <typename Loop>
decltype(auto) run_fast_loop(const SimOptions& options, Loop&& loop) {
  Check check = Check::None;
  if (options.protect != nullptr) {
    check = Check::Protect;
  } else if (options.harden || options.faults != nullptr) {
    check = Check::Harden;
  }
  switch ((options.observer != nullptr ? 6 : 0) + 2 * static_cast<int>(check) +
          (options.profile != nullptr ? 1 : 0)) {
    case 0: return loop.template operator()<false, Check::None, false>();
    case 1: return loop.template operator()<false, Check::None, true>();
    case 2: return loop.template operator()<false, Check::Harden, false>();
    case 3: return loop.template operator()<false, Check::Harden, true>();
    case 4: return loop.template operator()<false, Check::Protect, false>();
    case 5: return loop.template operator()<false, Check::Protect, true>();
    case 6: return loop.template operator()<true, Check::None, false>();
    case 7: return loop.template operator()<true, Check::None, true>();
    case 8: return loop.template operator()<true, Check::Harden, false>();
    case 9: return loop.template operator()<true, Check::Harden, true>();
    case 10: return loop.template operator()<true, Check::Protect, false>();
    default: return loop.template operator()<true, Check::Protect, true>();
  }
}

}  // namespace ttsc::sim
