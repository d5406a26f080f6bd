// Predecoded program forms for the simulator fast paths.
//
// The interpretive run loops re-resolve per cycle what is statically known:
// FU/RF/bus indices live in nested structs chased through vectors of
// vectors, FU latencies are found by scanning operation lists, branch
// targets go through block_entry, and the TTA loop even allocates a scratch
// vector every cycle. Predecoding resolves all of it once per
// (machine, program) pair into dense flat arrays:
//
//  * moves/ops flattened across instructions/bundles, with a [begin, end)
//    index range per instruction — one contiguous scan per cycle;
//  * register files concatenated into one flat array (rf_base[rf] + index
//    precomputed into a single slot number);
//  * FU latencies, trigger fire classes and branch targets (resolved to
//    instruction indices) baked into each decoded move/op;
//  * the in-flight result ring size (max FU latency + 1) precomputed so the
//    run loop can replace priority queues with circular buffers.
//
// A predecoded program is self-contained (no pointers into the source
// program) and immutable: sim::Engine builds it once per scheduled program
// and shares it, read-only, with every run and lockstep batch over that
// program.
#pragma once

#include <cstdint>
#include <vector>

#include "scalar/scalar.hpp"
#include "tta/tta.hpp"
#include "vliw/vliw.hpp"

namespace ttsc::sim {

// ---- TTA ---------------------------------------------------------------

struct TtaPMove {
  enum class Src : std::uint8_t { Imm, FuResult, RfRead };
  enum class Dst : std::uint8_t { FuOperand, FuTrigger, ControlTrigger, RfWrite, GuardWrite };
  /// Where the move loop sends a value: both trigger kinds queue the move
  /// for the fire pass.
  enum class Sink : std::uint8_t { Operand, Fire, Rf, Guard };
  static constexpr int kSinks = 4;
  /// The transport kind of a legal move: its source × sink.
  static constexpr std::uint8_t transport_kind(Src src, Sink sink) {
    return static_cast<std::uint8_t>(static_cast<int>(src) * kSinks + static_cast<int>(sink));
  }
  /// The kind of a trap marker, after the twelve transport kinds.
  static constexpr std::uint8_t kTrapKind = 3 * kSinks;
  /// Added to the kind of a guarded move: the same kinds again, each
  /// testing the guard first.
  static constexpr std::uint8_t kGuarded = kTrapKind + 1;
  /// Trigger dispatch, resolved at decode time: Binary ops read
  /// (operand port, moved value); Input ops (loads, sign-extends) read only
  /// the moved value; Store commits to memory in the trigger cycle.
  enum class Fire : std::uint8_t { Binary, Input, Store, Jump, Bnz, Ret };

  Src src = Src::Imm;
  Dst dst = Dst::RfWrite;
  Fire fire = Fire::Binary;
  ir::Opcode opcode = ir::Opcode::MovI;  // trigger opcode (compute + observer)
  std::uint8_t latency = 0;              // FU result latency for compute triggers
  std::int16_t guard = -1;               // guard register, -1 = unconditional
  bool guard_negate = false;
  std::int16_t bus = -1;                 // -1 when outside the machine's bus range
  std::uint32_t src_slot = 0;            // FU index or flat RF slot
  std::uint32_t dst_slot = 0;            // FU index / flat RF slot / guard index
  std::uint32_t imm = 0;
  std::uint32_t target_pc = 0;           // control: block_entry already applied
  std::int16_t src_rf = -1, src_reg = -1;  // observer: RF read (rf, index)
  std::int16_t dst_rf = -1, dst_reg = -1;  // observer: RF write (rf, index)
  /// 0 = legal; else TrapReason + 1 (sim/harden.hpp). The run loops raise
  /// ExecStatus::Trapped when the move executes (a squashed guard still
  /// suppresses it, matching execute-time validation in the reference loop).
  std::uint8_t trap = 0;
  std::uint32_t trap_detail = 0;
  /// The move loop's one dispatch, folded at predecode from the guard, the
  /// trap marker, `src` and `dst`: transport_kind(src, sink) or kTrapKind,
  /// plus kGuarded when a guard can squash the move.
  std::uint8_t kind = 0;

  bool operator==(const TtaPMove&) const = default;
};

struct PredecodedTta {
  std::vector<TtaPMove> moves;             // flat, instruction-major
  std::vector<std::uint32_t> instr_begin;  // size num_instrs + 1
  std::vector<std::uint32_t> rf_base;      // flat slot base per register file
  std::uint32_t rf_slots = 0;              // total registers across all RFs
  int ring = 2;                            // in-flight result ring (max latency + 1)

  std::size_t num_instrs() const { return instr_begin.size() - 1; }
};

PredecodedTta predecode(const tta::TtaProgram& program, const mach::Machine& machine);

// ---- VLIW --------------------------------------------------------------

struct VliwPOp {
  ir::Opcode op = ir::Opcode::MovI;
  bool a_imm = true, b_imm = true;
  std::uint32_t a_val = 0, b_val = 0;      // immediate values (0 for absent srcs)
  std::uint32_t a_slot = 0, b_slot = 0;    // flat register slots
  std::int32_t dst_slot = -1;              // -1 = no destination
  std::uint8_t latency = 1;
  bool is_control = false;
  std::uint32_t target_pc = 0;             // block_entry already applied
  std::int16_t fu = -1;                    // observer: issue slot's FU
  std::int16_t a_rf = -1, a_reg = -1, b_rf = -1, b_reg = -1;
  std::int16_t dst_rf = -1, dst_reg = -1;
  std::uint8_t nsrcs = 0;
  std::uint8_t trap = 0;  // 0 = legal; else TrapReason + 1 (sim/harden.hpp)
  std::uint32_t trap_detail = 0;

  bool operator==(const VliwPOp&) const = default;
};

struct PredecodedVliw {
  std::vector<VliwPOp> ops;                 // flat, bundle-major, empty slots dropped
  std::vector<std::uint32_t> bundle_begin;  // size num_bundles + 1
  std::vector<std::uint32_t> rf_base;
  std::uint32_t rf_slots = 0;
  int ring = 3;  // write-back ring (max latency + 2: visible at issue+lat+1)

  std::size_t num_bundles() const { return bundle_begin.size() - 1; }
};

PredecodedVliw predecode(const vliw::VliwProgram& program, const mach::Machine& machine);

// ---- Scalar ------------------------------------------------------------

struct ScalarPInstr {
  ir::Opcode op = ir::Opcode::MovI;
  bool a_imm = true, b_imm = true;
  std::uint32_t a_val = 0, b_val = 0;
  std::uint32_t a_slot = 0, b_slot = 0;
  std::int32_t dst_slot = -1;
  std::uint8_t extra_words = 0;   // instruction words beyond the first
  std::uint8_t stall = 0;         // dependent-use stall cycles for this op
  bool var_shift = false;         // register-amount shift without barrel shifter
  std::uint32_t target_pc = 0;    // block_entry already applied
  std::int16_t a_rf = -1, a_reg = -1, b_rf = -1, b_reg = -1;
  std::int16_t dst_rf = -1, dst_reg = -1;
  std::uint8_t nsrcs = 0;
  std::uint8_t trap = 0;  // 0 = legal; else TrapReason + 1 (sim/harden.hpp)
  std::uint32_t trap_detail = 0;

  bool operator==(const ScalarPInstr&) const = default;
};

struct PredecodedScalar {
  std::vector<ScalarPInstr> instrs;
  std::vector<std::uint32_t> rf_base;
  std::uint32_t rf_slots = 0;
};

PredecodedScalar predecode(const scalar::ScalarProgram& program, const mach::Machine& machine);

}  // namespace ttsc::sim
