// Architecture description: the ttsc equivalent of TCE's ADF.
//
// A Machine describes datapath resources — function units with their
// operation sets and latencies (Table I), register files with explicit
// read/write port counts, and the interconnection network as a list of
// transport buses with per-bus source/destination connectivity (Section
// III-A's bus/socket structure, at unit granularity).
//
// One Machine type describes all three programming models evaluated in the
// paper. For VLIW machines the bus list mirrors the point-to-point
// RF-to-FU connections of Fig. 4a (used by the FPGA area model), while the
// VLIW scheduler works from `vliw_slots`. For scalar (MicroBlaze stand-in)
// machines `scalar` carries the pipeline timing parameters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.hpp"
#include "support/assert.hpp"

namespace ttsc::mach {

/// A hardware operation: an IR opcode plus its FU latency in cycles.
/// Latency 0 (stores, Table I) means the side effect commits in the trigger
/// cycle and there is no result to read.
struct Operation {
  ir::Opcode opcode;
  int latency;
};

/// Function unit with the paper's port discipline: one operand input port
/// ("o"), one trigger input port ("t", writing it starts the operation) and
/// one result output port ("r"). The control unit is a FunctionUnit whose
/// operations are the control-flow opcodes.
struct FunctionUnit {
  std::string name;
  std::vector<Operation> ops;

  bool supports(ir::Opcode op) const {
    for (const Operation& o : ops)
      if (o.opcode == op) return true;
    return false;
  }
  int latency(ir::Opcode op) const {
    for (const Operation& o : ops)
      if (o.opcode == op) return o.latency;
    TTSC_ASSERT(false, "FU " + name + " does not support opcode");
    return -1;
  }
  bool is_control_unit() const {
    return supports(ir::Opcode::Jump) || supports(ir::Opcode::Bnz);
  }
};

struct RegisterFile {
  std::string name;
  int size = 32;        // number of registers
  int width = 32;       // bits
  int read_ports = 1;
  int write_ports = 1;
};

/// Endpoint of a bus connection, at unit granularity: an FU port role or a
/// register file (any of its registers, subject to the RF's port capacity).
struct PortRef {
  enum class Kind : std::uint8_t { FuOperand, FuTrigger, FuResult, RfRead, RfWrite };
  Kind kind;
  int unit;  // index into Machine::fus or Machine::rfs

  bool operator==(const PortRef&) const = default;
};

/// A transport bus: which endpoints it can read from / write to, and the
/// width of the short immediate its source field can carry directly.
struct Bus {
  std::string name;
  int simm_bits = 8;                 // signed short-immediate width
  std::vector<PortRef> sources;      // FuResult / RfRead
  std::vector<PortRef> dests;        // FuOperand / FuTrigger / RfWrite

  bool has_source(PortRef p) const {
    for (const PortRef& s : sources)
      if (s == p) return true;
    return false;
  }
  bool has_dest(PortRef p) const {
    for (const PortRef& d : dests)
      if (d == p) return true;
    return false;
  }
};

/// Pipeline timing parameters for the scalar (MicroBlaze stand-in) model.
struct ScalarTiming {
  int pipeline_stages = 3;
  bool forwarding = false;  // results forwarded to the next instruction
  int load_use_stall = 2;   // extra cycles when a load feeds the next use
  int mul_stall = 2;        // extra cycles when a mul feeds the next use
  int shift_stall = 1;      // extra cycles when a shift feeds the next use
  int branch_penalty = 2;   // bubbles after a taken branch
  /// The paper evaluates the *minimum* MicroBlaze configuration (Section
  /// IV), which omits the optional barrel shifter: a shift by a constant k
  /// becomes a sequence of single-bit shift instructions (capped — the
  /// compiler falls back to byte-extraction tricks for large k) and a
  /// shift by a register amount becomes a loop.
  bool barrel_shifter = false;
  int max_unrolled_shift = 8;    // single-bit instructions before the cap
  int variable_shift_setup = 4;  // loop prologue cycles
  int variable_shift_per_bit = 2;
};

enum class Model : std::uint8_t { Tta, Vliw, Scalar };

constexpr const char* model_name(Model model) {
  switch (model) {
    case Model::Tta: return "tta";
    case Model::Vliw: return "vliw";
    case Model::Scalar: return "scalar";
  }
  return "?";
}

/// Per-structure SEU hardening a machine description can declare (the
/// mitigation side of the src/resil fault model). Every option is costed by
/// the src/fpga area/fmax model and simulated architecturally by all three
/// simulators (src/sim/protect.hpp): codes detect (parity) or correct
/// (SEC-DED) storage bit flips when the corrupted element is *read*, result
/// checking (DMR / mod-3 residue) detects datapath flips when the corrupted
/// FU result register is consumed, and TMR guard latches outvote a flipped
/// predicate bit. Detection without `rollback` fails stop (a structured
/// ProtectionDetected trap); with `rollback` the recovery policy re-executes
/// from the last periodic architectural checkpoint, degrading to a
/// DetectedUnrecoverable trap when the retry budget is exhausted.
struct Protection {
  /// Storage code on RF partitions / instruction memory.
  enum class Code : std::uint8_t { None, Parity, SecDed };
  /// FU result checking: duplicate-and-compare or a mod-3 residue check.
  enum class FuCheck : std::uint8_t { None, Residue3, Dmr };

  Code rf = Code::None;
  Code imem = Code::None;
  FuCheck fu = FuCheck::None;
  /// Triplicated guard latches with a majority voter (single flips masked).
  bool guard_tmr = false;

  /// Checkpoint-rollback recovery on detection (vs fail-stop).
  bool rollback = false;
  /// Cycles between architectural checkpoints.
  std::uint32_t checkpoint_interval = 256;
  /// Re-execution attempts before degrading to DetectedUnrecoverable.
  int retry_budget = 3;
  /// Cycles to restore a checkpoint before re-execution starts.
  std::uint32_t rollback_penalty = 16;

  bool any() const {
    return rf != Code::None || imem != Code::None || fu != FuCheck::None || guard_tmr;
  }
  bool operator==(const Protection&) const = default;
};

struct Machine {
  std::string name;
  Model model = Model::Tta;
  std::vector<FunctionUnit> fus;
  std::vector<RegisterFile> rfs;
  std::vector<Bus> buses;

  /// VLIW only: issue slots; slot i may host an operation on any FU whose
  /// index appears in vliw_slots[i] (the paper's encoding has one opcode +
  /// two sources + one destination per slot).
  std::vector<std::vector<int>> vliw_slots;

  /// TTA/VLIW: delay slots after a control-flow trigger (TCE default GCU:
  /// 3-cycle jump latency = 2 delay slots).
  int delay_slots = 2;

  /// TTA guarded execution (the BOOLRF of Fig. 4): number of 1-bit guard
  /// registers moves can predicate on. A guard is written by moving any
  /// value to it (latched as value != 0, readable the next cycle); a
  /// guarded move is squashed when its guard disagrees. 0 = no predication
  /// (the paper's evaluated machines; the g-tta variants enable it).
  int guard_regs = 0;
  bool has_guards() const { return guard_regs > 0; }

  ScalarTiming scalar;

  /// Declared SEU hardening (default: none — the paper's machines are
  /// unprotected; the `+parity`/`+eccdmr`/`+full` name suffixes parsed by
  /// mach::machine_by_name enable the profiled variants).
  Protection protect;

  int control_unit() const {
    for (std::size_t i = 0; i < fus.size(); ++i)
      if (fus[i].is_control_unit()) return static_cast<int>(i);
    TTSC_ASSERT(false, "machine " + name + " has no control unit");
    return -1;
  }

  /// Indices of non-CU function units.
  std::vector<int> datapath_fus() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < fus.size(); ++i)
      if (!fus[i].is_control_unit()) out.push_back(static_cast<int>(i));
    return out;
  }

  /// First FU (by index) that supports `op`; -1 if none.
  int fu_for(ir::Opcode op) const {
    for (std::size_t i = 0; i < fus.size(); ++i)
      if (fus[i].supports(op)) return static_cast<int>(i);
    return -1;
  }

  int total_registers() const {
    int n = 0;
    for (const RegisterFile& rf : rfs) n += rf.size;
    return n;
  }

  /// Throws ttsc::Error on structural problems (missing CU, unconnected
  /// ports on TTA machines, empty slots on VLIW machines, ...).
  void validate() const;
};

/// A physical register after allocation: register file index + register
/// index within that file.
struct PhysReg {
  std::int16_t rf = -1;
  std::int16_t index = -1;

  bool valid() const { return rf >= 0; }
  bool operator==(const PhysReg&) const = default;
  auto operator<=>(const PhysReg&) const = default;
};

}  // namespace ttsc::mach
