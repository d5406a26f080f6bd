#include "sim/predecode.hpp"

#include <algorithm>

#include "sim/harden.hpp"

namespace ttsc::sim {

namespace {

using ir::Opcode;

/// Flat register-slot bases: one contiguous array spanning all RFs.
std::vector<std::uint32_t> rf_bases(const mach::Machine& machine, std::uint32_t* total) {
  std::vector<std::uint32_t> base;
  std::uint32_t next = 0;
  for (const mach::RegisterFile& rf : machine.rfs) {
    base.push_back(next);
    next += static_cast<std::uint32_t>(rf.size);
  }
  *total = next;
  return base;
}

TtaPMove::Sink sink_of(TtaPMove::Dst dst) {
  switch (dst) {
    case TtaPMove::Dst::FuOperand: return TtaPMove::Sink::Operand;
    case TtaPMove::Dst::FuTrigger:
    case TtaPMove::Dst::ControlTrigger: return TtaPMove::Sink::Fire;
    case TtaPMove::Dst::RfWrite: return TtaPMove::Sink::Rf;
    case TtaPMove::Dst::GuardWrite: return TtaPMove::Sink::Guard;
  }
  TTSC_UNREACHABLE("predecode: bad move destination");
}

/// The move's kind (TtaPMove::kind) from its decoded fields.
std::uint8_t move_kind(const TtaPMove& p) {
  const std::uint8_t base =
      p.trap != 0 ? TtaPMove::kTrapKind : TtaPMove::transport_kind(p.src, sink_of(p.dst));
  return static_cast<std::uint8_t>(base + (p.guard >= 0 ? TtaPMove::kGuarded : 0));
}

int max_result_latency(const mach::Machine& machine) {
  int lat = 1;
  for (const mach::FunctionUnit& fu : machine.fus) {
    for (const mach::Operation& op : fu.ops) lat = std::max(lat, op.latency);
  }
  return lat;
}

}  // namespace

// ---- TTA ---------------------------------------------------------------

PredecodedTta predecode(const tta::TtaProgram& program, const mach::Machine& machine) {
  PredecodedTta out;
  out.rf_base = rf_bases(machine, &out.rf_slots);
  out.ring = max_result_latency(machine) + 1;
  out.instr_begin.reserve(program.instrs.size() + 1);

  for (const tta::TtaInstruction& instr : program.instrs) {
    out.instr_begin.push_back(static_cast<std::uint32_t>(out.moves.size()));
    for (const tta::Move& mv : instr.moves) {
      TtaPMove p;
      p.bus = (mv.bus >= 0 && static_cast<std::size_t>(mv.bus) < machine.buses.size())
                  ? static_cast<std::int16_t>(mv.bus)
                  : std::int16_t{-1};

      // Fail-closed decode: an illegal move (possible only in malformed or
      // fault-corrupted programs) becomes a trap marker the run loops raise
      // when it executes. A valid guard still squashes it first, so the
      // field decode below is skipped but the guard fields are kept.
      const DecodeCheck chk = check_tta_move(mv, machine, program.block_entry.size());
      if (!chk.ok()) {
        p.trap = chk.trap;
        p.trap_detail = chk.detail;
        if (!chk.guard_trap) {
          p.guard = static_cast<std::int16_t>(mv.guard);
          p.guard_negate = mv.guard_negate;
        }
        p.kind = move_kind(p);
        out.moves.push_back(p);
        continue;
      }

      p.guard = static_cast<std::int16_t>(mv.guard);
      p.guard_negate = mv.guard_negate;

      switch (mv.src.kind) {
        case tta::MoveSrc::Kind::Imm:
          p.src = TtaPMove::Src::Imm;
          p.imm = static_cast<std::uint32_t>(mv.src.imm);
          break;
        case tta::MoveSrc::Kind::FuResult:
          p.src = TtaPMove::Src::FuResult;
          p.src_slot = static_cast<std::uint32_t>(mv.src.unit);
          break;
        case tta::MoveSrc::Kind::RfRead:
          p.src = TtaPMove::Src::RfRead;
          p.src_slot = out.rf_base[static_cast<std::size_t>(mv.src.unit)] +
                       static_cast<std::uint32_t>(mv.src.reg_index);
          p.src_rf = static_cast<std::int16_t>(mv.src.unit);
          p.src_reg = static_cast<std::int16_t>(mv.src.reg_index);
          break;
      }

      switch (mv.dst.kind) {
        case tta::MoveDst::Kind::FuOperand:
          p.dst = TtaPMove::Dst::FuOperand;
          p.dst_slot = static_cast<std::uint32_t>(mv.dst.unit);
          break;
        case tta::MoveDst::Kind::RfWrite:
          p.dst = TtaPMove::Dst::RfWrite;
          p.dst_slot = out.rf_base[static_cast<std::size_t>(mv.dst.unit)] +
                       static_cast<std::uint32_t>(mv.dst.reg_index);
          p.dst_rf = static_cast<std::int16_t>(mv.dst.unit);
          p.dst_reg = static_cast<std::int16_t>(mv.dst.reg_index);
          break;
        case tta::MoveDst::Kind::GuardWrite:
          p.dst = TtaPMove::Dst::GuardWrite;
          p.dst_slot = static_cast<std::uint32_t>(mv.dst.unit);
          break;
        case tta::MoveDst::Kind::FuTrigger: {
          p.dst_slot = static_cast<std::uint32_t>(mv.dst.unit);
          p.opcode = mv.dst.opcode;
          if (mv.is_control) {
            p.dst = TtaPMove::Dst::ControlTrigger;
            switch (mv.dst.opcode) {
              case Opcode::Jump: p.fire = TtaPMove::Fire::Jump; break;
              case Opcode::Bnz: p.fire = TtaPMove::Fire::Bnz; break;
              case Opcode::Ret: p.fire = TtaPMove::Fire::Ret; break;
              default: TTSC_UNREACHABLE("predecode: bad control trigger opcode");
            }
            if (p.fire != TtaPMove::Fire::Ret) {
              p.target_pc = program.block_entry[mv.target];
            }
          } else {
            p.dst = TtaPMove::Dst::FuTrigger;
            const Opcode op = mv.dst.opcode;
            if (ir::is_store(op)) {
              p.fire = TtaPMove::Fire::Store;
            } else {
              p.fire = (ir::is_load(op) || op == Opcode::Sxhw || op == Opcode::Sxqw)
                           ? TtaPMove::Fire::Input
                           : TtaPMove::Fire::Binary;
              p.latency = static_cast<std::uint8_t>(
                  machine.fus[static_cast<std::size_t>(mv.dst.unit)].latency(op));
            }
          }
          break;
        }
      }
      p.kind = move_kind(p);
      out.moves.push_back(p);
    }
  }
  out.instr_begin.push_back(static_cast<std::uint32_t>(out.moves.size()));
  return out;
}

// ---- VLIW --------------------------------------------------------------

namespace {

void decode_operand(const codegen::MOperand& s, const std::vector<std::uint32_t>& rf_base,
                    bool* is_imm, std::uint32_t* val, std::uint32_t* slot, std::int16_t* rf,
                    std::int16_t* reg) {
  if (s.is_imm()) {
    *is_imm = true;
    *val = static_cast<std::uint32_t>(s.imm);
  } else {
    *is_imm = false;
    *slot = rf_base[static_cast<std::size_t>(s.reg.rf)] + static_cast<std::uint32_t>(s.reg.index);
    *rf = s.reg.rf;
    *reg = s.reg.index;
  }
}

}  // namespace

PredecodedVliw predecode(const vliw::VliwProgram& program, const mach::Machine& machine) {
  PredecodedVliw out;
  out.rf_base = rf_bases(machine, &out.rf_slots);
  out.ring = max_result_latency(machine) + 2;  // visible at issue + latency + 1
  out.bundle_begin.reserve(program.bundles.size() + 1);

  for (const vliw::Bundle& bundle : program.bundles) {
    out.bundle_begin.push_back(static_cast<std::uint32_t>(out.ops.size()));
    for (const auto& slot : bundle.slots) {
      if (!slot.has_value()) continue;
      const codegen::MInstr& in = slot->instr;
      VliwPOp p;
      p.op = in.op;
      p.fu = static_cast<std::int16_t>(slot->fu);

      // Fail-closed decode (see check_tta_move above). is_control is kept
      // so a trap op flipped from a control op still squashes in a transfer
      // shadow, exactly like the reference loop's execute-time check.
      const DecodeCheck chk = check_minstr(in, machine, /*needs_fu=*/true,
                                           program.block_entry.size());
      if (!chk.ok()) {
        p.is_control = ir::is_branch(in.op) || in.op == Opcode::Ret;
        p.trap = chk.trap;
        p.trap_detail = chk.detail;
        out.ops.push_back(p);
        continue;
      }

      p.nsrcs = static_cast<std::uint8_t>(in.srcs.size());
      if (!in.srcs.empty()) {
        decode_operand(in.srcs[0], out.rf_base, &p.a_imm, &p.a_val, &p.a_slot, &p.a_rf, &p.a_reg);
      }
      if (in.srcs.size() > 1) {
        decode_operand(in.srcs[1], out.rf_base, &p.b_imm, &p.b_val, &p.b_slot, &p.b_rf, &p.b_reg);
      }
      p.is_control = ir::is_branch(in.op) || in.op == Opcode::Ret;
      if (ir::is_branch(in.op)) {
        p.target_pc = program.block_entry[in.targets[0]];
      }
      if (in.has_dst()) {
        p.dst_slot = static_cast<std::int32_t>(
            out.rf_base[static_cast<std::size_t>(in.dst.rf)] +
            static_cast<std::uint32_t>(in.dst.index));
        p.dst_rf = in.dst.rf;
        p.dst_reg = in.dst.index;
        if (in.op == Opcode::MovI || in.op == Opcode::Copy) {
          p.latency = 1;
        } else {
          const int fu = machine.fu_for(in.op);
          TTSC_ASSERT(fu >= 0, "predecode: no FU for opcode");
          p.latency = static_cast<std::uint8_t>(
              machine.fus[static_cast<std::size_t>(fu)].latency(in.op));
        }
      }
      out.ops.push_back(p);
    }
  }
  out.bundle_begin.push_back(static_cast<std::uint32_t>(out.ops.size()));
  return out;
}

// ---- Scalar ------------------------------------------------------------

PredecodedScalar predecode(const scalar::ScalarProgram& program, const mach::Machine& machine) {
  const mach::ScalarTiming& timing = machine.scalar;
  PredecodedScalar out;
  out.rf_base = rf_bases(machine, &out.rf_slots);
  out.instrs.reserve(program.instrs.size());

  for (const codegen::MInstr& in : program.instrs) {
    ScalarPInstr p;
    p.op = in.op;

    // Fail-closed decode (see check_tta_move above). Timing fields stay
    // zero: the trap fires before the instruction's issue accounting.
    const DecodeCheck chk = check_minstr(in, machine, /*needs_fu=*/false,
                                         program.block_entry.size());
    if (!chk.ok()) {
      p.trap = chk.trap;
      p.trap_detail = chk.detail;
      out.instrs.push_back(p);
      continue;
    }

    p.nsrcs = static_cast<std::uint8_t>(in.srcs.size());
    if (!in.srcs.empty()) {
      decode_operand(in.srcs[0], out.rf_base, &p.a_imm, &p.a_val, &p.a_slot, &p.a_rf, &p.a_reg);
    }
    if (in.srcs.size() > 1) {
      decode_operand(in.srcs[1], out.rf_base, &p.b_imm, &p.b_val, &p.b_slot, &p.b_rf, &p.b_reg);
    }
    if (in.has_dst()) {
      p.dst_slot = static_cast<std::int32_t>(
          out.rf_base[static_cast<std::size_t>(in.dst.rf)] +
          static_cast<std::uint32_t>(in.dst.index));
      p.dst_rf = in.dst.rf;
      p.dst_reg = in.dst.index;
    }
    const bool is_shift =
        in.op == Opcode::Shl || in.op == Opcode::Shr || in.op == Opcode::Shru;
    p.var_shift = is_shift && !timing.barrel_shifter && in.srcs.size() > 1 && in.srcs[1].is_reg();
    p.extra_words = static_cast<std::uint8_t>(scalar::instr_words(timing, in) - 1);
    p.stall = static_cast<std::uint8_t>(scalar::dependent_use_stall(timing, in.op));
    if (ir::is_branch(in.op)) {
      p.target_pc = program.block_entry[in.targets[0]];
    }
    out.instrs.push_back(p);
  }
  return out;
}

}  // namespace ttsc::sim
