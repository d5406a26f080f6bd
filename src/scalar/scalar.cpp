#include "scalar/scalar.hpp"

#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/harden.hpp"
#include "sim/predecode.hpp"
#include "sim/protect.hpp"
#include "support/bits.hpp"

namespace ttsc::scalar {

using codegen::MInstr;
using codegen::MOperand;
using ir::Opcode;

bool fits_short_imm(std::int32_t value) { return fits_signed(value, 16); }

namespace {

bool is_shift(Opcode op) { return op == Opcode::Shl || op == Opcode::Shr || op == Opcode::Shru; }

/// Static code size of a shift without a barrel shifter: one single-bit
/// shift instruction per position (capped), or a small loop for register
/// shift amounts.
int shift_words(const mach::ScalarTiming& t, const MInstr& in) {
  if (t.barrel_shifter) return 1;
  if (in.srcs[1].is_imm()) {
    const int amount = in.srcs[1].imm & 31;
    return std::max(1, std::min(amount, t.max_unrolled_shift));
  }
  return t.variable_shift_setup;  // compare/branch/shift/decrement loop body
}

}  // namespace

/// Instruction words for one operation: 1 plus an IMM prefix when any
/// immediate operand does not fit the 16-bit immediate field; shifts may
/// expand into multi-instruction sequences (see shift_words).
int instr_words(const mach::ScalarTiming& t, const MInstr& in) {
  // Branch targets are PC-relative label fields, not data immediates.
  if (ir::is_branch(in.op)) return 1;
  if (is_shift(in.op)) return shift_words(t, in);
  for (const MOperand& s : in.srcs) {
    if (s.is_imm() && !fits_short_imm(s.imm)) return 2;
  }
  return 1;
}

int dependent_use_stall(const mach::ScalarTiming& t, Opcode op) {
  if (ir::is_load(op)) return t.load_use_stall;
  if (op == Opcode::Mul) return t.mul_stall;
  if (op == Opcode::Shl || op == Opcode::Shr || op == Opcode::Shru) return t.shift_stall;
  return 0;
}

std::uint64_t ScalarProgram::code_words(const mach::ScalarTiming& timing) const {
  std::uint64_t words = 0;
  for (const MInstr& in : instrs) words += static_cast<std::uint64_t>(instr_words(timing, in));
  return words;
}

ScalarProgram emit_scalar(const codegen::MFunction& func) {
  obs::Span span("scalar.emit");
  ScalarProgram out;
  out.spill_base = func.spill_base;
  out.block_entry.resize(func.blocks.size());
  for (std::size_t b = 0; b < func.blocks.size(); ++b) {
    out.block_entry[b] = static_cast<std::uint32_t>(out.instrs.size());
    const auto& instrs = func.blocks[b].instrs;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const MInstr& in = instrs[i];
      // Elide a trailing jump to the next block (fallthrough layout).
      if (in.op == Opcode::Jump && i + 1 == instrs.size() && in.targets[0] == b + 1) continue;
      out.instrs.push_back(in);
    }
    // A block whose only instruction was an elided jump still needs a
    // landing pad for branches; block_entry correctly points at the next
    // block's first instruction in that case.
  }
  return out;
}

ScalarSim::ScalarSim(const ScalarProgram& program, const mach::Machine& machine,
                     ir::Memory& memory, sim::SimOptions options)
    : program_(program), machine_(machine), mem_(memory), options_(options) {
  TTSC_ASSERT(machine.model == mach::Model::Scalar, "ScalarSim needs a scalar machine");
}

ScalarSim::~ScalarSim() = default;

void ScalarSim::use_predecoded(std::shared_ptr<const sim::PredecodedScalar> predecoded) {
  predecoded_ = std::move(predecoded);
}

ExecResult ScalarSim::run(std::uint64_t max_cycles) {
  return std::get<ExecResult>(run(max_cycles, nullptr, sim::kNoStop));
}

sim::Segment ScalarSim::run(std::uint64_t max_cycles, const sim::Snapshot* from,
                            std::uint64_t stop_at) {
  if (predecoded_ == nullptr) {
    predecoded_ =
        std::make_shared<const sim::PredecodedScalar>(sim::predecode(program_, machine_));
  }
  return sim::run_fast_loop(options_, [&]<bool kObserve, bool kHarden, bool kProfile> {
    return run_fast<kObserve, kHarden, kProfile>(max_cycles, from, stop_at);
  });
}

template <bool kObserve, bool kHarden, bool kProfile>
sim::Segment ScalarSim::run_fast(std::uint64_t max_cycles, const sim::Snapshot* from,
                                 std::uint64_t stop_at) {
  using sim::ScalarPInstr;
  const sim::PredecodedScalar& pre = *predecoded_;
  sim::ExecObserver* const obs = options_.observer;
  sim::ProfileCounts* const prof = options_.profile;
  const mach::ScalarTiming& timing = machine_.scalar;
  if constexpr (kProfile) {
    prof->frontend_fill = static_cast<std::uint64_t>(timing.pipeline_stages - 1);
  }

  std::vector<std::uint32_t> regs(pre.rf_slots, 0u);
  std::vector<std::uint64_t> ready(pre.rf_slots, 0ull);
  ExecResult result;
  std::uint64_t cycle = static_cast<std::uint64_t>(timing.pipeline_stages - 1);  // fill
  std::uint32_t pc = 0;
  if (from != nullptr) {
    TTSC_ASSERT(from->regs.size() == regs.size() && from->ready.size() == ready.size(),
                "scalar snapshot of another register layout");
    regs = from->regs;
    ready = from->ready;
    cycle = from->cycle;
    pc = from->pc;
  }

  auto set_trap = [&](sim::TrapReason reason, std::uint32_t detail) {
    result.status = sim::ExecStatus::Trapped;
    result.trap = sim::TrapInfo{reason, cycle, -1, detail};
    result.cycles = cycle;
    result.rf_state = regs;
  };

  // SEU state faults (sim/fault.hpp): the scalar model exposes only RF
  // state. The loop steps instruction-wise over jumping cycle counts, so
  // faults apply at the first instruction whose start cycle reached them —
  // identical in both execution paths, which share the cycle sequence.
  [[maybe_unused]] const sim::StateFault* fault_begin = nullptr;
  [[maybe_unused]] const sim::StateFault* fault_next = nullptr;
  [[maybe_unused]] const sim::StateFault* fault_end = nullptr;
  if (options_.faults != nullptr) {
    fault_begin = options_.faults->faults.data();
    fault_end = fault_begin + options_.faults->faults.size();
    fault_next = fault_begin + (from != nullptr ? from->faults_applied : 0);
    TTSC_ASSERT(fault_next <= fault_end, "snapshot fault cursor past the fault set");
  }
  [[maybe_unused]] sim::ProtectState* const prot = options_.protect;
  [[maybe_unused]] auto apply_fault = [&](const sim::StateFault& f) {
    if (f.kind != sim::FaultKind::RfBit) return;
    if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine_.rfs.size()) return;
    if (f.index < 0 || f.index >= machine_.rfs[static_cast<std::size_t>(f.unit)].size) return;
    const std::uint32_t slot =
        pre.rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
    const std::uint32_t mask = sim::fault_mask(f);
    regs[slot] ^= mask;
    if (prot != nullptr) prot->on_rf_flip(slot, mask);
  };

  // Block-entry lookup for on_block_enter: entry pc -> block id, last block
  // wins when empty blocks share a pc. Only built when observing.
  std::vector<std::int32_t> entry_of;
  if constexpr (kObserve) {
    entry_of.assign(pre.instrs.size(), -1);
    for (std::size_t b = 0; b < program_.block_entry.size(); ++b) {
      const std::size_t entry = program_.block_entry[b];
      if (entry < pre.instrs.size()) entry_of[entry] = static_cast<std::int32_t>(b);
    }
    // Pipeline-fill cycles before the first instruction issues.
    if (timing.pipeline_stages > 1 && from == nullptr) {
      obs->on_overhead(0, sim::OverheadKind::FrontendFill,
                       static_cast<std::uint64_t>(timing.pipeline_stages - 1));
    }
  }

  while (true) {
    if (cycle >= stop_at) {
      sim::Snapshot snap;
      snap.cycle = cycle;
      snap.pc = pc;
      snap.faults_applied = static_cast<std::uint32_t>(fault_next - fault_begin);
      snap.regs = std::move(regs);
      snap.ready = std::move(ready);
      return snap;
    }
    if constexpr (kHarden) {
      while (fault_next != fault_end && fault_next->cycle <= cycle) {
        apply_fault(*fault_next);
        ++fault_next;
      }
    }
    if (pc >= pre.instrs.size()) {
      // The PC ran off the end (corrupted fallthrough): fail closed.
      set_trap(sim::TrapReason::PcOutOfRange, pc);
      return result;
    }
    if constexpr (kHarden) {
      if (prot != nullptr &&
          prot->check_imem_fetch(pc) == sim::ProtectState::ImemAction::Detected) {
        set_trap(sim::TrapReason::ProtectionDetected, pc);
        return result;
      }
    }
    if constexpr (kObserve) {
      const std::int32_t blk = entry_of[pc];
      if (blk >= 0) obs->on_block_enter(cycle, static_cast<std::uint32_t>(blk));
      obs->on_exec(cycle, pc, false);
    }
    const ScalarPInstr& in = pre.instrs[pc];
    // Fail-closed: an illegal instruction (decode-time trap marker) traps
    // before any of its operands are read.
    if (in.trap != 0) {
      set_trap(static_cast<sim::TrapReason>(in.trap - 1), in.trap_detail);
      return result;
    }

    std::uint64_t issue = cycle;
    std::uint32_t a = in.a_val;
    std::uint32_t b = in.b_val;
    if (!in.a_imm) {
      issue = std::max(issue, ready[in.a_slot]);
      if constexpr (kHarden) {
        if (prot != nullptr && prot->check_rf_read(in.a_slot, &regs[in.a_slot])) {
          set_trap(sim::TrapReason::ProtectionDetected, in.a_slot);
          return result;
        }
      }
      a = regs[in.a_slot];
      if constexpr (kObserve) obs->on_rf_read(cycle, in.a_rf, in.a_reg);
    }
    if (!in.b_imm) {
      issue = std::max(issue, ready[in.b_slot]);
      if constexpr (kHarden) {
        if (prot != nullptr && prot->check_rf_read(in.b_slot, &regs[in.b_slot])) {
          set_trap(sim::TrapReason::ProtectionDetected, in.b_slot);
          return result;
        }
      }
      b = regs[in.b_slot];
      if constexpr (kObserve) obs->on_rf_read(cycle, in.b_rf, in.b_reg);
    }
    if constexpr (kObserve) {
      if (issue > cycle) obs->on_stall(cycle, issue - cycle);
    }
    if constexpr (kProfile) {
      if (issue > cycle) prof->stall[pc] += issue - cycle;
    }
    // Multi-word expansions: IMM prefixes, and (without a barrel shifter)
    // single-bit shift sequences or the variable-shift loop.
    if (in.var_shift) {
      const std::uint64_t extra = static_cast<std::uint64_t>(timing.variable_shift_setup) +
                                  static_cast<std::uint64_t>(timing.variable_shift_per_bit) *
                                      (b & 31);
      issue += extra;
      if constexpr (kObserve) {
        if (extra > 0) obs->on_overhead(cycle, sim::OverheadKind::VarShift, extra);
      }
      if constexpr (kProfile) prof->var_shift[pc] += extra;
    } else {
      issue += in.extra_words;
      if constexpr (kObserve) {
        if (in.extra_words > 0) {
          obs->on_overhead(cycle,
                           is_shift(in.op) ? sim::OverheadKind::VarShift
                                           : sim::OverheadKind::ImmWords,
                           in.extra_words);
        }
      }
      if constexpr (kProfile) {
        if (in.extra_words > 0) {
          (is_shift(in.op) ? prof->var_shift[pc] : prof->imm_words[pc]) += in.extra_words;
        }
      }
    }
    if (issue + 1 > max_cycles) {
      if constexpr (kProfile) prof->final_pc = pc;
      result.status = sim::ExecStatus::TimedOut;
      result.cycles = cycle;
      result.rf_state = regs;
      return result;
    }
    if constexpr (kHarden) {
      // `a` is the address of every memory operation.
      if (ir::is_memory(in.op) && !sim::mem_in_bounds(in.op, a, mem_.size())) {
        set_trap(sim::TrapReason::MemoryOutOfRange, a);
        return result;
      }
    }
    if constexpr (kObserve) obs->on_trigger(issue, -1, in.op);

    std::uint32_t value = 0;
    switch (in.op) {
      case Opcode::Add: value = a + b; break;
      case Opcode::Sub: value = a - b; break;
      case Opcode::Mul: value = a * b; break;
      case Opcode::And: value = a & b; break;
      case Opcode::Ior: value = a | b; break;
      case Opcode::Xor: value = a ^ b; break;
      case Opcode::Shl: value = a << (b & 31); break;
      case Opcode::Shru: value = a >> (b & 31); break;
      case Opcode::Shr:
        value = static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31));
        break;
      case Opcode::Eq: value = a == b ? 1 : 0; break;
      case Opcode::Gt:
        value = static_cast<std::int32_t>(a) > static_cast<std::int32_t>(b) ? 1 : 0;
        break;
      case Opcode::Gtu: value = a > b ? 1 : 0; break;
      case Opcode::Sxhw: value = static_cast<std::uint32_t>(sign_extend(a, 16)); break;
      case Opcode::Sxqw: value = static_cast<std::uint32_t>(sign_extend(a, 8)); break;
      case Opcode::MovI:
      case Opcode::Copy: value = a; break;
      case Opcode::Ldw: value = mem_.load32(a); break;
      case Opcode::Ldh: value = static_cast<std::uint32_t>(sign_extend(mem_.load16(a), 16)); break;
      case Opcode::Ldhu: value = mem_.load16(a); break;
      case Opcode::Ldq: value = static_cast<std::uint32_t>(sign_extend(mem_.load8(a), 8)); break;
      case Opcode::Ldqu: value = mem_.load8(a); break;
      case Opcode::Stw:
        mem_.store32(a, b);
        if constexpr (kObserve) obs->on_store(issue, a, b, 4);
        break;
      case Opcode::Sth:
        mem_.store16(a, static_cast<std::uint16_t>(b));
        if constexpr (kObserve) obs->on_store(issue, a, b & 0xffffu, 2);
        break;
      case Opcode::Stq:
        mem_.store8(a, static_cast<std::uint8_t>(b));
        if constexpr (kObserve) obs->on_store(issue, a, b & 0xffu, 1);
        break;
      case Opcode::Jump: {
        if constexpr (kObserve) {
          if (timing.branch_penalty > 0) {
            obs->on_overhead(issue, sim::OverheadKind::BranchPenalty,
                             static_cast<std::uint64_t>(timing.branch_penalty));
          }
        }
        if constexpr (kProfile) {
          ++prof->taken[pc];
          prof->branch_penalty[pc] += static_cast<std::uint64_t>(timing.branch_penalty);
        }
        cycle = issue + 1 + static_cast<std::uint64_t>(timing.branch_penalty);
        pc = in.target_pc;
        result.cycles = cycle;
        continue;
      }
      case Opcode::Bnz: {
        const bool taken = a != 0;
        if constexpr (kObserve) {
          if (taken && timing.branch_penalty > 0) {
            obs->on_overhead(issue, sim::OverheadKind::BranchPenalty,
                             static_cast<std::uint64_t>(timing.branch_penalty));
          }
        }
        if constexpr (kProfile) {
          if (taken) {
            ++prof->taken[pc];
            prof->branch_penalty[pc] += static_cast<std::uint64_t>(timing.branch_penalty);
          }
        }
        cycle = issue + 1 + (taken ? static_cast<std::uint64_t>(timing.branch_penalty) : 0ull);
        pc = taken ? in.target_pc : pc + 1;
        result.cycles = cycle;
        continue;
      }
      case Opcode::Ret: {
        if constexpr (kProfile) prof->final_pc = pc;
        result.cycles = issue + 1;
        result.ret = a;
        result.rf_state = regs;
        return result;
      }
      case Opcode::Call:
      case Opcode::Select:
        // Rejected by the fail-closed decode (sim/harden.hpp): a trap
        // marker fires above before the switch is reached.
        TTSC_UNREACHABLE("calls/selects are lowered before scalar emission");
    }

    cycle = issue + 1;
    if (in.dst_slot >= 0) {
      const std::size_t slot = static_cast<std::size_t>(in.dst_slot);
      regs[slot] = value;
      if constexpr (kHarden) {
        if (prot != nullptr) prot->clear_rf(static_cast<std::uint32_t>(slot));
      }
      ready[slot] =
          issue + 1 + static_cast<std::uint64_t>(in.stall) + (timing.forwarding ? 0 : 1);
      if constexpr (kObserve) obs->on_rf_write(issue, in.dst_rf, in.dst_reg, value);
    }
    ++pc;
  }
}

ExecResult ScalarSim::run_reference(std::uint64_t max_cycles) {
  sim::ExecObserver* const obs = options_.observer;
  sim::ProfileCounts* const prof = options_.profile;
  const mach::ScalarTiming& timing = machine_.scalar;
  if (prof != nullptr) {
    prof->frontend_fill = static_cast<std::uint64_t>(timing.pipeline_stages - 1);
  }

  // Register state, indexed [rf][index].
  std::vector<std::vector<std::uint32_t>> regs;
  std::vector<std::vector<std::uint64_t>> ready;
  for (const mach::RegisterFile& rf : machine_.rfs) {
    regs.emplace_back(static_cast<std::size_t>(rf.size), 0u);
    ready.emplace_back(static_cast<std::size_t>(rf.size), 0ull);
  }

  // Flat-slot numbering matching sim/predecode.hpp rf_base, so protection
  // poison keys agree byte-for-byte with the fast path.
  std::vector<std::uint32_t> rf_base(machine_.rfs.size() + 1, 0u);
  for (std::size_t i = 0; i < machine_.rfs.size(); ++i) {
    rf_base[i + 1] = rf_base[i] + static_cast<std::uint32_t>(machine_.rfs[i].size);
  }
  sim::ProtectState* const prot = options_.protect;
  auto flat_slot = [&](const mach::PhysReg& r) {
    return rf_base[static_cast<std::size_t>(r.rf)] + static_cast<std::uint32_t>(r.index);
  };

  auto read = [&](const MOperand& s, std::uint64_t& at) -> std::uint32_t {
    if (s.is_imm()) return static_cast<std::uint32_t>(s.imm);
    const auto& r = s.reg;
    at = std::max(at, ready[static_cast<std::size_t>(r.rf)][static_cast<std::size_t>(r.index)]);
    return regs[static_cast<std::size_t>(r.rf)][static_cast<std::size_t>(r.index)];
  };

  auto capture_state = [&](ExecResult& r) {
    r.rf_state.clear();
    for (const auto& rf : regs) r.rf_state.insert(r.rf_state.end(), rf.begin(), rf.end());
  };

  ExecResult result;
  std::uint64_t cycle = static_cast<std::uint64_t>(timing.pipeline_stages - 1);  // fill
  std::uint32_t pc = 0;

  auto set_trap = [&](sim::TrapReason reason, std::uint32_t detail) {
    result.status = sim::ExecStatus::Trapped;
    result.trap = sim::TrapInfo{reason, cycle, -1, detail};
    result.cycles = cycle;
    capture_state(result);
  };

  // SEU state faults: same application point as the fast loop.
  const sim::StateFault* fault_next = nullptr;
  const sim::StateFault* fault_end = nullptr;
  if (options_.faults != nullptr) {
    fault_next = options_.faults->faults.data();
    fault_end = fault_next + options_.faults->faults.size();
  }
  auto apply_fault = [&](const sim::StateFault& f) {
    if (f.kind != sim::FaultKind::RfBit) return;
    if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= regs.size()) return;
    auto& file = regs[static_cast<std::size_t>(f.unit)];
    if (f.index < 0 || static_cast<std::size_t>(f.index) >= file.size()) return;
    const std::uint32_t mask = sim::fault_mask(f);
    file[static_cast<std::size_t>(f.index)] ^= mask;
    if (prot != nullptr) {
      prot->on_rf_flip(
          rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index), mask);
    }
  };

  // Block-entry lookup for on_block_enter (same semantics as the fast loop).
  std::vector<std::int32_t> entry_of;
  if (obs != nullptr) {
    entry_of.assign(program_.instrs.size(), -1);
    for (std::size_t b = 0; b < program_.block_entry.size(); ++b) {
      const std::size_t entry = program_.block_entry[b];
      if (entry < program_.instrs.size()) entry_of[entry] = static_cast<std::int32_t>(b);
    }
    // Pipeline-fill cycles before the first instruction issues.
    if (timing.pipeline_stages > 1) {
      obs->on_overhead(0, sim::OverheadKind::FrontendFill,
                       static_cast<std::uint64_t>(timing.pipeline_stages - 1));
    }
  }

  while (true) {
    while (fault_next != fault_end && fault_next->cycle <= cycle) {
      apply_fault(*fault_next);
      ++fault_next;
    }
    if (pc >= program_.instrs.size()) {
      // The PC ran off the end (corrupted fallthrough): fail closed.
      set_trap(sim::TrapReason::PcOutOfRange, pc);
      return result;
    }
    if (prot != nullptr &&
        prot->check_imem_fetch(pc) == sim::ProtectState::ImemAction::Detected) {
      set_trap(sim::TrapReason::ProtectionDetected, pc);
      return result;
    }
    if (obs != nullptr) {
      if (entry_of[pc] >= 0) obs->on_block_enter(cycle, static_cast<std::uint32_t>(entry_of[pc]));
      obs->on_exec(cycle, pc, false);
    }
    const MInstr& in = program_.instrs[pc];
    // Fail-closed: the execute-time mirror of the decode-time checks on the
    // predecoded path (sim/harden.hpp), before any operand is read.
    const sim::DecodeCheck chk =
        sim::check_minstr(in, machine_, /*needs_fu=*/false, program_.block_entry.size());
    if (!chk.ok()) {
      set_trap(chk.reason(), chk.detail);
      return result;
    }

    std::uint64_t issue = cycle;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    auto check_read = [&](const MOperand& s) {
      return s.is_reg() && prot != nullptr &&
             prot->check_rf_read(flat_slot(s.reg),
                                 &regs[static_cast<std::size_t>(s.reg.rf)]
                                      [static_cast<std::size_t>(s.reg.index)]);
    };
    if (!in.srcs.empty() && check_read(in.srcs[0])) {
      set_trap(sim::TrapReason::ProtectionDetected, flat_slot(in.srcs[0].reg));
      return result;
    }
    if (!in.srcs.empty()) a = read(in.srcs[0], issue);
    if (in.srcs.size() > 1 && check_read(in.srcs[1])) {
      set_trap(sim::TrapReason::ProtectionDetected, flat_slot(in.srcs[1].reg));
      return result;
    }
    if (in.srcs.size() > 1) b = read(in.srcs[1], issue);
    if (obs != nullptr) {
      if (!in.srcs.empty() && in.srcs[0].is_reg()) {
        obs->on_rf_read(cycle, in.srcs[0].reg.rf, in.srcs[0].reg.index);
      }
      if (in.srcs.size() > 1 && in.srcs[1].is_reg()) {
        obs->on_rf_read(cycle, in.srcs[1].reg.rf, in.srcs[1].reg.index);
      }
      if (issue > cycle) obs->on_stall(cycle, issue - cycle);
    }
    if (prof != nullptr && issue > cycle) prof->stall[pc] += issue - cycle;
    // Multi-word expansions: IMM prefixes, and (without a barrel shifter)
    // single-bit shift sequences or the variable-shift loop.
    if (is_shift(in.op) && !timing.barrel_shifter && in.srcs.size() > 1 &&
        in.srcs[1].is_reg()) {
      const std::uint64_t extra = static_cast<std::uint64_t>(timing.variable_shift_setup) +
                                  static_cast<std::uint64_t>(timing.variable_shift_per_bit) *
                                      (b & 31);
      issue += extra;
      if (obs != nullptr && extra > 0) {
        obs->on_overhead(cycle, sim::OverheadKind::VarShift, extra);
      }
      if (prof != nullptr) prof->var_shift[pc] += extra;
    } else {
      const std::uint64_t extra = static_cast<std::uint64_t>(instr_words(timing, in) - 1);
      issue += extra;
      if (obs != nullptr && extra > 0) {
        obs->on_overhead(cycle,
                         is_shift(in.op) ? sim::OverheadKind::VarShift
                                         : sim::OverheadKind::ImmWords,
                         extra);
      }
      if (prof != nullptr && extra > 0) {
        (is_shift(in.op) ? prof->var_shift[pc] : prof->imm_words[pc]) += extra;
      }
    }
    if (issue + 1 > max_cycles) {
      if (prof != nullptr) prof->final_pc = pc;
      result.status = sim::ExecStatus::TimedOut;
      result.cycles = cycle;
      capture_state(result);
      return result;
    }
    // `a` is the address of every memory operation; fail closed on an
    // out-of-range access (always: this is not a hot path).
    if (ir::is_memory(in.op) && !sim::mem_in_bounds(in.op, a, mem_.size())) {
      set_trap(sim::TrapReason::MemoryOutOfRange, a);
      return result;
    }
    if (obs != nullptr) obs->on_trigger(issue, -1, in.op);

    std::uint32_t value = 0;
    bool writes = in.has_dst();
    switch (in.op) {
      case Opcode::Add: value = a + b; break;
      case Opcode::Sub: value = a - b; break;
      case Opcode::Mul: value = a * b; break;
      case Opcode::And: value = a & b; break;
      case Opcode::Ior: value = a | b; break;
      case Opcode::Xor: value = a ^ b; break;
      case Opcode::Shl: value = a << (b & 31); break;
      case Opcode::Shru: value = a >> (b & 31); break;
      case Opcode::Shr:
        value = static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31));
        break;
      case Opcode::Eq: value = a == b ? 1 : 0; break;
      case Opcode::Gt:
        value = static_cast<std::int32_t>(a) > static_cast<std::int32_t>(b) ? 1 : 0;
        break;
      case Opcode::Gtu: value = a > b ? 1 : 0; break;
      case Opcode::Sxhw: value = static_cast<std::uint32_t>(sign_extend(a, 16)); break;
      case Opcode::Sxqw: value = static_cast<std::uint32_t>(sign_extend(a, 8)); break;
      case Opcode::MovI:
      case Opcode::Copy: value = a; break;
      case Opcode::Ldw: value = mem_.load32(a); break;
      case Opcode::Ldh: value = static_cast<std::uint32_t>(sign_extend(mem_.load16(a), 16)); break;
      case Opcode::Ldhu: value = mem_.load16(a); break;
      case Opcode::Ldq: value = static_cast<std::uint32_t>(sign_extend(mem_.load8(a), 8)); break;
      case Opcode::Ldqu: value = mem_.load8(a); break;
      case Opcode::Stw:
        mem_.store32(a, b);
        if (obs != nullptr) obs->on_store(issue, a, b, 4);
        break;
      case Opcode::Sth:
        mem_.store16(a, static_cast<std::uint16_t>(b));
        if (obs != nullptr) obs->on_store(issue, a, b & 0xffffu, 2);
        break;
      case Opcode::Stq:
        mem_.store8(a, static_cast<std::uint8_t>(b));
        if (obs != nullptr) obs->on_store(issue, a, b & 0xffu, 1);
        break;
      case Opcode::Jump: {
        if (obs != nullptr && timing.branch_penalty > 0) {
          obs->on_overhead(issue, sim::OverheadKind::BranchPenalty,
                           static_cast<std::uint64_t>(timing.branch_penalty));
        }
        if (prof != nullptr) {
          ++prof->taken[pc];
          prof->branch_penalty[pc] += static_cast<std::uint64_t>(timing.branch_penalty);
        }
        cycle = issue + 1 + static_cast<std::uint64_t>(timing.branch_penalty);
        pc = program_.block_entry[in.targets[0]];
        result.cycles = cycle;
        continue;
      }
      case Opcode::Bnz: {
        const bool taken = a != 0;
        if (obs != nullptr && taken && timing.branch_penalty > 0) {
          obs->on_overhead(issue, sim::OverheadKind::BranchPenalty,
                           static_cast<std::uint64_t>(timing.branch_penalty));
        }
        if (prof != nullptr && taken) {
          ++prof->taken[pc];
          prof->branch_penalty[pc] += static_cast<std::uint64_t>(timing.branch_penalty);
        }
        cycle = issue + 1 +
                (taken ? static_cast<std::uint64_t>(timing.branch_penalty) : 0ull);
        pc = taken ? program_.block_entry[in.targets[0]] : pc + 1;
        result.cycles = cycle;
        continue;
      }
      case Opcode::Ret: {
        if (prof != nullptr) prof->final_pc = pc;
        result.cycles = issue + 1;
        result.ret = in.srcs.empty() ? 0u : a;
        capture_state(result);
        return result;
      }
      case Opcode::Call:
      case Opcode::Select:
        // Rejected by check_minstr above; never reached.
        TTSC_UNREACHABLE("calls/selects are lowered before scalar emission");
    }

    cycle = issue + 1;
    if (writes) {
      auto& r = in.dst;
      regs[static_cast<std::size_t>(r.rf)][static_cast<std::size_t>(r.index)] = value;
      if (prot != nullptr) prot->clear_rf(flat_slot(r));
      const int stall = dependent_use_stall(timing, in.op);
      const std::uint64_t visible =
          issue + 1 + static_cast<std::uint64_t>(stall) + (timing.forwarding ? 0 : 1);
      ready[static_cast<std::size_t>(r.rf)][static_cast<std::size_t>(r.index)] = visible;
      if (obs != nullptr) obs->on_rf_write(issue, r.rf, r.index, value);
    }
    ++pc;
  }
}

}  // namespace ttsc::scalar
