// Cycle-accurate VLIW bundle-stepping simulator.
//
// Two implementations of the same semantics live here:
//  * run_reference — the original interpretive loop over VliwProgram; the
//    differential baseline the tests compare against.
//  * run_fast<kObserve> — executes the predecoded flat form
//    (sim/predecode.hpp): no per-cycle FU-latency scans, registers in one
//    flat array, and the write-back priority queue replaced by a circular
//    buffer of per-cycle FIFO lists (append order reproduces the reference
//    queue's commit-sequence tie-break). Instantiated with and without
//    observer dispatch so a null observer is free.
// The two paths are locked together cycle-for-cycle by the differential
// suite in tests/property_test.cpp.
#include <algorithm>
#include <queue>

#include "sim/fault.hpp"
#include "sim/harden.hpp"
#include "sim/predecode.hpp"
#include "sim/protect.hpp"
#include "support/bits.hpp"
#include "vliw/vliw.hpp"

namespace ttsc::vliw {

using codegen::MInstr;
using codegen::MOperand;
using ir::Opcode;

VliwSim::VliwSim(const VliwProgram& program, const mach::Machine& machine, ir::Memory& memory,
                 sim::SimOptions options)
    : program_(program), machine_(machine), mem_(memory), options_(options) {}

VliwSim::~VliwSim() = default;

void VliwSim::use_predecoded(std::shared_ptr<const sim::PredecodedVliw> predecoded) {
  predecoded_ = std::move(predecoded);
}

namespace {

int latency_of(const mach::Machine& m, Opcode op) {
  if (op == Opcode::MovI || op == Opcode::Copy) return 1;
  const int fu = m.fu_for(op);
  TTSC_ASSERT(fu >= 0, "no FU for opcode in simulator");
  return m.fus[static_cast<std::size_t>(fu)].latency(op);
}

struct PendingWrite {
  std::uint64_t visible_at;
  mach::PhysReg reg;
  std::uint32_t value;
  std::uint64_t seq;  // commit order tie-break
  bool operator>(const PendingWrite& o) const {
    return visible_at != o.visible_at ? visible_at > o.visible_at : seq > o.seq;
  }
};

}  // namespace

ExecResult VliwSim::run(std::uint64_t max_cycles) {
  return std::get<ExecResult>(run(max_cycles, nullptr, sim::kNoStop));
}

sim::Segment VliwSim::run(std::uint64_t max_cycles, const sim::Snapshot* from,
                          std::uint64_t stop_at) {
  if (predecoded_ == nullptr) {
    predecoded_ = std::make_shared<const sim::PredecodedVliw>(sim::predecode(program_, machine_));
  }
  return sim::run_fast_loop(options_, [&]<bool kObserve, bool kHarden, bool kProfile> {
    return run_fast<kObserve, kHarden, kProfile>(max_cycles, from, stop_at);
  });
}

template <bool kObserve, bool kHarden, bool kProfile>
sim::Segment VliwSim::run_fast(std::uint64_t max_cycles, const sim::Snapshot* from,
                               std::uint64_t stop_at) {
  using sim::VliwPOp;
  const sim::PredecodedVliw& pre = *predecoded_;
  sim::ExecObserver* const obs = options_.observer;
  sim::ProfileCounts* const prof = options_.profile;
  const std::uint64_t ring = static_cast<std::uint64_t>(pre.ring);
  const std::size_t num_bundles = pre.num_bundles();

  // All run state is allocated up front; the cycle loop only appends to
  // preallocated ring lists (amortized allocation-free).
  std::vector<std::uint32_t> regs(pre.rf_slots, 0u);
  struct Write {
    std::uint32_t slot;
    std::uint32_t value;
    std::int16_t rf;
    std::int16_t reg;
  };
  // Write-back ring: writes issued at `cycle` with latency L land in the
  // list for cycle + L + 1 (readable one cycle after write-back). Ring size
  // max latency + 2 makes wraparound collisions impossible; FIFO order
  // within a list reproduces the reference queue's seq tie-break (pushes
  // arrive in issue order). Flat fixed-capacity rows: a row can accumulate
  // one write per issue slot from up to `ring` distinct issue cycles.
  const std::size_t row_cap = static_cast<std::size_t>(program_.num_slots) * ring;
  std::vector<Write> wb(ring * row_cap);
  std::vector<std::uint32_t> wb_count(ring, 0u);

  ExecResult result;
  std::uint64_t cycle = 0;
  std::size_t pc = 0;
  int transfer_in = -1;
  std::size_t transfer_target = 0;
  [[maybe_unused]] std::uint32_t last_arch = 0;
  if (from != nullptr) {
    // The ring restarts at row 0: a write due d cycles on lands in row d.
    TTSC_ASSERT(from->regs.size() == regs.size(), "VLIW snapshot of another register layout");
    regs = from->regs;
    for (const sim::Snapshot::InFlight& w : from->rf_writes) {
      TTSC_ASSERT(w.due < ring && wb_count[w.due] < row_cap, "VLIW snapshot overflows the ring");
      wb[w.due * row_cap + wb_count[w.due]++] = Write{w.slot, w.value, w.rf, w.reg};
    }
    cycle = from->cycle;
    pc = from->pc;
    transfer_in = from->transfer_in;
    transfer_target = from->transfer_target;
    last_arch = from->last_arch;
  }

  auto capture_state = [&] {
    if constexpr (kProfile) {
      // Writes still in the ring at halt were issued but never committed —
      // the one-time fill the derivation needs to truncate rf_writes.
      for (std::size_t r = 0; r < ring; ++r) {
        const Write* const row = &wb[r * row_cap];
        for (std::uint32_t i = 0; i < wb_count[r]; ++i) {
          ++prof->uncommitted_rf_writes[static_cast<std::size_t>(row[i].rf)];
        }
      }
      prof->final_pc = last_arch;
      prof->end_pc = static_cast<std::uint32_t>(pc);
      prof->end_transfer_in = transfer_in;
      prof->end_transfer_target =
          transfer_in >= 0 ? static_cast<std::int32_t>(transfer_target) : -1;
    }
    result.rf_state = regs;
  };

  auto set_trap = [&](sim::TrapReason reason, int unit, std::uint32_t detail) {
    result.status = sim::ExecStatus::Trapped;
    result.trap = sim::TrapInfo{reason, cycle, unit, detail};
    result.cycles = cycle;
    capture_state();
  };

  // SEU state faults (sim/fault.hpp), applied at the top of their cycle.
  // Only RfBit faults target VLIW state (no exposed bypass/guard registers).
  [[maybe_unused]] const sim::StateFault* fault_begin = nullptr;
  [[maybe_unused]] const sim::StateFault* fault_next = nullptr;
  [[maybe_unused]] const sim::StateFault* fault_end = nullptr;
  if (options_.faults != nullptr) {
    fault_begin = options_.faults->faults.data();
    fault_end = fault_begin + options_.faults->faults.size();
    fault_next = fault_begin + (from != nullptr ? from->faults_applied : 0);
    TTSC_ASSERT(fault_next <= fault_end, "snapshot fault cursor past the fault set");
  }
  // Declared protection semantics (sim/protect.hpp); null when unprotected.
  [[maybe_unused]] sim::ProtectState* const prot = options_.protect;
  [[maybe_unused]] auto apply_fault = [&](const sim::StateFault& f) {
    if (f.kind != sim::FaultKind::RfBit) return;
    if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine_.rfs.size()) return;
    if (f.index < 0 || f.index >= machine_.rfs[static_cast<std::size_t>(f.unit)].size) return;
    const std::uint32_t slot =
        pre.rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
    const std::uint32_t mask = sim::fault_mask(f);
    if (prot != nullptr) prot->on_rf_flip(slot, mask);
    regs[slot] ^= mask;
  };

  // Block-entry lookup for on_block_enter: entry pc -> block id, last block
  // wins when empty blocks share a pc. Only built when observing.
  std::vector<std::int32_t> entry_of;
  if constexpr (kObserve) {
    entry_of.assign(num_bundles, -1);
    for (std::size_t b = 0; b < program_.block_entry.size(); ++b) {
      const std::size_t entry = program_.block_entry[b];
      if (entry < num_bundles) entry_of[entry] = static_cast<std::int32_t>(b);
    }
  }

  std::size_t wb_idx = 0;
  const std::uint64_t end_cycle = std::min(max_cycles, stop_at);
  while (cycle < end_cycle) {
    // State faults land between cycles, before write-back commits.
    if constexpr (kHarden) {
      while (fault_next != fault_end && fault_next->cycle <= cycle) {
        apply_fault(*fault_next);
        ++fault_next;
      }
    }
    // Writes committed in earlier cycles become visible before this cycle's
    // reads (readable one cycle after write-back).
    if (wb_count[wb_idx] != 0) {
      Write* const commits = &wb[wb_idx * row_cap];
      const std::uint32_t n = wb_count[wb_idx];
      for (std::uint32_t i = 0; i < n; ++i) {
        const Write& w = commits[i];
        regs[w.slot] = w.value;
        if constexpr (kHarden) {
          if (prot != nullptr) prot->clear_rf(w.slot);
        }
        if constexpr (kObserve) obs->on_rf_write(cycle, w.rf, w.reg, w.value);
      }
      wb_count[wb_idx] = 0;
    }

    if (pc >= num_bundles && transfer_in < 0) {
      // The PC ran off the end with no transfer pending: fail closed.
      set_trap(sim::TrapReason::PcOutOfRange, -1, static_cast<std::uint32_t>(pc));
      return result;
    }
    if (pc < num_bundles) {
      if constexpr (kHarden) {
        // Protected imem: scrub or detect the bundle's codeword at fetch.
        if (prot != nullptr &&
            prot->check_imem_fetch(static_cast<std::uint32_t>(pc)) ==
                sim::ProtectState::ImemAction::Detected) {
          set_trap(sim::TrapReason::ProtectionDetected, -1, static_cast<std::uint32_t>(pc));
          return result;
        }
      }
      if constexpr (kObserve) {
        // Only architectural block entries (not delay-slot shadows); see
        // the TTA fast loop.
        const std::int32_t blk = transfer_in < 0 ? entry_of[pc] : -1;
        if (blk >= 0) obs->on_block_enter(cycle, static_cast<std::uint32_t>(blk));
        obs->on_exec(cycle, static_cast<std::uint32_t>(pc), transfer_in >= 0);
      }
      if constexpr (kProfile) {
        // Register-only: derive_profile reconstructs the per-pc execution
        // counts from the taken-transfer counters, so the hot loop touches
        // no profile memory per cycle.
        if (transfer_in < 0) last_arch = static_cast<std::uint32_t>(pc);
      }
      const std::uint32_t begin = pre.bundle_begin[pc];
      const std::uint32_t end = pre.bundle_begin[pc + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const VliwPOp& op = pre.ops[i];
        // A resolved transfer squashes younger control ops in its shadow.
        if (op.is_control && transfer_in >= 0) continue;
        // Fail-closed: an illegal op (decode-time trap marker) traps when
        // it issues; the transfer shadow squashed it above.
        if (op.trap != 0) {
          set_trap(static_cast<sim::TrapReason>(op.trap - 1), op.fu, op.trap_detail);
          return result;
        }

        std::uint32_t a = op.a_val;
        std::uint32_t b = op.b_val;
        if (!op.a_imm) {
          if constexpr (kHarden) {
            if (prot != nullptr && prot->check_rf_read(op.a_slot, &regs[op.a_slot])) {
              set_trap(sim::TrapReason::ProtectionDetected, -1, op.a_slot);
              return result;
            }
          }
          a = regs[op.a_slot];
          if constexpr (kObserve) obs->on_rf_read(cycle, op.a_rf, op.a_reg);
        }
        if (!op.b_imm) {
          if constexpr (kHarden) {
            if (prot != nullptr && prot->check_rf_read(op.b_slot, &regs[op.b_slot])) {
              set_trap(sim::TrapReason::ProtectionDetected, -1, op.b_slot);
              return result;
            }
          }
          b = regs[op.b_slot];
          if constexpr (kObserve) obs->on_rf_read(cycle, op.b_rf, op.b_reg);
        }
        if constexpr (kHarden) {
          // `a` is the address of every memory operation.
          if (ir::is_memory(op.op) && !sim::mem_in_bounds(op.op, a, mem_.size())) {
            set_trap(sim::TrapReason::MemoryOutOfRange, op.fu, a);
            return result;
          }
        }
        if constexpr (kObserve) obs->on_trigger(cycle, op.fu, op.op);

        std::uint32_t value = 0;
        switch (op.op) {
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
          case Opcode::Ldh:
            value = static_cast<std::uint32_t>(sign_extend(mem_.load16(a), 16));
            break;
          case Opcode::Ldhu: value = mem_.load16(a); break;
          case Opcode::Ldq:
            value = static_cast<std::uint32_t>(sign_extend(mem_.load8(a), 8));
            break;
          case Opcode::Ldqu: value = mem_.load8(a); break;
          case Opcode::Stw:
            mem_.store32(a, b);
            if constexpr (kObserve) obs->on_store(cycle, a, b, 4);
            break;
          case Opcode::Sth:
            mem_.store16(a, static_cast<std::uint16_t>(b));
            if constexpr (kObserve) obs->on_store(cycle, a, b & 0xffffu, 2);
            break;
          case Opcode::Stq:
            mem_.store8(a, static_cast<std::uint8_t>(b));
            if constexpr (kObserve) obs->on_store(cycle, a, b & 0xffu, 1);
            break;
          case Opcode::Jump:
            transfer_in = machine_.delay_slots;
            transfer_target = op.target_pc;
            if constexpr (kProfile) ++prof->taken[i];
            break;
          case Opcode::Bnz:
            if (a != 0) {
              transfer_in = machine_.delay_slots;
              transfer_target = op.target_pc;
              if constexpr (kProfile) ++prof->taken[i];
            }
            break;
          case Opcode::Ret:
            result.cycles = cycle + 1;
            result.ret = a;
            capture_state();
            return result;
          case Opcode::Call:
          case Opcode::Select:
            // Rejected by the fail-closed decode (sim/harden.hpp): a trap
            // marker fires above before the switch is reached.
            TTSC_UNREACHABLE("calls/selects are lowered before VLIW scheduling");
        }
        if (op.dst_slot >= 0) {
          std::size_t row = wb_idx + static_cast<std::size_t>(op.latency) + 1;
          if (row >= ring) row -= ring;  // latency + 1 < ring: one wrap at most
          wb[row * row_cap + wb_count[row]++] =
              Write{static_cast<std::uint32_t>(op.dst_slot), value, op.dst_rf, op.dst_reg};
        }
      }
    }

    ++cycle;
    if (++wb_idx == ring) wb_idx = 0;
    if (transfer_in >= 0) {
      if (transfer_in == 0) {
        pc = transfer_target;
        transfer_in = -1;
      } else {
        --transfer_in;
        ++pc;
      }
    } else {
      ++pc;
    }
  }
  if (cycle < max_cycles) {
    // Stopped at the top of `stop_at`, before its faults and commits.
    sim::Snapshot snap;
    snap.cycle = cycle;
    snap.pc = static_cast<std::uint32_t>(pc);
    snap.transfer_in = transfer_in;
    snap.transfer_target = static_cast<std::uint32_t>(transfer_target);
    snap.faults_applied = static_cast<std::uint32_t>(fault_next - fault_begin);
    snap.last_arch = last_arch;
    snap.regs = std::move(regs);
    for (std::size_t due = 0; due < ring; ++due) {
      const std::size_t row = (wb_idx + due) % ring;
      for (std::uint32_t i = 0; i < wb_count[row]; ++i) {
        const Write& w = wb[row * row_cap + i];
        snap.rf_writes.push_back({static_cast<std::uint32_t>(due), w.slot, w.value, w.rf, w.reg});
      }
    }
    return snap;
  }
  result.status = sim::ExecStatus::TimedOut;
  result.cycles = max_cycles;
  capture_state();
  return result;
}

ExecResult VliwSim::run_reference(std::uint64_t max_cycles) {
  sim::ExecObserver* const obs = options_.observer;
  sim::ProfileCounts* const prof = options_.profile;
  // Flat program-order op indices over the filled slots, for the
  // taken-transfer counters — the same numbering the predecoded path gets
  // for free (predecode emits exactly one record per filled slot, trap
  // markers included).
  std::vector<std::uint32_t> op_begin;
  if (prof != nullptr) {
    op_begin.reserve(program_.bundles.size());
    std::uint32_t flat = 0;
    for (const Bundle& bun : program_.bundles) {
      op_begin.push_back(flat);
      for (const auto& slot : bun.slots) {
        if (slot.has_value()) ++flat;
      }
    }
  }
  std::vector<std::vector<std::uint32_t>> regs;
  // Flat-slot bases mirroring sim/predecode.hpp's rf_base numbering, so
  // protection poison keys agree byte-for-byte with the fast path.
  std::vector<std::uint32_t> rf_base;
  std::uint32_t rf_slots = 0;
  for (const mach::RegisterFile& rf : machine_.rfs) {
    regs.emplace_back(static_cast<std::size_t>(rf.size), 0u);
    rf_base.push_back(rf_slots);
    rf_slots += static_cast<std::uint32_t>(rf.size);
  }
  std::priority_queue<PendingWrite, std::vector<PendingWrite>, std::greater<>> pending;
  std::uint64_t seq = 0;
  sim::ProtectState* const prot = options_.protect;

  auto reg_ref = [&](mach::PhysReg r) -> std::uint32_t& {
    return regs[static_cast<std::size_t>(r.rf)][static_cast<std::size_t>(r.index)];
  };
  auto flat_slot = [&](mach::PhysReg r) {
    return rf_base[static_cast<std::size_t>(r.rf)] + static_cast<std::uint32_t>(r.index);
  };
  auto value_of = [&](const MOperand& s) -> std::uint32_t {
    return s.is_imm() ? static_cast<std::uint32_t>(s.imm) : reg_ref(s.reg);
  };
  // Protection read check for a register operand: true = detection (the
  // caller traps with detail = flat slot). SEC-DED scrubs in place first.
  auto check_read = [&](const MOperand& s) {
    return s.is_reg() && prot != nullptr && prot->check_rf_read(flat_slot(s.reg), &reg_ref(s.reg));
  };

  ExecResult result;
  std::uint64_t cycle = 0;
  std::size_t pc = 0;
  // Pending control transfer: counts down delay slots.
  int transfer_in = -1;
  std::size_t transfer_target = 0;
  std::uint32_t last_arch = 0;

  auto capture_state = [&] {
    if (prof != nullptr) {
      // Same one-time uncommitted-writes fill as the fast loop.
      auto pend = pending;
      while (!pend.empty()) {
        ++prof->uncommitted_rf_writes[static_cast<std::size_t>(pend.top().reg.rf)];
        pend.pop();
      }
      prof->final_pc = last_arch;
      prof->end_pc = static_cast<std::uint32_t>(pc);
      prof->end_transfer_in = transfer_in;
      prof->end_transfer_target =
          transfer_in >= 0 ? static_cast<std::int32_t>(transfer_target) : -1;
    }
    result.rf_state.clear();
    for (const auto& rf : regs) result.rf_state.insert(result.rf_state.end(), rf.begin(), rf.end());
  };

  auto set_trap = [&](sim::TrapReason reason, int unit, std::uint32_t detail) {
    result.status = sim::ExecStatus::Trapped;
    result.trap = sim::TrapInfo{reason, cycle, unit, detail};
    result.cycles = cycle;
    capture_state();
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
    if (prot != nullptr) {
      prot->on_rf_flip(
          rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index), mask);
    }
    file[static_cast<std::size_t>(f.index)] ^= mask;
  };

  // Block-entry lookup for on_block_enter (same semantics as the fast loop).
  std::vector<std::int32_t> entry_of;
  if (obs != nullptr) {
    entry_of.assign(program_.bundles.size(), -1);
    for (std::size_t b = 0; b < program_.block_entry.size(); ++b) {
      const std::size_t entry = program_.block_entry[b];
      if (entry < program_.bundles.size()) entry_of[entry] = static_cast<std::int32_t>(b);
    }
  }

  while (cycle < max_cycles) {
    // State faults land between cycles (see the fast loop).
    while (fault_next != fault_end && fault_next->cycle <= cycle) {
      apply_fault(*fault_next);
      ++fault_next;
    }
    // Writes committed in earlier cycles become visible before this cycle's
    // reads (readable one cycle after write-back).
    while (!pending.empty() && pending.top().visible_at <= cycle) {
      const PendingWrite& w = pending.top();
      reg_ref(w.reg) = w.value;
      if (prot != nullptr) prot->clear_rf(flat_slot(w.reg));
      if (obs != nullptr) obs->on_rf_write(cycle, w.reg.rf, w.reg.index, w.value);
      pending.pop();
    }

    if (pc >= program_.bundles.size() && transfer_in < 0) {
      // The PC ran off the end with no transfer pending: fail closed.
      set_trap(sim::TrapReason::PcOutOfRange, -1, static_cast<std::uint32_t>(pc));
      return result;
    }
    if (pc < program_.bundles.size()) {
      // Protected imem: same fetch check as the fast loop.
      if (prot != nullptr &&
          prot->check_imem_fetch(static_cast<std::uint32_t>(pc)) ==
              sim::ProtectState::ImemAction::Detected) {
        set_trap(sim::TrapReason::ProtectionDetected, -1, static_cast<std::uint32_t>(pc));
        return result;
      }
      if (obs != nullptr) {
        if (transfer_in < 0 && entry_of[pc] >= 0) {
          obs->on_block_enter(cycle, static_cast<std::uint32_t>(entry_of[pc]));
        }
        obs->on_exec(cycle, static_cast<std::uint32_t>(pc), transfer_in >= 0);
      }
      if (prof != nullptr && transfer_in < 0) last_arch = static_cast<std::uint32_t>(pc);
      const Bundle& bundle = program_.bundles[pc];
      std::uint32_t flat = prof != nullptr ? op_begin[pc] : 0u;
      for (const auto& slot : bundle.slots) {
        if (!slot.has_value()) continue;
        const std::uint32_t my_flat = flat++;
        const MInstr& in = slot->instr;
        const bool is_control = ir::is_branch(in.op) || in.op == Opcode::Ret;
        // A resolved transfer squashes younger control ops in its shadow.
        if (is_control && transfer_in >= 0) continue;
        // Fail-closed: the execute-time mirror of the decode-time checks on
        // the predecoded path (sim/harden.hpp).
        const sim::DecodeCheck chk =
            sim::check_minstr(in, machine_, /*needs_fu=*/true, program_.block_entry.size());
        if (!chk.ok()) {
          set_trap(chk.reason(), slot->fu, chk.detail);
          return result;
        }

        // Storage codes check (and SEC-DED scrubs) each register operand at
        // the read, in operand order — same detection order as the fast
        // loop's a-then-b checks.
        if (!in.srcs.empty() && check_read(in.srcs[0])) {
          set_trap(sim::TrapReason::ProtectionDetected, -1, flat_slot(in.srcs[0].reg));
          return result;
        }
        const std::uint32_t a = in.srcs.empty() ? 0 : value_of(in.srcs[0]);
        if (in.srcs.size() > 1 && check_read(in.srcs[1])) {
          set_trap(sim::TrapReason::ProtectionDetected, -1, flat_slot(in.srcs[1].reg));
          return result;
        }
        const std::uint32_t b = in.srcs.size() > 1 ? value_of(in.srcs[1]) : 0;
        if (obs != nullptr) {
          if (!in.srcs.empty() && in.srcs[0].is_reg()) {
            obs->on_rf_read(cycle, in.srcs[0].reg.rf, in.srcs[0].reg.index);
          }
          if (in.srcs.size() > 1 && in.srcs[1].is_reg()) {
            obs->on_rf_read(cycle, in.srcs[1].reg.rf, in.srcs[1].reg.index);
          }
        }
        // `a` is the address of every memory operation; fail closed on an
        // out-of-range access (always: this is not a hot path).
        if (ir::is_memory(in.op) && !sim::mem_in_bounds(in.op, a, mem_.size())) {
          set_trap(sim::TrapReason::MemoryOutOfRange, slot->fu, a);
          return result;
        }
        if (obs != nullptr) obs->on_trigger(cycle, slot->fu, in.op);
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
          case Opcode::Ldh:
            value = static_cast<std::uint32_t>(sign_extend(mem_.load16(a), 16));
            break;
          case Opcode::Ldhu: value = mem_.load16(a); break;
          case Opcode::Ldq:
            value = static_cast<std::uint32_t>(sign_extend(mem_.load8(a), 8));
            break;
          case Opcode::Ldqu: value = mem_.load8(a); break;
          case Opcode::Stw:
            mem_.store32(a, b);
            if (obs != nullptr) obs->on_store(cycle, a, b, 4);
            break;
          case Opcode::Sth:
            mem_.store16(a, static_cast<std::uint16_t>(b));
            if (obs != nullptr) obs->on_store(cycle, a, b & 0xffffu, 2);
            break;
          case Opcode::Stq:
            mem_.store8(a, static_cast<std::uint8_t>(b));
            if (obs != nullptr) obs->on_store(cycle, a, b & 0xffu, 1);
            break;
          case Opcode::Jump:
            transfer_in = machine_.delay_slots;
            transfer_target = program_.block_entry[in.targets[0]];
            if (prof != nullptr) ++prof->taken[my_flat];
            break;
          case Opcode::Bnz:
            if (a != 0) {
              transfer_in = machine_.delay_slots;
              transfer_target = program_.block_entry[in.targets[0]];
              if (prof != nullptr) ++prof->taken[my_flat];
            }
            break;
          case Opcode::Ret:
            result.cycles = cycle + 1;
            result.ret = in.srcs.empty() ? 0 : a;
            capture_state();
            return result;
          case Opcode::Call:
          case Opcode::Select:
            // Rejected by check_minstr above; never reached.
            TTSC_UNREACHABLE("calls/selects are lowered before VLIW scheduling");
        }
        if (writes) {
          pending.push(PendingWrite{
              cycle + static_cast<std::uint64_t>(latency_of(machine_, in.op)) + 1, in.dst, value,
              seq++});
        }
      }
    }

    ++cycle;
    if (transfer_in >= 0) {
      if (transfer_in == 0) {
        pc = transfer_target;
        transfer_in = -1;
      } else {
        --transfer_in;
        ++pc;
      }
    } else {
      ++pc;
    }
  }
  result.status = sim::ExecStatus::TimedOut;
  result.cycles = max_cycles;
  capture_state();
  return result;
}

}  // namespace ttsc::vliw
