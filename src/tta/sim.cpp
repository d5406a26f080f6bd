// Cycle-accurate transport simulator.
//
// Per cycle: (1) FU pipelines deliver results whose latency elapsed into
// the result registers, (2) register-file writes from the previous cycle
// become readable, (3) all of the instruction's moves sample their sources,
// (4) destinations are written — operand ports first, then trigger ports
// fire operations (semi-virtual time latching: an operation starts when its
// trigger port is written and uses the operand port contents of that
// cycle).
//
// Two implementations of the same semantics live here:
//  * run_reference — the original interpretive loop over TtaProgram; the
//    differential baseline the tests compare against.
//  * run_fast<kObserve, kCheck, kProfile, Lanes> — executes the predecoded
//    flat form (sim/predecode.hpp): no per-cycle allocation, no latency
//    lookups, FU in-flight results in a circular buffer instead of a
//    priority queue, RF/guard write delays as fixed-capacity double
//    buffers, and one switch per move on its predecoded kind (guard, trap
//    marker, source and sink folded into a byte). Instantiated per
//    observer, check level and profile (sim::run_fast_loop), so what a run
//    does not attach costs nothing, and as the leader of a lockstep batch
//    with the lane hooks of sim/lanes.hpp.
// The two paths are locked together cycle-for-cycle (ExecResult including
// halt-time RF/guard state) by the differential suite in
// tests/property_test.cpp.
#include <algorithm>
#include <queue>
#include <type_traits>

#include "sim/compute.hpp"
#include "sim/fault.hpp"
#include "sim/harden.hpp"
#include "sim/predecode.hpp"
#include "sim/protect.hpp"
#include "tta/tta.hpp"
// Last: included among the headers above, it reorders their inline helpers
// for GCC's inliner and changes the plain profiled loop's code.
#include "sim/lanes.hpp"

namespace ttsc::tta {

using ir::Opcode;

TtaSim::TtaSim(const TtaProgram& program, const mach::Machine& machine, ir::Memory& memory,
               sim::SimOptions options)
    : program_(program), machine_(machine), mem_(memory), options_(options) {
  TTSC_ASSERT(machine.model == mach::Model::Tta, "TtaSim needs a TTA machine");
}

TtaSim::~TtaSim() = default;

void TtaSim::use_predecoded(std::shared_ptr<const sim::PredecodedTta> predecoded) {
  predecoded_ = std::move(predecoded);
}

namespace {

struct FuRuntime {
  std::uint32_t operand = 0;
  std::uint32_t result = 0;
  // In-flight operations: (completion cycle, value).
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>, std::greater<>>
      in_flight;
};

struct RfWritePending {
  std::uint64_t visible_at;
  int rf;
  int index;
  std::uint32_t value;
  bool operator>(const RfWritePending& o) const { return visible_at > o.visible_at; }
};

}  // namespace

ExecResult TtaSim::run(std::uint64_t max_cycles) {
  return std::get<ExecResult>(run(max_cycles, nullptr, sim::kNoStop));
}

sim::Segment TtaSim::run(std::uint64_t max_cycles, const sim::Snapshot* from,
                         std::uint64_t stop_at) {
  if (predecoded_ == nullptr) {
    predecoded_ = std::make_shared<const sim::PredecodedTta>(sim::predecode(program_, machine_));
  }
  return sim::run_fast_loop(options_, [&]<bool kObserve, sim::Check kCheck, bool kProfile> {
    return run_fast<kObserve, kCheck, kProfile, sim::NoLanes>(max_cycles, from, stop_at);
  });
}

ExecResult TtaSim::run(std::uint64_t max_cycles, sim::RegLanes& lanes) {
  TTSC_ASSERT(predecoded_ != nullptr, "a lockstep leader runs a predecoded program");
  TTSC_ASSERT(options_.protect == nullptr, "a lockstep leader runs unprotected");
  lanes_ = &lanes;
  ExecResult result = std::get<ExecResult>(
      run_fast<false, sim::Check::Harden, false, sim::RegLanes>(max_cycles, nullptr, sim::kNoStop));
  lanes_ = nullptr;
  return result;
}

template <bool kObserve, sim::Check kCheck, bool kProfile, typename Lanes>
sim::Segment TtaSim::run_fast(std::uint64_t max_cycles, const sim::Snapshot* from,
                              std::uint64_t stop_at) {
  using sim::TtaPMove;
  using Src = TtaPMove::Src;
  using Sink = TtaPMove::Sink;
  constexpr bool kHarden = kCheck != sim::Check::None;
  constexpr bool kProtect = kCheck == sim::Check::Protect;
  // Lockstep lanes (sim/lanes.hpp) ride on the unprotected hardened loop,
  // with location ids for the datapath past the RF (sim::TtaLaneIds). No
  // hook sits inside the squashed and transport lambdas: a name in a
  // discarded statement is still captured, and one more capture changes
  // the plain loops' code.
  constexpr bool kLanes = std::is_same_v<Lanes, sim::RegLanes>;
  static_assert(!kLanes || (kCheck == sim::Check::Harden && !kObserve && !kProfile));
  const sim::PredecodedTta& pre = *predecoded_;
  sim::ExecObserver* const obs = options_.observer;
  sim::ProfileCounts* const prof = options_.profile;
  const std::size_t nfus = machine_.fus.size();
  const std::uint64_t ring = static_cast<std::uint64_t>(pre.ring);
  const std::size_t num_instrs = pre.num_instrs();
  // Stores write bytes, which may alias anything: loop-invariant machine
  // fields and table pointers live in locals so the loop never reloads them.
  const int delay_slots = machine_.delay_slots;
  const TtaPMove* const moves = pre.moves.data();
  const std::uint32_t* const instr_begin = pre.instr_begin.data();

  // All run state is allocated up front; the cycle loop is allocation-free.
  std::vector<std::uint32_t> rf_vec(pre.rf_slots, 0u);
  std::vector<std::uint32_t> fu_operand_vec(nfus, 0u);
  std::vector<std::uint32_t> fu_result_vec(nfus, 0u);
  std::vector<std::uint8_t> guard_vec(static_cast<std::size_t>(machine_.guard_regs), 0u);

  // In-flight results as per-completion-column entry lists: column c holds
  // the results landing when the ring cursor reaches c, at most one entry
  // per FU (same-FU ties merge at push). Delivery then touches only the
  // results that actually land instead of scanning every FU every cycle.
  struct InFlight {
    std::uint32_t fu;
    std::uint32_t value;
  };
  std::vector<InFlight> ring_entry(ring * nfus);
  std::vector<std::uint32_t> ring_count(ring, 0u);

  // RF and guard writes wait one cycle in a double buffer: the half for
  // cycle c holds the writes committing at its top. A cycle queues at most
  // one write per move of its instruction, so each half is a fixed array
  // sized by the widest instruction.
  struct RfWrite {
    std::uint32_t slot;
    std::uint32_t value;
    std::int16_t rf;
    std::int16_t reg;
  };
  struct GuardWrite {
    std::uint32_t guard;
    std::uint8_t value;
  };
  struct Fire {
    const TtaPMove* mv;
    std::uint32_t value;
  };
  std::uint32_t max_instr_moves = 0;
  for (std::size_t i = 0; i < num_instrs; ++i) {
    max_instr_moves = std::max(max_instr_moves, instr_begin[i + 1] - instr_begin[i]);
  }
  const std::size_t pend_cap = max_instr_moves + 1;
  std::vector<RfWrite> rf_pend_vec(2 * pend_cap);
  std::vector<GuardWrite> guard_pend_vec(2 * pend_cap);
  std::uint32_t rf_pend_n[2] = {0, 0};
  std::uint32_t guard_pend_n[2] = {0, 0};
  std::vector<Fire> fires_vec(pend_cap);

  std::uint32_t* const rf = rf_vec.data();
  std::uint32_t* const fu_operand = fu_operand_vec.data();
  std::uint32_t* const fu_result = fu_result_vec.data();
  std::uint8_t* const guard_regs = guard_vec.data();
  RfWrite* const rf_pend = rf_pend_vec.data();
  GuardWrite* const guard_pend = guard_pend_vec.data();
  Fire* const fires = fires_vec.data();

  ExecResult result;
  std::uint64_t cycle = 0;
  std::size_t pc = 0;
  int transfer_in = -1;
  std::size_t transfer_target = 0;
  [[maybe_unused]] std::uint32_t last_arch = 0;
  if (from != nullptr) {
    // The ring restarts at column 0: a result due d cycles on lands in
    // column d; the pending writes all commit at the top of `cycle`.
    TTSC_ASSERT(from->regs.size() == rf_vec.size() && from->fu_operand.size() == nfus &&
                    from->fu_result.size() == nfus && from->guards.size() == guard_vec.size(),
                "TTA snapshot of another machine");
    TTSC_ASSERT(from->rf_writes.size() < pend_cap && from->guard_writes.size() < pend_cap,
                "TTA snapshot overflows the pending writes");
    std::copy(from->regs.begin(), from->regs.end(), rf);
    std::copy(from->fu_operand.begin(), from->fu_operand.end(), fu_operand);
    std::copy(from->fu_result.begin(), from->fu_result.end(), fu_result);
    std::copy(from->guards.begin(), from->guards.end(), guard_regs);
    for (const sim::Snapshot::InFlight& r : from->fu_results) {
      TTSC_ASSERT(r.due < ring && ring_count[r.due] < nfus, "TTA snapshot overflows the ring");
      ring_entry[r.due * nfus + ring_count[r.due]++] = InFlight{r.slot, r.value};
    }
    cycle = from->cycle;
    const std::size_t half = (cycle & 1) * pend_cap;
    for (const sim::Snapshot::InFlight& w : from->rf_writes) {
      rf_pend[half + rf_pend_n[cycle & 1]++] = RfWrite{w.slot, w.value, w.rf, w.reg};
    }
    for (const sim::Snapshot::InFlight& g : from->guard_writes) {
      guard_pend[half + guard_pend_n[cycle & 1]++] =
          GuardWrite{g.slot, static_cast<std::uint8_t>(g.value)};
    }
    pc = from->pc;
    transfer_in = from->transfer_in;
    transfer_target = from->transfer_target;
    last_arch = from->last_arch;
  }
  if constexpr (kLanes) {
    TTSC_ASSERT(lanes_->tta_ids().pend_cap == pend_cap,
                "TTA lane ids of another pending-list capacity");
    lanes_->start(rf_vec, nullptr, &fu_result_vec, &guard_vec);
  }

  auto capture_state = [&] {
    if constexpr (kProfile) {
      // Writes still pending at halt never commit (the observer's
      // on_rf_write never fires for them either).
      for (std::size_t h = 0; h < 2; ++h) {
        for (std::uint32_t i = 0; i < rf_pend_n[h]; ++i) {
          ++prof->uncommitted_rf_writes[static_cast<std::size_t>(rf_pend[h * pend_cap + i].rf)];
        }
      }
      prof->final_pc = last_arch;
      prof->end_pc = static_cast<std::uint32_t>(pc);
      prof->end_transfer_in = transfer_in;
      prof->end_transfer_target =
          transfer_in >= 0 ? static_cast<std::int32_t>(transfer_target) : -1;
    }
    result.rf_state = rf_vec;
    result.guard_state = guard_vec;
  };

  auto set_trap = [&](sim::TrapReason reason, int unit, std::uint32_t detail) {
    result.status = sim::ExecStatus::Trapped;
    result.trap = sim::TrapInfo{reason, cycle, unit, detail};
    result.cycles = cycle;
    capture_state();
  };

  // SEU state faults (sim/fault.hpp), applied at the top of their cycle.
  [[maybe_unused]] const sim::StateFault* fault_begin = nullptr;
  [[maybe_unused]] const sim::StateFault* fault_next = nullptr;
  [[maybe_unused]] const sim::StateFault* fault_end = nullptr;
  if (options_.faults != nullptr) {
    fault_begin = options_.faults->faults.data();
    fault_end = fault_begin + options_.faults->faults.size();
    fault_next = fault_begin + (from != nullptr ? from->faults_applied : 0);
    TTSC_ASSERT(fault_next <= fault_end, "snapshot fault cursor past the fault set");
  }
  // Declared protection semantics (sim/protect.hpp): fault filters at the
  // apply sites, code/checker checks at the read sites, poison clears at
  // the commit sites. Null on unprotected runs.
  [[maybe_unused]] sim::ProtectState* const prot = options_.protect;
  [[maybe_unused]] auto apply_fault = [&](const sim::StateFault& f) {
    switch (f.kind) {
      case sim::FaultKind::RfBit: {
        if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine_.rfs.size()) return;
        if (f.index < 0 || f.index >= machine_.rfs[static_cast<std::size_t>(f.unit)].size) return;
        const std::uint32_t slot =
            pre.rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
        const std::uint32_t mask = sim::fault_mask(f);
        if constexpr (kProtect) {
          if (prot != nullptr) prot->on_rf_flip(slot, mask);
        }
        rf[slot] ^= mask;
        break;
      }
      case sim::FaultKind::FuResultBit: {
        if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= nfus) return;
        const std::uint32_t mask = sim::fault_mask(f);
        if constexpr (kProtect) {
          if (prot != nullptr) prot->on_fu_flip(static_cast<std::uint32_t>(f.unit), mask);
        }
        fu_result[static_cast<std::size_t>(f.unit)] ^= mask;
        break;
      }
      case sim::FaultKind::GuardBit:
        if (f.unit < 0 || f.unit >= machine_.guard_regs) return;
        if constexpr (kProtect) {
          if (prot != nullptr && !prot->on_guard_flip()) break;
        }
        guard_regs[static_cast<std::size_t>(f.unit)] ^= 1u;
        break;
    }
  };

  // Block-entry lookup for on_block_enter: entry pc -> block id, last block
  // wins when empty blocks share a pc. Only built when observing.
  std::vector<std::int32_t> entry_of;
  if constexpr (kObserve) {
    entry_of.assign(num_instrs, -1);
    for (std::size_t b = 0; b < program_.block_entry.size(); ++b) {
      const std::size_t entry = program_.block_entry[b];
      if (entry < num_instrs) entry_of[entry] = static_cast<std::int32_t>(b);
    }
  }

  std::size_t ring_idx = 0;
  const std::uint64_t end_cycle = std::min(max_cycles, stop_at);
  while (cycle < end_cycle) {
    // 0. State faults land between cycles: before result delivery, RF
    // commits and guard latching, so both execution paths observe the
    // identical corrupted state from this cycle on.
    if constexpr (kHarden) {
      while (fault_next != fault_end && fault_next->cycle <= cycle) {
        apply_fault(*fault_next);
        ++fault_next;
      }
    }
    if constexpr (kLanes) {
      // Settled: the batch takes its reference outcome instead.
      if (lanes_->top(cycle, static_cast<std::uint32_t>(pc))) return result;
    }
    // 1. Results whose latency elapsed land in the result registers.
    if (ring_count[ring_idx] != 0) {
      InFlight* const col = &ring_entry[ring_idx * nfus];
      const std::uint32_t n = ring_count[ring_idx];
      for (std::uint32_t e = 0; e < n; ++e) {
        if constexpr (kLanes) {
          const sim::TtaLaneIds& ids = lanes_->tta_ids();
          lanes_->commit(ids.ring + ring_idx * nfus + e, ids.result + col[e].fu, col[e].value);
        }
        fu_result[col[e].fu] = col[e].value;
        if constexpr (kProtect) {
          if (prot != nullptr) prot->clear_fu(col[e].fu);
        }
      }
      ring_count[ring_idx] = 0;
    }
    const std::size_t now = cycle & 1;
    const std::size_t next = now ^ 1;
    // 2. RF writes from the previous cycle become readable.
    const RfWrite* const commits = rf_pend + now * pend_cap;
    for (std::uint32_t i = 0, n = rf_pend_n[now]; i < n; ++i) {
      const RfWrite& w = commits[i];
      if constexpr (kLanes) {
        lanes_->commit(lanes_->tta_ids().rf_pending + now * pend_cap + i, w.slot, w.value);
      }
      rf[w.slot] = w.value;
      if constexpr (kProtect) {
        if (prot != nullptr) prot->clear_rf(w.slot);
      }
      if constexpr (kObserve) obs->on_rf_write(cycle, w.rf, w.reg, w.value);
    }
    rf_pend_n[now] = 0;
    // 2b. Guard writes from the previous cycle latch in.
    const GuardWrite* const latches = guard_pend + now * pend_cap;
    for (std::uint32_t i = 0, n = guard_pend_n[now]; i < n; ++i) {
      const GuardWrite& g = latches[i];
      if constexpr (kLanes) {
        const sim::TtaLaneIds& ids = lanes_->tta_ids();
        lanes_->commit(ids.guard_pending + now * pend_cap + i, ids.guard + g.guard, g.value);
      }
      guard_regs[g.guard] = g.value;
      if constexpr (kObserve) obs->on_guard_write(cycle, static_cast<int>(g.guard), g.value);
    }
    guard_pend_n[now] = 0;

    if (pc >= num_instrs && transfer_in < 0) {
      // The PC ran off the end with no transfer pending: fail closed.
      set_trap(sim::TrapReason::PcOutOfRange, -1, static_cast<std::uint32_t>(pc));
      return result;
    }
    if (pc < num_instrs) {
      if constexpr (kProtect) {
        // Protected imem: the fetch either scrubs a correctable codeword
        // (counted once) or detects an uncorrectable one and fails closed.
        if (prot != nullptr &&
            prot->check_imem_fetch(static_cast<std::uint32_t>(pc)) ==
                sim::ProtectState::ImemAction::Detected) {
          set_trap(sim::TrapReason::ProtectionDetected, -1, static_cast<std::uint32_t>(pc));
          return result;
        }
      }
      if constexpr (kObserve) {
        // Only architectural block entries: a block-entry pc executing in a
        // pending transfer's delay-slot shadow does not enter that block
        // (the profile layer relies on this for clean IR-level edges).
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
      const std::uint32_t begin = instr_begin[pc];
      const std::uint32_t end = instr_begin[pc + 1];
      RfWrite* const rf_queue = rf_pend + next * pend_cap;
      GuardWrite* const guard_queue = guard_pend + next * pend_cap;
      std::uint32_t n_rf = 0;
      std::uint32_t n_guard = 0;
      std::size_t nfires = 0;
      // A guarded move whose guard disagrees occupies its bus with no
      // effect. Both helpers are always inlined: called out of line from
      // the switch's 26 cases (GCC does so in the Protect loop), their
      // captured locals would live in memory. GCC ignores [[gnu::...]] in
      // this position, where it applies to the lambda's type.
      auto squashed = [&](const TtaPMove& mv, std::uint32_t m) __attribute__((always_inline)) {
        if ((guard_regs[static_cast<std::size_t>(mv.guard)] != 0) != mv.guard_negate) {
          return false;
        }
        if constexpr (kObserve) obs->on_guard_squash(cycle, mv.bus);
        if constexpr (kProfile) {
          ++prof->squash[2 * static_cast<std::size_t>(m) + (transfer_in >= 0 ? 1u : 0u)];
        }
        return true;
      };
      // One transport: sample the source and write a non-trigger sink (RF
      // and guard writes are deferred a cycle) or queue a trigger. False
      // when a protection check trapped the run.
      auto transport = [&]<Src kSrc, Sink kSink>(const TtaPMove& mv)
                           __attribute__((always_inline)) {
        std::uint32_t value;
        if constexpr (kSrc == Src::Imm) {
          value = mv.imm;
        } else if constexpr (kSrc == Src::FuResult) {
          if constexpr (kProtect) {
            // DMR/residue checkers compare when the result is consumed.
            if (prot != nullptr && prot->check_fu_read(mv.src_slot, fu_result[mv.src_slot])) {
              rf_pend_n[next] = n_rf;
              set_trap(sim::TrapReason::ProtectionDetected, -1, mv.src_slot);
              return false;
            }
          }
          value = fu_result[mv.src_slot];
        } else if constexpr (kSrc == Src::RfRead) {
          if constexpr (kProtect) {
            // Storage codes check (and SEC-DED scrubs) on read.
            if (prot != nullptr && prot->check_rf_read(mv.src_slot, &rf[mv.src_slot])) {
              rf_pend_n[next] = n_rf;
              set_trap(sim::TrapReason::ProtectionDetected, -1, mv.src_slot);
              return false;
            }
          }
          value = rf[mv.src_slot];
          if constexpr (kObserve) obs->on_rf_read(cycle, mv.src_rf, mv.src_reg);
        }
        if constexpr (kObserve) obs->on_move(cycle, mv.bus);
        if constexpr (kSink == Sink::Operand) {
          fu_operand[mv.dst_slot] = value;
        } else if constexpr (kSink == Sink::Fire) {
          fires[nfires++] = Fire{&mv, value};
        } else if constexpr (kSink == Sink::Rf) {
          rf_queue[n_rf++] = RfWrite{mv.dst_slot, value, mv.dst_rf, mv.dst_reg};
        } else {
          guard_queue[n_guard++] = GuardWrite{mv.dst_slot, static_cast<std::uint8_t>(value != 0)};
        }
        return true;
      };
      // 3+4a. Sample sources and write non-trigger destinations: one switch
      // on the move's kind per move. Sources never read a state this pass
      // mutates, so sampling and writing interleave exactly. The lanes
      // follow each guard test and each transport to a non-trigger sink;
      // the plain loops keep their guarded case's form, which GCC compiles
      // differently when restructured.
      for (std::uint32_t m = begin; m < end; ++m) {
        const TtaPMove& mv = moves[m];
        if constexpr (kLanes) {
          if (mv.guard >= 0) lanes_->guard(mv);
        }
        switch (mv.kind) {
#define TTSC_TTA_TRANSPORT(SRC, SINK)                                                   \
  case TtaPMove::transport_kind(Src::SRC, Sink::SINK):                                  \
    if constexpr (kLanes && Sink::SINK != Sink::Fire) {                                 \
      lanes_->move(mv, next, Sink::SINK == Sink::Rf ? n_rf : n_guard);                  \
    }                                                                                   \
    if (!transport.template operator()<Src::SRC, Sink::SINK>(mv)) return result;        \
    break;                                                                              \
  case TtaPMove::transport_kind(Src::SRC, Sink::SINK) + TtaPMove::kGuarded:             \
    if constexpr (kLanes) {                                                             \
      if (squashed(mv, m)) break;                                                       \
      if constexpr (Sink::SINK != Sink::Fire) {                                         \
        lanes_->move(mv, next, Sink::SINK == Sink::Rf ? n_rf : n_guard);                \
      }                                                                                 \
      if (!transport.template operator()<Src::SRC, Sink::SINK>(mv)) return result;      \
    } else if (!squashed(mv, m) &&                                                      \
               !transport.template operator()<Src::SRC, Sink::SINK>(mv)) {              \
      return result;                                                                    \
    }                                                                                   \
    break;
          TTSC_TTA_TRANSPORT(Imm, Operand)
          TTSC_TTA_TRANSPORT(Imm, Fire)
          TTSC_TTA_TRANSPORT(Imm, Rf)
          TTSC_TTA_TRANSPORT(Imm, Guard)
          TTSC_TTA_TRANSPORT(FuResult, Operand)
          TTSC_TTA_TRANSPORT(FuResult, Fire)
          TTSC_TTA_TRANSPORT(FuResult, Rf)
          TTSC_TTA_TRANSPORT(FuResult, Guard)
          TTSC_TTA_TRANSPORT(RfRead, Operand)
          TTSC_TTA_TRANSPORT(RfRead, Fire)
          TTSC_TTA_TRANSPORT(RfRead, Rf)
          TTSC_TTA_TRANSPORT(RfRead, Guard)
#undef TTSC_TTA_TRANSPORT
          // Fail-closed: an illegal move (decode-time trap marker) traps
          // when it executes; a squashed guard suppresses it. Valid
          // programs never carry trap moves.
          case TtaPMove::kTrapKind + TtaPMove::kGuarded:
            if (squashed(mv, m)) break;
            [[fallthrough]];
          case TtaPMove::kTrapKind:
            rf_pend_n[next] = n_rf;
            set_trap(static_cast<sim::TrapReason>(mv.trap - 1), mv.bus, mv.trap_detail);
            return result;
          default: TTSC_UNREACHABLE("bad TTA move kind");
        }
      }
      rf_pend_n[next] = n_rf;
      guard_pend_n[next] = n_guard;
      // 4b. Triggers fire using this cycle's operand port contents.
      for (std::size_t fi = 0; fi < nfires; ++fi) {
        const Fire& f = fires[fi];
        const TtaPMove& mv = *f.mv;
        const std::size_t fu = mv.dst_slot;
        if (mv.dst == TtaPMove::Dst::ControlTrigger) {
          if (transfer_in >= 0) continue;  // squashed in a transfer shadow
          if constexpr (kObserve) obs->on_trigger(cycle, static_cast<int>(fu), mv.opcode);
          switch (mv.fire) {
            case TtaPMove::Fire::Jump:
              transfer_in = delay_slots;
              transfer_target = mv.target_pc;
              if constexpr (kProfile) {
                ++prof->taken[static_cast<std::size_t>(f.mv - moves)];
              }
              break;
            case TtaPMove::Fire::Bnz:
              if constexpr (kLanes) lanes_->bnz(lanes_->operands(mv), fu_operand[fu]);
              if (fu_operand[fu] != 0) {
                transfer_in = delay_slots;
                transfer_target = mv.target_pc;
                if constexpr (kProfile) {
                  ++prof->taken[static_cast<std::size_t>(f.mv - moves)];
                }
              }
              break;
            case TtaPMove::Fire::Ret:
              if constexpr (kLanes) lanes_->ret(lanes_->operands(mv));
              result.cycles = cycle + 1;
              result.ret = fu_operand[fu];
              capture_state();
              return result;
            default: TTSC_UNREACHABLE("bad control trigger opcode");
          }
          continue;
        }
        if constexpr (kHarden) {
          // The trigger value is the address of every memory operation.
          if constexpr (kLanes) {
            lanes_->mem_access(lanes_->operands(mv), f.value, fu_operand[fu],
                               static_cast<int>(fu));
          }
          if (ir::is_memory(mv.opcode) && !sim::mem_in_bounds(mv.opcode, f.value, mem_.size())) {
            set_trap(sim::TrapReason::MemoryOutOfRange, static_cast<int>(fu), f.value);
            return result;
          }
        }
        if constexpr (kObserve) obs->on_trigger(cycle, static_cast<int>(fu), mv.opcode);
        switch (mv.fire) {
          // Stores commit their side effect in the trigger cycle.
          case TtaPMove::Fire::Store:
            switch (mv.opcode) {
              case Opcode::Stw:
                mem_.store32(f.value, fu_operand[fu]);
                if constexpr (kObserve) obs->on_store(cycle, f.value, fu_operand[fu], 4);
                break;
              case Opcode::Sth:
                mem_.store16(f.value, static_cast<std::uint16_t>(fu_operand[fu]));
                if constexpr (kObserve)
                  obs->on_store(cycle, f.value, fu_operand[fu] & 0xffffu, 2);
                break;
              case Opcode::Stq:
                mem_.store8(f.value, static_cast<std::uint8_t>(fu_operand[fu]));
                if constexpr (kObserve)
                  obs->on_store(cycle, f.value, fu_operand[fu] & 0xffu, 1);
                break;
              default: TTSC_UNREACHABLE("bad store opcode");
            }
            if constexpr (kLanes) lanes_->store(lanes_->operands(mv), f.value, fu_operand[fu]);
            break;
          case TtaPMove::Fire::Input:
          case TtaPMove::Fire::Binary: {
            // Binary ops: operand port is the first input, trigger the
            // second; loads/unary read only the triggered value.
            const std::uint32_t a =
                mv.fire == TtaPMove::Fire::Input ? f.value : fu_operand[fu];
            const std::uint32_t b = mv.fire == TtaPMove::Fire::Input ? 0 : f.value;
            const std::uint32_t v = sim::compute(mv.opcode, a, b, mem_);
            std::size_t col = ring_idx + static_cast<std::size_t>(mv.latency);
            if (col >= ring) col -= ring;  // latency < ring: one wrap at most
            InFlight* const entries = &ring_entry[col * nfus];
            const std::uint32_t n = ring_count[col];
            // Same-cycle completion ties on one FU resolve to the larger
            // value, matching the reference priority queue's pop order.
            std::uint32_t e = 0;
            while (e < n && entries[e].fu != fu) ++e;
            if constexpr (kLanes) {
              lanes_->write(lanes_->tta_ids().ring + col * nfus + e, lanes_->operands(mv), a, b,
                            v, e < n ? &entries[e].value : nullptr);
            }
            if (e < n) {
              entries[e].value = std::max(entries[e].value, v);
            } else {
              entries[n] = InFlight{static_cast<std::uint32_t>(fu), v};
              ring_count[col] = n + 1;
            }
            break;
          }
          default: TTSC_UNREACHABLE("bad trigger fire class");
        }
      }
    }

    ++cycle;
    if (++ring_idx == ring) ring_idx = 0;
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
    // Stopped at the top of `stop_at`, before its faults and deliveries.
    // Only the half committing now holds writes: the other was emptied at
    // the top of the previous cycle and fills during this one.
    sim::Snapshot snap;
    snap.cycle = cycle;
    snap.pc = static_cast<std::uint32_t>(pc);
    snap.transfer_in = transfer_in;
    snap.transfer_target = static_cast<std::uint32_t>(transfer_target);
    snap.faults_applied = static_cast<std::uint32_t>(fault_next - fault_begin);
    snap.last_arch = last_arch;
    snap.regs = std::move(rf_vec);
    snap.fu_operand = std::move(fu_operand_vec);
    snap.fu_result = std::move(fu_result_vec);
    snap.guards = std::move(guard_vec);
    for (std::size_t due = 0; due < ring; ++due) {
      const std::size_t col = (ring_idx + due) % ring;
      for (std::uint32_t e = 0; e < ring_count[col]; ++e) {
        const InFlight& r = ring_entry[col * nfus + e];
        snap.fu_results.push_back({static_cast<std::uint32_t>(due), r.fu, r.value});
      }
    }
    const std::size_t now = cycle & 1;
    TTSC_ASSERT(rf_pend_n[now ^ 1] == 0 && guard_pend_n[now ^ 1] == 0,
                "TTA writes queued past the next cycle");
    for (std::uint32_t i = 0; i < rf_pend_n[now]; ++i) {
      const RfWrite& w = rf_pend[now * pend_cap + i];
      snap.rf_writes.push_back({0, w.slot, w.value, w.rf, w.reg});
    }
    for (std::uint32_t i = 0; i < guard_pend_n[now]; ++i) {
      const GuardWrite& g = guard_pend[now * pend_cap + i];
      snap.guard_writes.push_back({0, g.guard, g.value});
    }
    return snap;
  }
  result.status = sim::ExecStatus::TimedOut;
  result.cycles = max_cycles;
  capture_state();
  return result;
}

ExecResult TtaSim::run_reference(std::uint64_t max_cycles) {
  sim::ExecObserver* const obs = options_.observer;
  sim::ProfileCounts* const prof = options_.profile;
  // Flat program-order move indices for the squash and taken-transfer
  // counters — the same numbering the predecoded path gets for free
  // (predecode emits exactly one record per source move, trap markers
  // included).
  std::vector<std::uint32_t> move_begin;
  if (prof != nullptr) {
    move_begin.reserve(program_.instrs.size() + 1);
    std::uint32_t flat = 0;
    move_begin.push_back(0);
    for (const TtaInstruction& in : program_.instrs) {
      flat += static_cast<std::uint32_t>(in.moves.size());
      move_begin.push_back(flat);
    }
  }
  std::vector<std::vector<std::uint32_t>> rfs;
  // Flat-slot bases mirroring sim/predecode.hpp's rf_base numbering, so
  // protection poison keys agree byte-for-byte with the fast path.
  std::vector<std::uint32_t> rf_base;
  std::uint32_t rf_slots = 0;
  for (const mach::RegisterFile& rf : machine_.rfs) {
    rfs.emplace_back(static_cast<std::size_t>(rf.size), 0u);
    rf_base.push_back(rf_slots);
    rf_slots += static_cast<std::uint32_t>(rf.size);
  }
  std::vector<FuRuntime> fus(machine_.fus.size());
  sim::ProtectState* const prot = options_.protect;
  std::priority_queue<RfWritePending, std::vector<RfWritePending>, std::greater<>> rf_pending;

  ExecResult result;
  // Guard registers: current values plus next-cycle updates.
  std::vector<bool> guard_regs(static_cast<std::size_t>(machine_.guard_regs), false);
  std::vector<std::pair<int, bool>> guard_pending;  // applied at next cycle
  std::uint64_t cycle = 0;
  std::size_t pc = 0;
  int transfer_in = -1;
  std::size_t transfer_target = 0;
  std::uint32_t last_arch = 0;

  auto capture_state = [&] {
    if (prof != nullptr) {
      // Writes still in flight at halt were issued but never committed —
      // same one-time fill as the fast loop's capture_state.
      auto pend = rf_pending;
      while (!pend.empty()) {
        ++prof->uncommitted_rf_writes[static_cast<std::size_t>(pend.top().rf)];
        pend.pop();
      }
      prof->final_pc = last_arch;
      prof->end_pc = static_cast<std::uint32_t>(pc);
      prof->end_transfer_in = transfer_in;
      prof->end_transfer_target =
          transfer_in >= 0 ? static_cast<std::int32_t>(transfer_target) : -1;
    }
    result.rf_state.clear();
    for (const auto& rf : rfs) result.rf_state.insert(result.rf_state.end(), rf.begin(), rf.end());
    result.guard_state.clear();
    for (const bool g : guard_regs) result.guard_state.push_back(g ? 1 : 0);
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
    switch (f.kind) {
      case sim::FaultKind::RfBit: {
        if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= rfs.size()) return;
        auto& file = rfs[static_cast<std::size_t>(f.unit)];
        if (f.index < 0 || static_cast<std::size_t>(f.index) >= file.size()) return;
        const std::uint32_t mask = sim::fault_mask(f);
        if (prot != nullptr) {
          prot->on_rf_flip(
              rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index),
              mask);
        }
        file[static_cast<std::size_t>(f.index)] ^= mask;
        break;
      }
      case sim::FaultKind::FuResultBit: {
        if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= fus.size()) return;
        const std::uint32_t mask = sim::fault_mask(f);
        if (prot != nullptr) prot->on_fu_flip(static_cast<std::uint32_t>(f.unit), mask);
        fus[static_cast<std::size_t>(f.unit)].result ^= mask;
        break;
      }
      case sim::FaultKind::GuardBit:
        if (f.unit < 0 || f.unit >= machine_.guard_regs) return;
        if (prot == nullptr || prot->on_guard_flip()) {
          guard_regs[static_cast<std::size_t>(f.unit)] =
              !guard_regs[static_cast<std::size_t>(f.unit)];
        }
        break;
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
  }

  // Trigger port writes collected per cycle, fired after operand writes.
  struct TriggerFire {
    int fu;
    Opcode op;
    std::uint32_t value;
    std::uint32_t target_block;
    std::uint32_t flat;  // flat program-order move index (profiling only)
    bool is_control;
  };

  while (cycle < max_cycles) {
    // 0. State faults land between cycles (see the fast loop).
    while (fault_next != fault_end && fault_next->cycle <= cycle) {
      apply_fault(*fault_next);
      ++fault_next;
    }
    // 1. Results whose latency elapsed land in the result registers.
    for (std::size_t fi = 0; fi < fus.size(); ++fi) {
      FuRuntime& fu = fus[fi];
      while (!fu.in_flight.empty() && fu.in_flight.top().first <= cycle) {
        fu.result = fu.in_flight.top().second;
        fu.in_flight.pop();
        if (prot != nullptr) prot->clear_fu(static_cast<std::uint32_t>(fi));
      }
    }
    // 2. RF writes from earlier cycles become readable.
    while (!rf_pending.empty() && rf_pending.top().visible_at <= cycle) {
      const RfWritePending& w = rf_pending.top();
      rfs[static_cast<std::size_t>(w.rf)][static_cast<std::size_t>(w.index)] = w.value;
      if (prot != nullptr) {
        prot->clear_rf(rf_base[static_cast<std::size_t>(w.rf)] +
                       static_cast<std::uint32_t>(w.index));
      }
      if (obs != nullptr) obs->on_rf_write(cycle, w.rf, w.index, w.value);
      rf_pending.pop();
    }
    // 2b. Guard writes from the previous cycle latch in.
    for (const auto& [g, v] : guard_pending) {
      guard_regs[static_cast<std::size_t>(g)] = v;
      if (obs != nullptr) obs->on_guard_write(cycle, g, v ? 1u : 0u);
    }
    guard_pending.clear();

    if (pc >= program_.instrs.size() && transfer_in < 0) {
      // The PC ran off the end with no transfer pending: fail closed.
      set_trap(sim::TrapReason::PcOutOfRange, -1, static_cast<std::uint32_t>(pc));
      return result;
    }
    if (pc < program_.instrs.size()) {
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
      const TtaInstruction& instr = program_.instrs[pc];

      // 3+4a. Sample sources and write non-trigger destinations move by
      // move, exactly like the fast loop (sources never read a state this
      // pass mutates, so per-move interleaving equals bulk sampling). Each
      // move is validated first — the execute-time mirror of the fail-closed
      // decode on the predecoded path (sim/harden.hpp): a corrupt guard
      // index traps unconditionally, any other illegal field traps unless a
      // valid guard squashed the move.
      std::vector<TriggerFire> fires;
      for (std::size_t mi = 0; mi < instr.moves.size(); ++mi) {
        const Move& mv = instr.moves[mi];
        const int bus =
            (mv.bus >= 0 && static_cast<std::size_t>(mv.bus) < machine_.buses.size()) ? mv.bus
                                                                                      : -1;
        const sim::DecodeCheck chk =
            sim::check_tta_move(mv, machine_, program_.block_entry.size());
        if (!chk.ok() && chk.guard_trap) {
          set_trap(chk.reason(), bus, chk.detail);
          return result;
        }
        if (mv.guard >= 0) {
          const bool g = guard_regs[static_cast<std::size_t>(mv.guard)];
          if (g == mv.guard_negate) {  // squashed
            if (obs != nullptr) obs->on_guard_squash(cycle, mv.bus);
            if (prof != nullptr) {
              ++prof->squash[2 * static_cast<std::size_t>(move_begin[pc] + mi) +
                             (transfer_in >= 0 ? 1u : 0u)];
            }
            continue;
          }
        }
        if (!chk.ok()) {
          set_trap(chk.reason(), bus, chk.detail);
          return result;
        }
        std::uint32_t value = 0;
        switch (mv.src.kind) {
          case MoveSrc::Kind::Imm: value = static_cast<std::uint32_t>(mv.src.imm); break;
          case MoveSrc::Kind::FuResult:
            if (prot != nullptr &&
                prot->check_fu_read(static_cast<std::uint32_t>(mv.src.unit),
                                    fus[static_cast<std::size_t>(mv.src.unit)].result)) {
              set_trap(sim::TrapReason::ProtectionDetected, -1,
                       static_cast<std::uint32_t>(mv.src.unit));
              return result;
            }
            value = fus[static_cast<std::size_t>(mv.src.unit)].result;
            break;
          case MoveSrc::Kind::RfRead: {
            std::uint32_t& stored = rfs[static_cast<std::size_t>(mv.src.unit)]
                                       [static_cast<std::size_t>(mv.src.reg_index)];
            if (prot != nullptr) {
              const std::uint32_t slot = rf_base[static_cast<std::size_t>(mv.src.unit)] +
                                         static_cast<std::uint32_t>(mv.src.reg_index);
              if (prot->check_rf_read(slot, &stored)) {
                set_trap(sim::TrapReason::ProtectionDetected, -1, slot);
                return result;
              }
            }
            value = stored;
            break;
          }
        }
        if (obs != nullptr) {
          if (mv.src.kind == MoveSrc::Kind::RfRead) {
            obs->on_rf_read(cycle, mv.src.unit, mv.src.reg_index);
          }
          obs->on_move(cycle, mv.bus);
        }
        switch (mv.dst.kind) {
          case MoveDst::Kind::FuOperand:
            fus[static_cast<std::size_t>(mv.dst.unit)].operand = value;
            break;
          case MoveDst::Kind::RfWrite:
            rf_pending.push(RfWritePending{cycle + 1, mv.dst.unit, mv.dst.reg_index, value});
            break;
          case MoveDst::Kind::GuardWrite:
            guard_pending.emplace_back(mv.dst.unit, value != 0);
            break;
          case MoveDst::Kind::FuTrigger:
            fires.push_back(TriggerFire{
                mv.dst.unit, mv.dst.opcode, value, mv.target,
                prof != nullptr ? move_begin[pc] + static_cast<std::uint32_t>(mi) : 0u,
                mv.is_control});
            break;
        }
      }
      // 4b. Triggers fire using this cycle's operand port contents.
      for (const TriggerFire& f : fires) {
        FuRuntime& fu = fus[static_cast<std::size_t>(f.fu)];
        if (f.is_control) {
          if (transfer_in >= 0) continue;  // squashed in a transfer shadow
          if (obs != nullptr) obs->on_trigger(cycle, f.fu, f.op);
          switch (f.op) {
            case Opcode::Jump:
              transfer_in = machine_.delay_slots;
              transfer_target = program_.block_entry[f.target_block];
              if (prof != nullptr) ++prof->taken[f.flat];
              break;
            case Opcode::Bnz:
              if (fu.operand != 0) {
                transfer_in = machine_.delay_slots;
                transfer_target = program_.block_entry[f.target_block];
                if (prof != nullptr) ++prof->taken[f.flat];
              }
              break;
            case Opcode::Ret:
              result.cycles = cycle + 1;
              result.ret = fu.operand;
              capture_state();
              return result;
            case Opcode::Call:
              TTSC_UNREACHABLE("calls must be inlined before TTA scheduling");
            default:
              TTSC_UNREACHABLE("bad control trigger opcode");
          }
          continue;
        }
        // The trigger value is the address of every memory operation; fail
        // closed on an out-of-range access (always: this is not a hot path).
        if (ir::is_memory(f.op) && !sim::mem_in_bounds(f.op, f.value, mem_.size())) {
          set_trap(sim::TrapReason::MemoryOutOfRange, f.fu, f.value);
          return result;
        }
        if (obs != nullptr) obs->on_trigger(cycle, f.fu, f.op);
        const int lat = machine_.fus[static_cast<std::size_t>(f.fu)].latency(f.op);
        switch (f.op) {
          // Stores commit their side effect in the trigger cycle.
          case Opcode::Stw:
            mem_.store32(f.value, fu.operand);
            if (obs != nullptr) obs->on_store(cycle, f.value, fu.operand, 4);
            break;
          case Opcode::Sth:
            mem_.store16(f.value, static_cast<std::uint16_t>(fu.operand));
            if (obs != nullptr) obs->on_store(cycle, f.value, fu.operand & 0xffffu, 2);
            break;
          case Opcode::Stq:
            mem_.store8(f.value, static_cast<std::uint8_t>(fu.operand));
            if (obs != nullptr) obs->on_store(cycle, f.value, fu.operand & 0xffu, 1);
            break;
          default: {
            // Binary ops: operand port is the first input, trigger the
            // second — except loads/unary where the trigger is the input,
            // and stores (above) where the trigger is the address.
            std::uint32_t a;
            std::uint32_t b;
            if (ir::is_load(f.op) || f.op == Opcode::Sxhw || f.op == Opcode::Sxqw) {
              a = f.value;
              b = 0;
            } else {
              a = fu.operand;
              b = f.value;
            }
            fu.in_flight.push(
                {cycle + static_cast<std::uint64_t>(lat), sim::compute(f.op, a, b, mem_)});
            break;
          }
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

}  // namespace ttsc::tta
