// Batched lockstep fault-injection execution (see lockstep.hpp).
//
// The scalar and VLIW batches run the leader on the model's own fast loop
// with the RegLanes policy (sim/lanes.hpp); this file holds the policy's
// eviction and result assembly. The TTA engine below is still a mirror of
// TtaSim::run_fast<false, Check::Harden, false> (tta/sim.cpp) with the
// lane hooks written into it, following the same hook discipline. Any
// drift from the plain loop's semantics is caught by the differential
// fleet in tests/lockstep_test.cpp, which locks every lane's ExecResult and
// memory image to a standalone hardened run.
#include "sim/lockstep.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "sim/compute.hpp"
#include "sim/harden.hpp"
#include "sim/lanes.hpp"
#include "sim/observer.hpp"
#include "support/assert.hpp"

namespace ttsc::sim {

using ir::Opcode;

// ---- MemDelta ----------------------------------------------------------

namespace {

template <typename Vec>
auto delta_lower_bound(Vec& bytes, std::uint32_t addr) {
  return std::lower_bound(
      bytes.begin(), bytes.end(), addr,
      [](const std::pair<std::uint32_t, std::uint8_t>& e, std::uint32_t a) { return e.first < a; });
}

}  // namespace

std::uint64_t MemDelta::page_bit(std::uint32_t addr) const {
  return 1ull << ((addr >> 4) & 63);
}

void MemDelta::set(std::uint32_t addr, std::uint8_t lane_byte, std::uint8_t leader_byte) {
  auto it = delta_lower_bound(bytes_, addr);
  if (lane_byte == leader_byte) {
    if (it != bytes_.end() && it->first == addr) {
      bytes_.erase(it);
      if (bytes_.empty()) {  // exact again: drop the stale superset
        lo_ = 0xffffffffu;
        hi_ = 0;
        pages_ = 0;
      }
    }
    return;
  }
  if (it != bytes_.end() && it->first == addr) {
    it->second = lane_byte;
  } else {
    bytes_.insert(it, {addr, lane_byte});
    lo_ = std::min(lo_, addr);
    hi_ = std::max(hi_, addr);
    pages_ |= page_bit(addr);
  }
}

const std::uint8_t* MemDelta::find(std::uint32_t addr) const {
  if (addr < lo_ || addr > hi_ || (pages_ & page_bit(addr)) == 0) return nullptr;
  auto it = delta_lower_bound(bytes_, addr);
  if (it != bytes_.end() && it->first == addr) return &it->second;
  return nullptr;
}

bool MemDelta::overlaps(std::uint32_t addr, std::uint32_t len) const {
  if (len == 0 || bytes_.empty()) return false;
  const std::uint64_t last = static_cast<std::uint64_t>(addr) + len - 1;
  if (addr > hi_ || last < lo_) return false;
  const std::uint32_t pa = addr >> 4;
  const std::uint64_t pb = last >> 4;
  if (pb - pa < 63) {  // spans <64 pages: exact bloom window (rotl handles wrap)
    const std::uint64_t n = pb - pa + 1;
    const std::uint64_t window = std::rotl(n == 64 ? ~0ull : (1ull << n) - 1, pa & 63);
    if ((pages_ & window) == 0) return false;
  }
  auto it = delta_lower_bound(bytes_, addr);
  return it != bytes_.end() &&
         static_cast<std::uint64_t>(it->first) < static_cast<std::uint64_t>(addr) + len;
}

namespace {

/// Lay `delta` over `image`, which holds the leader's bytes.
void apply_delta(ir::Memory& image, const MemDelta& delta) {
  for (const auto& [addr, byte] : delta.entries()) image.store8(addr, byte);
}

}  // namespace

void BatchResult::lane_image(std::size_t lane, ir::Memory& image) const {
  const LaneOutcome& lo = lanes[lane];
  if (lo.evicted) return image.restore(initial, lo.pages);
  image.restore_from(leader_mem);
  apply_delta(image, lo.delta);
}

ir::Memory& BatchCore::scratch_image(const ir::Memory& base, const MemDelta* delta) {
  if (!scratch) {
    scratch.emplace(base);
  } else {
    scratch->restore_from(base);
  }
  if (delta != nullptr) apply_delta(*scratch, *delta);
  return *scratch;
}

std::uint64_t checksum_with_delta(const ir::Memory& leader, const MemDelta& delta,
                                  std::uint32_t addr, std::uint32_t len) {
  const std::span<const std::uint8_t> view = leader.view(addr, len);
  const auto es = delta.entries();
  auto it = std::lower_bound(
      es.begin(), es.end(), addr,
      [](const std::pair<std::uint32_t, std::uint8_t>& e, std::uint32_t a) { return e.first < a; });
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t i = 0; i < len; ++i) {
    std::uint8_t byte = view[i];
    if (it != es.end() && it->first == addr + i) {
      byte = it->second;
      ++it;
    }
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

void store_diverged(LaneDiffs& d, int l, const ir::Memory& mem, int nbytes,
                    std::uint32_t leader_addr, std::uint32_t leader_val, std::uint32_t lane_addr,
                    std::uint32_t lane_val) {
  const LaneMemory lane_mem{mem, d.delta[static_cast<std::size_t>(l)]};
  std::array<std::uint8_t, 4> lane_pre{};
  for (int i = 0; i < nbytes; ++i) {
    lane_pre[static_cast<std::size_t>(i)] =
        lane_mem.load8(leader_addr + static_cast<std::uint32_t>(i));
  }
  for (int i = 0; i < nbytes; ++i) {
    d.mem_set(l, leader_addr + static_cast<std::uint32_t>(i),
              lane_pre[static_cast<std::size_t>(i)],
              static_cast<std::uint8_t>(leader_val >> (8 * i)));
  }
  for (int i = 0; i < nbytes; ++i) {
    const std::uint32_t x = lane_addr + static_cast<std::uint32_t>(i);
    const std::uint32_t off = x - leader_addr;
    const std::uint8_t leader_post =
        off < static_cast<std::uint32_t>(nbytes)
            ? static_cast<std::uint8_t>(leader_val >> (8 * off))
            : static_cast<std::uint8_t>(mem.load8(x));
    d.mem_set(l, x, static_cast<std::uint8_t>(lane_val >> (8 * i)), leader_post);
  }
}

namespace {

// ---- Result assembly ---------------------------------------------------

/// Apply lane `l`'s dirty RF slots — and its return value, when the halt
/// read it from dirty slot `ret_id` (-1: immediate or none) — to `r`, a copy
/// of the leader's result.
void overlay_rf(const LaneDiffs& d, int l, std::uint32_t rf_slots, std::int64_t ret_id,
                ExecResult& r) {
  const std::size_t base = static_cast<std::size_t>(l) * d.n_ids;
  for (std::uint32_t id = 0; id < rf_slots; ++id) {
    if (d.dirty(l, id)) r.rf_state[id] = d.value[base + id];
  }
  if (ret_id >= 0 && d.dirty(l, static_cast<std::size_t>(ret_id))) {
    r.ret = d.value[base + static_cast<std::size_t>(ret_id)];
  }
}

/// Build the BatchResult: evicted lanes keep the outcome their eviction
/// stored; every other lane gets the leader result with its overlays.
template <typename OverlayFn>
BatchResult assemble_batch(BatchCore& core, ExecResult leader_result, ir::Memory leader_mem,
                           OverlayFn&& overlay) {
  BatchResult out;
  out.leader = std::move(leader_result);
  out.leader_mem = std::move(leader_mem);
  out.initial = std::move(core.initial_pages);
  out.evictions = core.evictions;
  out.lanes = std::move(core.lanes);
  for (int l = 0; l < core.n_lanes; ++l) {
    const auto sl = static_cast<std::size_t>(l);
    LaneOutcome& lo = out.lanes[sl];
    if (lo.evicted) continue;
    lo.result = out.leader;
    overlay(l, lo.result);
    lo.delta = std::move(core.d.delta[sl]);
    lo.converged = core.d.dirty_count[sl] == 0 && lo.delta.empty();
  }
  return out;
}

}  // namespace

// ---- The register-file lane policy -------------------------------------

RegLanes::RegLanes(std::span<const FaultSet> lane_faults, std::size_t n_ids,
                   std::uint32_t rf_slots, const std::vector<std::uint32_t>& rf_base,
                   const mach::Machine& machine, const ir::Memory& leader_mem,
                   const ir::Memory& initial_mem, const ExecResult* reference,
                   const ir::Memory* reference_mem, Exit exit, Runner run)
    : lane_faults_(lane_faults),
      rf_slots_(rf_slots),
      rf_base_(rf_base),
      machine_(machine),
      leader_mem_(&leader_mem),
      initial_mem_(&initial_mem),
      reference_(reference),
      reference_mem_(reference_mem),
      exit_(exit),
      run_(std::move(run)) {
  TTSC_ASSERT((reference == nullptr) == (reference_mem == nullptr),
              "reference result and memory must be passed together");
  init(n_ids, lane_faults, initial_mem);
}

void RegLanes::apply_fault(int lane, const StateFault& f) {
  if (f.kind != FaultKind::RfBit) return;
  if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine_.rfs.size()) return;
  if (f.index < 0 || f.index >= machine_.rfs[static_cast<std::size_t>(f.unit)].size) return;
  const std::size_t slot =
      rf_base_[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
  const std::uint32_t leader = (*regs_)[slot];
  d.set(lane, slot, d.get(lane, slot, leader) ^ fault_mask(f), leader);
}

void RegLanes::diverge(int l) {
  if (exit_ == Exit::Resume) return resume(l);
  LaneOutcome& lo = evict(l, now_);
  lo.result = run_(scratch_image(*initial_mem_), lane_faults_[static_cast<std::size_t>(l)],
                   nullptr);
  keep_scratch(lo);
}

void RegLanes::out_of_bounds(int l, int unit, std::uint32_t addr) {
  if (exit_ == Exit::Resume) return resume(l);
  // The lane traps at exactly this cycle, before any further state change,
  // with state lockstep already holds: its standalone run needs no rerun.
  LaneOutcome& lo = evict(l, now_);
  lo.result.status = ExecStatus::Trapped;
  lo.result.trap = TrapInfo{TrapReason::MemoryOutOfRange, now_, unit, addr};
  lo.result.cycles = now_;
  lo.result.rf_state = *regs_;
  overlay_rf(d, l, rf_slots_, -1, lo.result);
  scratch_image(*leader_mem_, &d.delta[static_cast<std::size_t>(l)]);
  keep_scratch(lo);
}

void RegLanes::resume(int l) {
  // Every eviction happens before the divergent instruction issues. Until
  // then a lane's state is the leader's plus its diffs — byte-identical to a
  // standalone hardened run — so the lane resumes on its own loop from there
  // instead of re-simulating the shared prefix from cycle 0.
  const auto sl = static_cast<std::size_t>(l);
  Snapshot from;
  from.regs = *regs_;
  from.ready = *ready_;
  from.cycle = now_;
  from.pc = pc_;
  for (std::uint32_t id = 0; id < rf_slots_; ++id) {
    if (d.dirty(l, id)) from.regs[id] = d.value[sl * d.n_ids + id];
  }
  const FaultSet rest{std::vector<StateFault>(fcur[sl], fend[sl])};
  LaneOutcome& lo = evict(l, now_);
  lo.result = run_(scratch_image(*leader_mem_, &d.delta[sl]), rest, &from);
  keep_scratch(lo);
}

BatchResult RegLanes::finish(ExecResult leader, ir::Memory leader_mem) {
  if (settled_) {
    // The leader stopped early: its image becomes the reference's by
    // copying only the pages either wrote.
    leader = *reference_;
    leader_mem.restore_from(*reference_mem_);
  }
  auto overlay = [&](int l, ExecResult& r) { overlay_rf(d, l, rf_slots_, ret_id_, r); };
  return assemble_batch(*this, std::move(leader), std::move(leader_mem), overlay);
}

// ---- Scalar and VLIW batches -------------------------------------------

namespace {

/// One batch on `Sim`: build the policy over `n_ids` location ids, run the
/// leader's own hardened fast loop with it, and assemble the BatchResult.
/// An evicted lane's own run is a hardened run on `Sim` as well.
template <typename Sim, typename Program, typename Predecoded>
BatchResult run_reg_batch(const Program& program, const mach::Machine& machine,
                          const std::shared_ptr<const Predecoded>& pre,
                          const ir::Memory& initial_mem, std::span<const FaultSet> lane_faults,
                          std::uint64_t max_cycles, const ExecResult* reference,
                          const ir::Memory* reference_mem, std::size_t n_ids,
                          RegLanes::Exit exit) {
  auto run_lane = [&](ir::Memory& mem, const FaultSet& faults, const Snapshot* from) {
    Sim s(program, machine, mem, {.harden = true, .faults = &faults});
    s.use_predecoded(pre);
    return std::get<ExecResult>(s.run(max_cycles, from, kNoStop));
  };
  ir::Memory mem = initial_mem;
  RegLanes lanes(lane_faults, n_ids, pre->rf_slots, pre->rf_base, machine, mem, initial_mem,
                 reference, reference_mem, exit, run_lane);
  Sim leader(program, machine, mem, {.harden = true});
  leader.use_predecoded(pre);
  ExecResult result = leader.run(max_cycles, lanes);
  return lanes.finish(std::move(result), std::move(mem));
}

}  // namespace

BatchResult run_scalar_batch(const scalar::ScalarProgram& program, const mach::Machine& machine,
                             std::shared_ptr<const PredecodedScalar> pre,
                             const ir::Memory& initial_mem,
                             std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                             const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre != nullptr, "run_scalar_batch needs a predecoded program");
  return run_reg_batch<scalar::ScalarSim>(program, machine, pre, initial_mem, lane_faults,
                                          max_cycles, reference, reference_mem, pre->rf_slots,
                                          RegLanes::Exit::Resume);
}

BatchResult run_vliw_batch(const vliw::VliwProgram& program, const mach::Machine& machine,
                           std::shared_ptr<const PredecodedVliw> pre,
                           const ir::Memory& initial_mem,
                           std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                           const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre != nullptr, "run_vliw_batch needs a predecoded program");
  // Location ids: the flat RF slots, then one per write-back ring entry
  // (VliwSim::run_fast's ring of `ring` rows of num_slots * ring entries).
  const std::size_t ring = static_cast<std::size_t>(pre->ring);
  const std::size_t entries = ring * static_cast<std::size_t>(program.num_slots) * ring;
  return run_reg_batch<vliw::VliwSim>(program, machine, pre, initial_mem, lane_faults, max_cycles,
                                      reference, reference_mem, pre->rf_slots + entries,
                                      RegLanes::Exit::RerunOrTrap);
}

// ---- TTA engine --------------------------------------------------------
//
// Mirrors TtaSim::run_fast<false, Check::Harden, false> (tta/sim.cpp), with
// a source and a destination switch per move where the fast loop switches
// on the move's kind. Location ids cover every piece of leader state a lane
// can diverge in: flat RF slots, guard registers, FU operand and result
// ports, the in-flight result ring (one id per (column, entry)) and the
// double-buffered RF/guard pending lists (one id per list position).
// Pending/ring diffs fold into their destination's diff at the commit phase
// that consumes them, mirroring the leader's data flow; guard values are
// stored as 0/1 words. A lane whose guard-squash or Bnz decision differs
// from the leader's is evicted as a proven divergence, and so is one whose
// memory address is out of bounds on one side only.

BatchResult run_tta_batch(const tta::TtaProgram& program, const mach::Machine& machine,
                          std::shared_ptr<const PredecodedTta> pre_ptr,
                          const ir::Memory& initial_mem,
                          std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                          const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre_ptr != nullptr, "run_tta_batch needs a predecoded program");
  TTSC_ASSERT((reference == nullptr) == (reference_mem == nullptr),
              "reference result and memory must be passed together");
  const PredecodedTta& pre = *pre_ptr;
  const std::size_t nfus = machine.fus.size();
  const std::size_t ring = static_cast<std::size_t>(pre.ring);
  const std::size_t num_instrs = pre.num_instrs();
  const std::size_t guard_regs_n = static_cast<std::size_t>(machine.guard_regs);

  std::uint32_t max_instr_moves = 0;
  for (std::size_t i = 0; i < num_instrs; ++i) {
    max_instr_moves = std::max(max_instr_moves, pre.instr_begin[i + 1] - pre.instr_begin[i]);
  }
  const std::size_t max_moves = max_instr_moves;

  // Location-id layout (see the engine comment above).
  const std::size_t gbase = pre.rf_slots;
  const std::size_t fobase = gbase + guard_regs_n;
  const std::size_t frbase = fobase + nfus;
  const std::size_t rbase = frbase + nfus;
  const std::size_t pbase = rbase + ring * nfus;
  const std::size_t gpbase = pbase + 2 * max_moves;
  const std::size_t n_ids = gpbase + 2 * max_moves;

  BatchCore core;
  core.init(n_ids, lane_faults, initial_mem);
  LaneDiffs& d = core.d;

  ir::Memory mem = initial_mem;
  std::vector<std::uint32_t> rf(pre.rf_slots, 0u);
  std::vector<std::uint32_t> fu_operand(nfus, 0u);
  std::vector<std::uint32_t> fu_result(nfus, 0u);
  std::vector<std::uint8_t> guard_regs(guard_regs_n, 0u);

  struct InFlight {
    std::uint32_t fu;
    std::uint32_t value;
  };
  std::vector<InFlight> ring_entry(ring * nfus);
  std::vector<std::uint32_t> ring_count(ring, 0u);

  struct RfWrite {
    std::uint32_t slot;
    std::uint32_t value;
  };
  std::vector<RfWrite> rf_pending[2];
  struct GuardWrite {
    std::uint32_t guard;
    std::uint8_t value;
  };
  std::vector<GuardWrite> guard_pending[2];
  for (int p = 0; p < 2; ++p) {
    rf_pending[p].reserve(max_moves);
    guard_pending[p].reserve(max_moves);
  }
  struct Fire {
    const TtaPMove* mv;
    std::uint32_t value;
  };
  std::vector<Fire> fires(max_instr_moves + 1);

  ExecResult result;
  std::uint64_t cycle = 0;
  std::size_t pc = 0;
  int transfer_in = -1;
  std::size_t transfer_target = 0;

  auto capture_state = [&] {
    result.rf_state = rf;
    result.guard_state = guard_regs;
  };
  // A lane's RF, guard and return-value diffs over a copy of leader state.
  auto overlay = [&](int l, ExecResult& r, std::int64_t ret_id) {
    overlay_rf(d, l, pre.rf_slots, ret_id, r);
    const std::size_t base = static_cast<std::size_t>(l) * d.n_ids;
    for (std::size_t g = 0; g < guard_regs_n; ++g) {
      if (d.dirty(l, gbase + g)) {
        r.guard_state[g] = static_cast<std::uint8_t>(d.value[base + gbase + g]);
      }
    }
  };

  // Trap synthesis: a lane evicted because its memory address is provably
  // out of bounds traps at exactly this cycle, before any further state
  // change — its standalone hardened run's result is fully determined by
  // the lane's state view, so the rerun is skipped.
  auto evict_trap = [&](int l, int fu, std::uint32_t lane_addr) {
    LaneOutcome& lo = core.evict(l, cycle);
    lo.result.status = ExecStatus::Trapped;
    lo.result.trap = TrapInfo{TrapReason::MemoryOutOfRange, cycle, fu, lane_addr};
    lo.result.cycles = cycle;
    lo.result.rf_state = rf;
    lo.result.guard_state = guard_regs;
    overlay(l, lo.result, -1);
    core.scratch_image(mem, &d.delta[static_cast<std::size_t>(l)]);
    core.keep_scratch(lo);
  };
  // Any other divergence reruns the lane from cycle 0 on its own hardened
  // fast loop.
  auto evict_rerun = [&](int l) {
    LaneOutcome& lo = core.evict(l, cycle);
    tta::TtaSim s(program, machine, core.scratch_image(initial_mem),
                  {.harden = true, .faults = &lane_faults[static_cast<std::size_t>(l)]});
    s.use_predecoded(pre_ptr);
    lo.result = s.run(max_cycles);
    core.keep_scratch(lo);
  };

  auto finish = [&](ExecResult leader, ir::Memory leader_mem, std::int64_t ret_id) {
    auto overlay_lane = [&](int l, ExecResult& r) { overlay(l, r, ret_id); };
    return assemble_batch(core, std::move(leader), std::move(leader_mem), overlay_lane);
  };

  auto set_trap = [&](TrapReason reason, int unit, std::uint32_t detail) {
    result.status = ExecStatus::Trapped;
    result.trap = TrapInfo{reason, cycle, unit, detail};
    result.cycles = cycle;
    capture_state();
  };

  auto apply_lane_fault = [&](int lane, const StateFault& f) {
    switch (f.kind) {
      case FaultKind::RfBit: {
        if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine.rfs.size()) return;
        if (f.index < 0 || f.index >= machine.rfs[static_cast<std::size_t>(f.unit)].size) return;
        const std::size_t slot =
            pre.rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
        d.set(lane, slot, d.get(lane, slot, rf[slot]) ^ fault_mask(f), rf[slot]);
        break;
      }
      case FaultKind::FuResultBit: {
        if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= nfus) return;
        const std::size_t id = frbase + static_cast<std::size_t>(f.unit);
        const std::uint32_t leader = fu_result[static_cast<std::size_t>(f.unit)];
        d.set(lane, id, d.get(lane, id, leader) ^ fault_mask(f), leader);
        break;
      }
      case FaultKind::GuardBit: {
        if (f.unit < 0 || f.unit >= machine.guard_regs) return;
        const std::size_t id = gbase + static_cast<std::size_t>(f.unit);
        const std::uint32_t leader = guard_regs[static_cast<std::size_t>(f.unit)];
        d.set(lane, id, d.get(lane, id, leader) ^ 1u, leader);
        break;
      }
    }
  };

  // Lane-side view of a move's sampled source value. Valid from phase 3
  // through 4b: fu_result mutates only in phase 1, rf only in phase 2, and
  // FU operand ports are never move sources.
  auto lane_src = [&](int l, const TtaPMove& mv) -> std::uint32_t {
    switch (mv.src) {
      case TtaPMove::Src::Imm: return mv.imm;
      case TtaPMove::Src::FuResult:
        return d.get(l, frbase + mv.src_slot, fu_result[mv.src_slot]);
      case TtaPMove::Src::RfRead: return d.get(l, mv.src_slot, rf[mv.src_slot]);
    }
    TTSC_UNREACHABLE("bad move source");
  };
  auto src_mask = [&](const TtaPMove& mv) -> LaneMask {
    switch (mv.src) {
      case TtaPMove::Src::Imm: return 0;
      case TtaPMove::Src::FuResult: return d.mask[frbase + mv.src_slot];
      case TtaPMove::Src::RfRead: return d.mask[mv.src_slot];
    }
    TTSC_UNREACHABLE("bad move source");
  };

  std::size_t ring_idx = 0;
  while (cycle < max_cycles) {
    // 0. State faults land between cycles, then the settled check: a batch
    // with a known fault-free reference stops once no live lane can ever
    // diverge again.
    core.apply_due(cycle, apply_lane_fault);
    if (reference != nullptr && core.settled()) {
      mem.restore_from(*reference_mem);  // see RegLanes::finish
      return finish(*reference, std::move(mem), /*ret_id=*/-1);
    }
    // All-clean fast path (see RegLanes::top): no live lane differs, so
    // every lane hook this cycle is a no-op and only leader state advances.
    const bool lanes_dirty = (d.diff_mask & core.live) != 0;
    // 1. Results whose latency elapsed land in the result registers.
    if (ring_count[ring_idx] != 0) {
      InFlight* const col = &ring_entry[ring_idx * nfus];
      const std::uint32_t n = ring_count[ring_idx];
      for (std::uint32_t e = 0; e < n; ++e) {
        const std::uint32_t val = col[e].value;
        if (lanes_dirty) {
          const std::size_t eid = rbase + ring_idx * nfus + e;
          const std::size_t frid = frbase + col[e].fu;
          for_lanes((d.mask[eid] | d.mask[frid]) & core.live, [&](int l) {
            d.set(l, frid, d.get(l, eid, val), val);
          });
          d.clear_all(eid);
        }
        fu_result[col[e].fu] = val;
      }
      ring_count[ring_idx] = 0;
    }
    // 2. RF writes from the previous cycle become readable.
    {
      std::vector<RfWrite>& commits = rf_pending[cycle & 1];
      for (std::size_t i = 0; i < commits.size(); ++i) {
        const RfWrite& w = commits[i];
        if (lanes_dirty) {
          const std::size_t eid = pbase + (cycle & 1) * max_moves + i;
          for_lanes((d.mask[eid] | d.mask[w.slot]) & core.live, [&](int l) {
            d.set(l, w.slot, d.get(l, eid, w.value), w.value);
          });
          d.clear_all(eid);
        }
        rf[w.slot] = w.value;
      }
      commits.clear();
    }
    // 2b. Guard writes from the previous cycle latch in.
    {
      std::vector<GuardWrite>& latches = guard_pending[cycle & 1];
      for (std::size_t i = 0; i < latches.size(); ++i) {
        const GuardWrite& g = latches[i];
        if (lanes_dirty) {
          const std::size_t eid = gpbase + (cycle & 1) * max_moves + i;
          const std::size_t gid = gbase + g.guard;
          for_lanes((d.mask[eid] | d.mask[gid]) & core.live, [&](int l) {
            d.set(l, gid, d.get(l, eid, g.value), g.value);
          });
          d.clear_all(eid);
        }
        guard_regs[g.guard] = g.value;
      }
      latches.clear();
    }

    if (pc >= num_instrs && transfer_in < 0) {
      set_trap(TrapReason::PcOutOfRange, -1, static_cast<std::uint32_t>(pc));
      return finish(std::move(result), std::move(mem), -1);
    }
    if (pc < num_instrs) {
      const std::uint32_t begin = pre.instr_begin[pc];
      const std::uint32_t end = pre.instr_begin[pc + 1];
      std::size_t nfires = 0;
      // 3+4a. Sample sources and write non-trigger destinations.
      for (std::uint32_t m = begin; m < end; ++m) {
        const TtaPMove& mv = pre.moves[m];
        if (mv.guard >= 0) {
          const bool g = guard_regs[static_cast<std::size_t>(mv.guard)] != 0;
          const bool squash = g == mv.guard_negate;
          if (lanes_dirty) {
            // A lane whose squash decision differs executes a different move
            // set from here on: proven divergence.
            const std::size_t gid = gbase + static_cast<std::size_t>(mv.guard);
            for_lanes(d.mask[gid] & core.live, [&](int l) {
              const bool lg = d.get(l, gid, g ? 1u : 0u) != 0;
              if ((lg == mv.guard_negate) != squash) evict_rerun(l);
            });
          }
          if (squash) continue;
        }
        if (mv.trap != 0) {
          set_trap(static_cast<TrapReason>(mv.trap - 1), mv.bus, mv.trap_detail);
          return finish(std::move(result), std::move(mem), -1);
        }
        std::uint32_t value = mv.imm;
        switch (mv.src) {
          case TtaPMove::Src::Imm: break;
          case TtaPMove::Src::FuResult: value = fu_result[mv.src_slot]; break;
          case TtaPMove::Src::RfRead: value = rf[mv.src_slot]; break;
        }
        switch (mv.dst) {
          case TtaPMove::Dst::FuOperand: {
            if (lanes_dirty) {
              const std::size_t foid = fobase + mv.dst_slot;
              for_lanes((src_mask(mv) | d.mask[foid]) & core.live,
                        [&](int l) { d.set(l, foid, lane_src(l, mv), value); });
            }
            fu_operand[mv.dst_slot] = value;
            break;
          }
          case TtaPMove::Dst::RfWrite: {
            std::vector<RfWrite>& list = rf_pending[(cycle + 1) & 1];
            if (lanes_dirty) {
              const std::size_t eid = pbase + ((cycle + 1) & 1) * max_moves + list.size();
              for_lanes((src_mask(mv) | d.mask[eid]) & core.live,
                        [&](int l) { d.set(l, eid, lane_src(l, mv), value); });
            }
            list.push_back(RfWrite{mv.dst_slot, value});
            break;
          }
          case TtaPMove::Dst::GuardWrite: {
            std::vector<GuardWrite>& list = guard_pending[(cycle + 1) & 1];
            const std::uint32_t v01 = value != 0 ? 1u : 0u;
            if (lanes_dirty) {
              const std::size_t eid = gpbase + ((cycle + 1) & 1) * max_moves + list.size();
              for_lanes((src_mask(mv) | d.mask[eid]) & core.live, [&](int l) {
                d.set(l, eid, lane_src(l, mv) != 0 ? 1u : 0u, v01);
              });
            }
            list.push_back(GuardWrite{mv.dst_slot, static_cast<std::uint8_t>(v01)});
            break;
          }
          case TtaPMove::Dst::FuTrigger:
          case TtaPMove::Dst::ControlTrigger:
            fires[nfires++] = Fire{&mv, value};
            break;
        }
      }
      // 4b. Triggers fire using this cycle's operand port contents.
      for (std::size_t fi = 0; fi < nfires; ++fi) {
        const Fire& f = fires[fi];
        const TtaPMove& mv = *f.mv;
        const std::size_t fu = mv.dst_slot;
        const std::size_t foid = fobase + fu;
        if (mv.dst == TtaPMove::Dst::ControlTrigger) {
          if (transfer_in >= 0) continue;  // squashed in a transfer shadow
          switch (mv.fire) {
            case TtaPMove::Fire::Jump:
              transfer_in = machine.delay_slots;
              transfer_target = mv.target_pc;
              break;
            case TtaPMove::Fire::Bnz: {
              const bool taken = fu_operand[fu] != 0;
              if (lanes_dirty) {
                for_lanes(d.mask[foid] & core.live, [&](int l) {
                  if ((d.get(l, foid, fu_operand[fu]) != 0) != taken) evict_rerun(l);
                });
              }
              if (taken) {
                transfer_in = machine.delay_slots;
                transfer_target = mv.target_pc;
              }
              break;
            }
            case TtaPMove::Fire::Ret:
              result.cycles = cycle + 1;
              result.ret = fu_operand[fu];
              capture_state();
              return finish(std::move(result), std::move(mem),
                            static_cast<std::int64_t>(foid));
            default: TTSC_UNREACHABLE("bad control trigger opcode");
          }
          continue;
        }
        if (ir::is_memory(mv.opcode)) {
          // The trigger value is the address.
          const bool leader_ok = mem_in_bounds(mv.opcode, f.value, mem.size());
          if (lanes_dirty) {
            if (ir::is_load(mv.opcode) && leader_ok) {
              // Dirty load addresses stay exact (see RegLanes::mem_access).
              for_lanes(src_mask(mv) & core.live, [&](int l) {
                const std::uint32_t la = lane_src(l, mv);
                if (!mem_in_bounds(mv.opcode, la, mem.size())) {
                  evict_trap(l, static_cast<int>(fu), la);
                }
              });
            } else if (!leader_ok) {
              for_lanes(src_mask(mv) & core.live, [&](int l) {
                const std::uint32_t la = lane_src(l, mv);
                if (!mem_in_bounds(mv.opcode, la, mem.size())) {
                  evict_trap(l, static_cast<int>(fu), la);
                } else {
                  evict_rerun(l);
                }
              });
            } else {
              // Dirty store addresses stay exact (see RegLanes::mem_access).
              const int nbytes = mem_access_bytes(mv.opcode);
              const std::uint32_t data = fu_operand[fu];
              for_lanes(src_mask(mv) & core.live, [&](int l) {
                const std::uint32_t la = lane_src(l, mv);
                if (!mem_in_bounds(mv.opcode, la, mem.size())) {
                  evict_trap(l, static_cast<int>(fu), la);
                  return;
                }
                store_diverged(d, l, mem, nbytes, f.value, data, la,
                               d.get(l, foid, data));
              });
            }
          }
          if (!leader_ok) {
            set_trap(TrapReason::MemoryOutOfRange, static_cast<int>(fu), f.value);
            return finish(std::move(result), std::move(mem), -1);
          }
        }
        switch (mv.fire) {
          case TtaPMove::Fire::Store: {
            const std::uint32_t data = fu_operand[fu];
            switch (mv.opcode) {
              case Opcode::Stw: mem.store32(f.value, data); break;
              case Opcode::Sth: mem.store16(f.value, static_cast<std::uint16_t>(data)); break;
              case Opcode::Stq: mem.store8(f.value, static_cast<std::uint8_t>(data)); break;
              default: TTSC_UNREACHABLE("bad store opcode");
            }
            if (lanes_dirty) {
              const int nbytes = mem_access_bytes(mv.opcode);
              // Dirty-address lanes were fully handled by store_diverged.
              for_lanes((d.mask[foid] | d.delta_mask) & core.live & ~src_mask(mv),
                        [&](int l) {
                if (!d.dirty(l, foid) &&
                    !d.delta[static_cast<std::size_t>(l)].overlaps(
                        f.value, static_cast<std::uint32_t>(nbytes))) {
                  return;
                }
                const std::uint32_t ld = d.get(l, foid, data);
                for (int j = 0; j < nbytes; ++j) {
                  d.mem_set(l, f.value + static_cast<std::uint32_t>(j),
                            static_cast<std::uint8_t>(ld >> (8 * j)),
                            static_cast<std::uint8_t>(data >> (8 * j)));
                }
              });
            }
            break;
          }
          case TtaPMove::Fire::Input:
          case TtaPMove::Fire::Binary: {
            const bool input = mv.fire == TtaPMove::Fire::Input;
            const std::uint32_t a = input ? f.value : fu_operand[fu];
            const std::uint32_t b = input ? 0 : f.value;
            const std::uint32_t v = compute(mv.opcode, a, b, mem);
            std::size_t col = ring_idx + static_cast<std::size_t>(mv.latency);
            if (col >= ring) col -= ring;  // latency < ring: one wrap at most
            InFlight* const entries = &ring_entry[col * nfus];
            const std::uint32_t n = ring_count[col];
            // Same-cycle completion ties on one FU resolve to the larger
            // value, per lane, matching the scalar fast path's merge.
            std::uint32_t e = 0;
            while (e < n && entries[e].fu != fu) ++e;
            if (lanes_dirty) {
              LaneMask affected = src_mask(mv);
              if (!input) affected |= d.mask[foid];
              if (ir::is_load(mv.opcode)) {
                for_lanes(d.delta_mask & core.live, [&](int l) {
                  if (d.delta[static_cast<std::size_t>(l)].overlaps(
                          a, static_cast<std::uint32_t>(mem_access_bytes(mv.opcode)))) {
                    affected |= lane_bit(l);
                  }
                });
              }
              auto lane_value = [&](int l) {
                const std::uint32_t la =
                    input ? lane_src(l, mv) : d.get(l, foid, fu_operand[fu]);
                const std::uint32_t lb = input ? 0 : lane_src(l, mv);
                return compute(mv.opcode, la, lb,
                               LaneMemory{mem, d.delta[static_cast<std::size_t>(l)]});
              };
              const std::size_t eid = rbase + col * nfus + e;
              if (e < n) {
                const std::uint32_t leader_prev = entries[e].value;
                const std::uint32_t leader_final = std::max(leader_prev, v);
                for_lanes((d.mask[eid] | affected) & core.live, [&](int l) {
                  const std::uint32_t lprev = d.get(l, eid, leader_prev);
                  d.set(l, eid, std::max(lprev, lane_value(l)), leader_final);
                });
              } else {
                for_lanes((d.mask[eid] | affected) & core.live,
                          [&](int l) { d.set(l, eid, lane_value(l), v); });
              }
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
  result.status = ExecStatus::TimedOut;
  result.cycles = max_cycles;
  capture_state();
  return finish(std::move(result), std::move(mem), -1);
}

}  // namespace ttsc::sim
