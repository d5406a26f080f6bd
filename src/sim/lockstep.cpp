// Batched lockstep fault-injection execution (see lockstep.hpp).
//
// Each engine below is a line-for-line mirror of the corresponding
// run_fast<kObserve=false, kHarden=true> loop (scalar/scalar.cpp,
// vliw/sim.cpp, tta/sim.cpp) with lane hooks inserted at every point the
// leader reads or writes architectural state. The mirrored loops are the
// correctness-critical part: any drift from the scalar semantics is caught
// by the differential fleet in tests/lockstep_test.cpp, which locks every
// lane's ExecResult and memory image to a scalar hardened rerun.
//
// Hook discipline shared by all three engines:
//  * lane processing happens BEFORE the leader's write lands, using operand
//    values captured before the leader mutates them (read-before-write);
//    set() then compares the lane's value against the value the leader is
//    about to write, maintaining the exact-diff invariant;
//  * stores are the one exception: the leader's bytes land first, and each
//    lane's bytes are then set-or-erased against the post-store image;
//  * the `affected` lane set for an operation is the union of the dirty
//    masks of every location it reads or writes (plus, for loads, lanes
//    whose memory delta overlaps the accessed range), always intersected
//    with the live mask — a fully clean lane never costs more than the
//    mask-word unions.
#include "sim/lockstep.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "sim/compute.hpp"
#include "sim/harden.hpp"
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

ir::Memory materialize(const ir::Memory& leader, const MemDelta& delta) {
  ir::Memory out = leader;
  for (const auto& [addr, byte] : delta.entries()) out.store8(addr, byte);
  return out;
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

namespace {

/// A set of lanes: bit l is lane l (kMaxLanes lanes fit one word).
using LaneMask = std::uint64_t;

constexpr LaneMask lane_bit(int lane) { return LaneMask{1} << lane; }

/// Call fn(lane) for every set bit.
template <typename Fn>
void for_lanes(LaneMask m, Fn&& fn) {
  while (m != 0) {
    fn(std::countr_zero(m));
    m &= m - 1;
  }
}

// ---- Sparse lane diffs -------------------------------------------------

/// Structure-of-arrays diff of up to kMaxLanes lanes against the leader.
/// Every piece of leader state the lanes can diverge in gets a location id;
/// `mask[id]` is the set of lanes whose value at that location differs and
/// `value[lane * n_ids + id]` holds the differing value. All storage is
/// allocated once at batch start; the per-cycle loop only flips mask bits.
struct LaneDiffs {
  std::size_t n_ids = 0;
  std::vector<LaneMask> mask;        // [id] -> lanes differing from leader
  std::vector<std::uint32_t> value;  // [lane * n_ids + id] -> lane value
  std::array<std::uint32_t, kMaxLanes> dirty_count{};  // dirty ids per lane
  std::array<MemDelta, kMaxLanes> delta;
  LaneMask diff_mask = 0;   // lanes with any dirty id or delta byte
  LaneMask delta_mask = 0;  // lanes with a non-empty memory delta

  void init(std::size_t ids, int lanes) {
    n_ids = ids;
    mask.assign(ids, 0u);
    value.assign(ids * static_cast<std::size_t>(lanes), 0u);
  }

  bool dirty(int lane, std::size_t id) const { return (mask[id] & lane_bit(lane)) != 0; }

  std::uint32_t get(int lane, std::size_t id, std::uint32_t leader_value) const {
    return dirty(lane, id) ? value[static_cast<std::size_t>(lane) * n_ids + id] : leader_value;
  }

  void update_diff(int lane) {
    const LaneMask bit = lane_bit(lane);
    if (delta[static_cast<std::size_t>(lane)].empty()) {
      delta_mask &= ~bit;
    } else {
      delta_mask |= bit;
    }
    if (dirty_count[static_cast<std::size_t>(lane)] != 0 || (delta_mask & bit) != 0) {
      diff_mask |= bit;
    } else {
      diff_mask &= ~bit;
    }
  }

  /// Set-or-erase: record the lane's value at `id` against the value the
  /// leader holds (or is about to write) there.
  void set(int lane, std::size_t id, std::uint32_t lane_value, std::uint32_t leader_value) {
    const LaneMask bit = lane_bit(lane);
    if (lane_value == leader_value) {
      if ((mask[id] & bit) != 0) {
        mask[id] &= ~bit;
        --dirty_count[static_cast<std::size_t>(lane)];
        update_diff(lane);
      }
      return;
    }
    if ((mask[id] & bit) == 0) {
      mask[id] |= bit;
      ++dirty_count[static_cast<std::size_t>(lane)];
      diff_mask |= bit;
    }
    value[static_cast<std::size_t>(lane) * n_ids + id] = lane_value;
  }

  /// Drop every lane's dirt at `id` (a ring/pending entry that was consumed
  /// and is about to be reused for an unrelated write).
  void clear_all(std::size_t id) {
    for_lanes(mask[id], [&](int l) {
      --dirty_count[static_cast<std::size_t>(l)];
      update_diff(l);
    });
    mask[id] = 0;
  }

  void mem_set(int lane, std::uint32_t addr, std::uint8_t lane_byte, std::uint8_t leader_byte) {
    delta[static_cast<std::size_t>(lane)].set(addr, lane_byte, leader_byte);
    update_diff(lane);
  }
};

// ---- Batch bookkeeping -------------------------------------------------

/// Live mask, per-lane fault cursors and one outcome slot per lane. Fault
/// application is pointer-gated exactly like the scalar loops: every head
/// entry whose cycle has been reached applies, in FaultSet array order per
/// lane.
struct BatchCore {
  LaneDiffs d;
  int n_lanes = 0;
  LaneMask live = 0;
  LaneMask fault_pending = 0;
  std::array<const StateFault*, kMaxLanes> fcur{};
  std::array<const StateFault*, kMaxLanes> fend{};
  std::uint64_t next_due = ~0ull;
  /// An evicted lane's slot holds its own outcome from the eviction on; the
  /// others are filled from the leader's at halt (assemble_batch).
  std::vector<LaneOutcome> lanes;
  std::uint64_t evictions = 0;

  void init(std::size_t n_ids, std::span<const FaultSet> lane_faults) {
    n_lanes = static_cast<int>(lane_faults.size());
    TTSC_ASSERT(n_lanes >= 1 && n_lanes <= kMaxLanes, "lockstep: 1..kMaxLanes lanes per batch");
    d.init(n_ids, n_lanes);
    lanes.resize(static_cast<std::size_t>(n_lanes));
    live = n_lanes == kMaxLanes ? ~LaneMask{0} : lane_bit(n_lanes) - 1;
    for (int l = 0; l < n_lanes; ++l) {
      const auto sl = static_cast<std::size_t>(l);
      fcur[sl] = lane_faults[sl].faults.data();
      fend[sl] = fcur[sl] + lane_faults[sl].faults.size();
      if (fcur[sl] != fend[sl]) fault_pending |= lane_bit(l);
    }
    recompute_next_due();
  }

  void recompute_next_due() {
    next_due = ~0ull;
    for_lanes(fault_pending & live, [&](int l) {
      next_due = std::min(next_due, fcur[static_cast<std::size_t>(l)]->cycle);
    });
  }

  /// Apply every due fault via fn(lane, fault). Fast-exits on the cached
  /// minimum head cycle, so fault-free stretches cost one compare.
  template <typename Fn>
  void apply_due(std::uint64_t now, Fn&& fn) {
    if (now < next_due) return;
    for_lanes(fault_pending & live, [&](int l) {
      const auto sl = static_cast<std::size_t>(l);
      while (fcur[sl] != fend[sl] && fcur[sl]->cycle <= now) {
        fn(l, *fcur[sl]);
        ++fcur[sl];
      }
      if (fcur[sl] == fend[sl]) fault_pending &= ~lane_bit(l);
    });
    recompute_next_due();
  }

  /// Remove a lane whose control flow, timing or trap provably diverged
  /// from the leader's at `cycle`. The caller fills the returned slot's
  /// result and memory with the lane's own outcome before the leader moves
  /// on.
  LaneOutcome& evict(int lane, std::uint64_t cycle) {
    live &= ~lane_bit(lane);
    ++evictions;
    recompute_next_due();
    LaneOutcome& lo = lanes[static_cast<std::size_t>(lane)];
    lo.evicted = true;
    lo.diverge_cycle = cycle;
    return lo;
  }

  /// True when no live lane can ever diverge from the leader again: no
  /// state/memory diff left and no fault still to apply.
  bool settled() const { return (d.diff_mask & live) == 0 && (fault_pending & live) == 0; }
};

// ---- Lane-side operand evaluation --------------------------------------

/// A lane's memory as sim::compute reads it: the leader image with the
/// lane's delta patched in.
struct LaneMemory {
  const ir::Memory& leader;
  const MemDelta& delta;

  std::uint8_t load8(std::uint32_t addr) const {
    const std::uint8_t* p = delta.find(addr);
    return p != nullptr ? *p : leader.load8(addr);
  }
  std::uint16_t load16(std::uint32_t addr) const {
    return static_cast<std::uint16_t>(load8(addr) | (load8(addr + 1) << 8));
  }
  std::uint32_t load32(std::uint32_t addr) const {
    return load16(addr) | (static_cast<std::uint32_t>(load16(addr + 2)) << 16);
  }
};

/// Exact dirty-address store: lane `l` stores `lane_val` at `lane_addr`
/// while the leader is about to store `leader_val` at `leader_addr` (`mem`
/// is the pre-store image). Rewrites the lane's delta over both (possibly
/// overlapping) byte ranges so the exact-diff invariant holds afterwards:
/// over the leader's range the lane keeps its own pre-store bytes, over the
/// lane's range it holds the stored value against the leader's post-store
/// image.
void store_diverged(LaneDiffs& d, int l, const ir::Memory& mem, int nbytes,
                    std::uint32_t leader_addr, std::uint32_t leader_val,
                    std::uint32_t lane_addr, std::uint32_t lane_val) {
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

// ---- Result assembly ---------------------------------------------------

/// An evicted lane's from-scratch hardened single run on `Sim`'s fast path.
template <typename Sim, typename Program, typename Predecoded>
void rerun_lane(const Program& program, const mach::Machine& machine,
                const std::shared_ptr<const Predecoded>& pre, const ir::Memory& initial_mem,
                const FaultSet& faults, std::uint64_t max_cycles, LaneOutcome& lo) {
  ir::Memory m = initial_mem;
  SimOptions o;
  o.harden = true;
  o.faults = &faults;
  Sim s(program, machine, m, o);
  s.use_predecoded(pre);
  lo.result = s.run(max_cycles);
  lo.mem.emplace(std::move(m));
}

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
  out.divergences = core.evictions;
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

// ---- Scalar engine -----------------------------------------------------
//
// Mirrors ScalarSim::run_fast<false, true> (scalar/scalar.cpp). Location
// ids are the flat RF slots only: the `ready` scoreboard timing is shared
// by construction (reads stall on shared issue cycles), except for the
// variable-shift loop whose duration depends on the masked shift amount —
// a lane whose masked amount differs is a proven timing divergence.

BatchResult run_scalar_batch(const scalar::ScalarProgram& program, const mach::Machine& machine,
                             std::shared_ptr<const PredecodedScalar> pre_ptr,
                             const ir::Memory& initial_mem,
                             std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                             const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre_ptr != nullptr, "run_scalar_batch needs a predecoded program");
  TTSC_ASSERT((reference == nullptr) == (reference_mem == nullptr),
              "reference result and memory must be passed together");
  const PredecodedScalar& pre = *pre_ptr;
  const mach::ScalarTiming& timing = machine.scalar;

  BatchCore core;
  core.init(pre.rf_slots, lane_faults);
  LaneDiffs& d = core.d;

  ir::Memory mem = initial_mem;
  std::vector<std::uint32_t> regs(pre.rf_slots, 0u);
  std::vector<std::uint64_t> ready(pre.rf_slots, 0ull);

  ExecResult result;
  std::uint64_t cycle = static_cast<std::uint64_t>(timing.pipeline_stages - 1);  // fill
  std::uint32_t pc = 0;

  // Every eviction happens before the divergent instruction issues. Until
  // then a lane's state is the leader's plus its diffs — byte-identical to a
  // standalone hardened run — so the lane resumes on ScalarSim's own fast
  // loop from there instead of re-simulating the shared prefix from cycle 0.
  auto evict = [&](int l) {
    const auto sl = static_cast<std::size_t>(l);
    Snapshot state;
    state.regs = regs;
    state.ready = ready;
    state.cycle = cycle;
    state.pc = pc;
    for (std::uint32_t id = 0; id < pre.rf_slots; ++id) {
      if (d.dirty(l, id)) state.regs[id] = d.value[sl * d.n_ids + id];
    }
    const FaultSet rest{std::vector<StateFault>(core.fcur[sl], core.fend[sl])};
    LaneOutcome& lo = core.evict(l, cycle);
    lo.mem.emplace(materialize(mem, d.delta[sl]));
    SimOptions o;
    o.harden = true;
    o.faults = &rest;
    scalar::ScalarSim s(program, machine, *lo.mem, o);
    s.use_predecoded(pre_ptr);
    lo.result = std::get<ExecResult>(s.run(max_cycles, &state, kNoStop));
  };

  // Halt: `ret_id` is the flat RF slot the return value was read from
  // (-1 when immediate or when the halt carries no return value).
  auto finish = [&](ExecResult leader, ir::Memory leader_mem, std::int64_t ret_id) {
    auto overlay = [&](int l, ExecResult& r) { overlay_rf(d, l, pre.rf_slots, ret_id, r); };
    return assemble_batch(core, std::move(leader), std::move(leader_mem), overlay);
  };

  auto set_trap = [&](TrapReason reason, std::uint32_t detail) {
    result.status = ExecStatus::Trapped;
    result.trap = TrapInfo{reason, cycle, -1, detail};
    result.cycles = cycle;
    result.rf_state = regs;
  };

  auto apply_lane_fault = [&](int lane, const StateFault& f) {
    if (f.kind != FaultKind::RfBit) return;
    if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine.rfs.size()) return;
    if (f.index < 0 || f.index >= machine.rfs[static_cast<std::size_t>(f.unit)].size) return;
    const std::size_t slot =
        pre.rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
    const std::uint32_t lv = d.get(lane, slot, regs[slot]) ^ fault_mask(f);
    d.set(lane, slot, lv, regs[slot]);
  };

  while (true) {
    core.apply_due(cycle, apply_lane_fault);
    if (reference != nullptr && core.settled()) {
      return finish(*reference, *reference_mem, /*ret_id=*/-1);
    }
    // All-clean fast path: when no live lane differs anywhere (diff_mask
    // covers dirty ids and memory deltas both), every lane hook below is a
    // no-op — its masks intersected with `live` are zero — so the leader
    // executes the instruction at plain fast-path cost. Evicted lanes may
    // hold stale dirt (their clear_all is skipped too); every consumer
    // filters with `& core.live`, so that dirt is unreachable.
    const bool lanes_dirty = (d.diff_mask & core.live) != 0;
    if (pc >= pre.instrs.size()) {
      set_trap(TrapReason::PcOutOfRange, pc);
      return finish(std::move(result), std::move(mem), -1);
    }
    const ScalarPInstr& in = pre.instrs[pc];
    if (in.trap != 0) {
      set_trap(static_cast<TrapReason>(in.trap - 1), in.trap_detail);
      return finish(std::move(result), std::move(mem), -1);
    }

    std::uint64_t issue = cycle;
    std::uint32_t a = in.a_val;
    std::uint32_t b = in.b_val;
    if (!in.a_imm) {
      issue = std::max(issue, ready[in.a_slot]);
      a = regs[in.a_slot];
    }
    if (!in.b_imm) {
      issue = std::max(issue, ready[in.b_slot]);
      b = regs[in.b_slot];
    }
    if (in.var_shift) {
      // The shift-loop duration depends on the masked amount: a lane whose
      // amount differs runs a different number of cycles — proven timing
      // divergence (the result diff alone would be handled below).
      if (lanes_dirty && !in.b_imm) {
        for_lanes(d.mask[in.b_slot] & core.live, [&](int l) {
          if ((d.get(l, in.b_slot, b) & 31) != (b & 31)) evict(l);
        });
      }
      issue += static_cast<std::uint64_t>(timing.variable_shift_setup) +
               static_cast<std::uint64_t>(timing.variable_shift_per_bit) * (b & 31);
    } else {
      issue += in.extra_words;
    }
    if (issue + 1 > max_cycles) {
      result.status = ExecStatus::TimedOut;
      result.cycles = cycle;
      result.rf_state = regs;
      return finish(std::move(result), std::move(mem), -1);
    }
    if (ir::is_memory(in.op)) {
      const bool leader_ok = mem_in_bounds(in.op, a, mem.size());
      if (lanes_dirty && !in.a_imm) {
        if (ir::is_load(in.op) && leader_ok) {
          // A dirty load address stays exact in lockstep: the operand hook
          // below reads the lane's own address through its delta. Only a
          // lane failing the bounds check the leader passes behaves
          // differently (it traps) — proven divergence.
          for_lanes(d.mask[in.a_slot] & core.live, [&](int l) {
            if (!mem_in_bounds(in.op, d.get(l, in.a_slot, a), mem.size())) evict(l);
          });
        } else if (!leader_ok) {
          // The leader traps here; any dirty-address lane's TrapInfo detail
          // would differ — proven.
          for_lanes(d.mask[in.a_slot] & core.live, evict);
        } else {
          // Dirty store addresses stay exact too: store_diverged rewrites
          // the lane's delta over the leader's range and the lane's own.
          // Only a lane failing the bounds check traps — proven divergence.
          const int nbytes = mem_access_bytes(in.op);
          for_lanes(d.mask[in.a_slot] & core.live, [&](int l) {
            const std::uint32_t la = d.get(l, in.a_slot, a);
            if (!mem_in_bounds(in.op, la, mem.size())) {
              evict(l);
              return;
            }
            const std::uint32_t lb = in.b_imm ? b : d.get(l, in.b_slot, b);
            store_diverged(d, l, mem, nbytes, a, b, la, lb);
          });
        }
      }
      if (!leader_ok) {
        set_trap(TrapReason::MemoryOutOfRange, a);
        return finish(std::move(result), std::move(mem), -1);
      }
    }

    switch (in.op) {
      case Opcode::Stw:
      case Opcode::Sth:
      case Opcode::Stq: {
        // Leader bytes land first; lane bytes set-or-erase against them.
        // `a` is the (shared) address, `b` the data operand.
        switch (in.op) {
          case Opcode::Stw: mem.store32(a, b); break;
          case Opcode::Sth: mem.store16(a, static_cast<std::uint16_t>(b)); break;
          default: mem.store8(a, static_cast<std::uint8_t>(b)); break;
        }
        if (lanes_dirty) {
          const int nbytes = mem_access_bytes(in.op);
          LaneMask affected = d.delta_mask;
          if (!in.b_imm) affected |= d.mask[in.b_slot];
          // Dirty-address lanes were fully handled by store_diverged above.
          if (!in.a_imm) affected &= ~d.mask[in.a_slot];
          for_lanes(affected & core.live, [&](int l) {
            if (in.b_imm || !d.dirty(l, in.b_slot)) {
              // Clean data: only process lanes whose delta overlaps the range
              // (their divergent bytes get overwritten and erased).
              if (!d.delta[static_cast<std::size_t>(l)].overlaps(
                      a, static_cast<std::uint32_t>(nbytes))) {
                return;
              }
            }
            const std::uint32_t lb = in.b_imm ? b : d.get(l, in.b_slot, b);
            for (int i = 0; i < nbytes; ++i) {
              d.mem_set(l, a + static_cast<std::uint32_t>(i),
                        static_cast<std::uint8_t>(lb >> (8 * i)),
                        static_cast<std::uint8_t>(b >> (8 * i)));
            }
          });
        }
        break;
      }
      case Opcode::Jump: {
        cycle = issue + 1 + static_cast<std::uint64_t>(timing.branch_penalty);
        pc = in.target_pc;
        result.cycles = cycle;
        continue;
      }
      case Opcode::Bnz: {
        const bool taken = a != 0;
        if (lanes_dirty && !in.a_imm) {
          for_lanes(d.mask[in.a_slot] & core.live, [&](int l) {
            if ((d.get(l, in.a_slot, a) != 0) != taken) evict(l);
          });
        }
        cycle = issue + 1 + (taken ? static_cast<std::uint64_t>(timing.branch_penalty) : 0ull);
        pc = taken ? in.target_pc : pc + 1;
        result.cycles = cycle;
        continue;
      }
      case Opcode::Ret: {
        result.cycles = issue + 1;
        result.ret = a;
        result.rf_state = regs;
        return finish(std::move(result), std::move(mem),
                      in.a_imm ? -1 : static_cast<std::int32_t>(in.a_slot));
      }
      default: {
        const std::uint32_t value = compute(in.op, a, b, mem);
        if (in.dst_slot >= 0) {
          const std::size_t slot = static_cast<std::size_t>(in.dst_slot);
          if (lanes_dirty) {
            LaneMask affected = d.mask[slot];
            if (!in.a_imm) affected |= d.mask[in.a_slot];
            if (!in.b_imm) affected |= d.mask[in.b_slot];
            if (ir::is_load(in.op)) {
              for_lanes(d.delta_mask & core.live, [&](int l) {
                if (d.delta[static_cast<std::size_t>(l)].overlaps(
                        a, static_cast<std::uint32_t>(mem_access_bytes(in.op)))) {
                  affected |= lane_bit(l);
                }
              });
            }
            for_lanes(affected & core.live, [&](int l) {
              const std::uint32_t la = in.a_imm ? a : d.get(l, in.a_slot, a);
              const std::uint32_t lb = in.b_imm ? b : d.get(l, in.b_slot, b);
              const std::uint32_t lv = compute(
                  in.op, la, lb, LaneMemory{mem, d.delta[static_cast<std::size_t>(l)]});
              d.set(l, slot, lv, value);
            });
          }
          regs[slot] = value;
          ready[slot] =
              issue + 1 + static_cast<std::uint64_t>(in.stall) + (timing.forwarding ? 0 : 1);
        }
        break;
      }
    }

    cycle = issue + 1;
    ++pc;
  }
}

// ---- VLIW engine -------------------------------------------------------
//
// Mirrors VliwSim::run_fast<false, true> (vliw/sim.cpp). Location ids are
// the flat RF slots plus one id per write-back ring entry, so an in-flight
// divergent value stays a lane diff until its commit cycle, where it is
// folded into the destination slot's diff and the entry id is cleared for
// reuse. Control flow (transfer_in/pc) and the ring cursor are shared;
// a lane whose Bnz decision differs from the leader's is evicted.

BatchResult run_vliw_batch(const vliw::VliwProgram& program, const mach::Machine& machine,
                           std::shared_ptr<const PredecodedVliw> pre_ptr,
                           const ir::Memory& initial_mem,
                           std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                           const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre_ptr != nullptr, "run_vliw_batch needs a predecoded program");
  TTSC_ASSERT((reference == nullptr) == (reference_mem == nullptr),
              "reference result and memory must be passed together");
  const PredecodedVliw& pre = *pre_ptr;
  const std::uint64_t ring = static_cast<std::uint64_t>(pre.ring);
  const std::size_t num_bundles = pre.num_bundles();
  const std::size_t row_cap = static_cast<std::size_t>(program.num_slots) * ring;
  const std::size_t eid_base = pre.rf_slots;  // ring entry ids follow the RF slots

  BatchCore core;
  core.init(static_cast<std::size_t>(pre.rf_slots) + ring * row_cap, lane_faults);
  LaneDiffs& d = core.d;

  ir::Memory mem = initial_mem;
  std::vector<std::uint32_t> regs(pre.rf_slots, 0u);
  struct Write {
    std::uint32_t slot;
    std::uint32_t value;
  };
  std::vector<Write> wb(ring * row_cap);
  std::vector<std::uint32_t> wb_count(ring, 0u);

  ExecResult result;
  std::uint64_t cycle = 0;
  std::size_t pc = 0;
  int transfer_in = -1;
  std::size_t transfer_target = 0;

  // Trap synthesis (see the TTA engine): a lane whose memory address is
  // provably out of bounds traps at exactly this cycle with state the
  // lockstep already holds, so its eviction needs no rerun.
  auto evict_trap = [&](int l, int unit, std::uint32_t lane_addr) {
    LaneOutcome& lo = core.evict(l, cycle);
    lo.result.status = ExecStatus::Trapped;
    lo.result.trap = TrapInfo{TrapReason::MemoryOutOfRange, cycle, unit, lane_addr};
    lo.result.cycles = cycle;
    lo.result.rf_state = regs;
    overlay_rf(d, l, pre.rf_slots, -1, lo.result);
    lo.mem.emplace(materialize(mem, d.delta[static_cast<std::size_t>(l)]));
  };
  // Any other divergence reruns the lane from cycle 0.
  auto evict_rerun = [&](int l) {
    rerun_lane<vliw::VliwSim>(program, machine, pre_ptr, initial_mem,
                              lane_faults[static_cast<std::size_t>(l)], max_cycles,
                              core.evict(l, cycle));
  };

  auto finish = [&](ExecResult leader, ir::Memory leader_mem, std::int64_t ret_id) {
    auto overlay = [&](int l, ExecResult& r) { overlay_rf(d, l, pre.rf_slots, ret_id, r); };
    return assemble_batch(core, std::move(leader), std::move(leader_mem), overlay);
  };

  auto set_trap = [&](TrapReason reason, int unit, std::uint32_t detail) {
    result.status = ExecStatus::Trapped;
    result.trap = TrapInfo{reason, cycle, unit, detail};
    result.cycles = cycle;
    result.rf_state = regs;
  };

  auto apply_lane_fault = [&](int lane, const StateFault& f) {
    if (f.kind != FaultKind::RfBit) return;
    if (f.unit < 0 || static_cast<std::size_t>(f.unit) >= machine.rfs.size()) return;
    if (f.index < 0 || f.index >= machine.rfs[static_cast<std::size_t>(f.unit)].size) return;
    const std::size_t slot =
        pre.rf_base[static_cast<std::size_t>(f.unit)] + static_cast<std::uint32_t>(f.index);
    const std::uint32_t lv = d.get(lane, slot, regs[slot]) ^ fault_mask(f);
    d.set(lane, slot, lv, regs[slot]);
  };

  std::size_t wb_idx = 0;
  while (cycle < max_cycles) {
    core.apply_due(cycle, apply_lane_fault);
    if (reference != nullptr && core.settled()) {
      return finish(*reference, *reference_mem, /*ret_id=*/-1);
    }
    // All-clean fast path (see the scalar engine): no live lane differs, so
    // every lane hook this cycle is a no-op and only leader state advances.
    const bool lanes_dirty = (d.diff_mask & core.live) != 0;
    if (wb_count[wb_idx] != 0) {
      Write* const commits = &wb[wb_idx * row_cap];
      const std::uint32_t n = wb_count[wb_idx];
      for (std::uint32_t i = 0; i < n; ++i) {
        const Write& w = commits[i];
        if (lanes_dirty) {
          const std::size_t eid = eid_base + wb_idx * row_cap + i;
          for_lanes((d.mask[eid] | d.mask[w.slot]) & core.live, [&](int l) {
            d.set(l, w.slot, d.get(l, eid, w.value), w.value);
          });
          d.clear_all(eid);
        }
        regs[w.slot] = w.value;
      }
      wb_count[wb_idx] = 0;
    }

    if (pc >= num_bundles && transfer_in < 0) {
      set_trap(TrapReason::PcOutOfRange, -1, static_cast<std::uint32_t>(pc));
      return finish(std::move(result), std::move(mem), -1);
    }
    if (pc < num_bundles) {
      const std::uint32_t begin = pre.bundle_begin[pc];
      const std::uint32_t end = pre.bundle_begin[pc + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const VliwPOp& op = pre.ops[i];
        if (op.is_control && transfer_in >= 0) continue;
        if (op.trap != 0) {
          set_trap(static_cast<TrapReason>(op.trap - 1), op.fu, op.trap_detail);
          return finish(std::move(result), std::move(mem), -1);
        }

        std::uint32_t a = op.a_val;
        std::uint32_t b = op.b_val;
        if (!op.a_imm) a = regs[op.a_slot];
        if (!op.b_imm) b = regs[op.b_slot];
        if (ir::is_memory(op.op)) {
          const bool leader_ok = mem_in_bounds(op.op, a, mem.size());
          if (lanes_dirty && !op.a_imm) {
            if (ir::is_load(op.op) && leader_ok) {
              // Dirty load addresses stay exact (see the scalar engine).
              for_lanes(d.mask[op.a_slot] & core.live, [&](int l) {
                const std::uint32_t la = d.get(l, op.a_slot, a);
                if (!mem_in_bounds(op.op, la, mem.size())) evict_trap(l, op.fu, la);
              });
            } else if (!leader_ok) {
              for_lanes(d.mask[op.a_slot] & core.live, [&](int l) {
                const std::uint32_t la = d.get(l, op.a_slot, a);
                if (!mem_in_bounds(op.op, la, mem.size())) {
                  evict_trap(l, op.fu, la);
                } else {
                  evict_rerun(l);
                }
              });
            } else {
              // Dirty store addresses stay exact (see the scalar engine).
              const int nbytes = mem_access_bytes(op.op);
              for_lanes(d.mask[op.a_slot] & core.live, [&](int l) {
                const std::uint32_t la = d.get(l, op.a_slot, a);
                if (!mem_in_bounds(op.op, la, mem.size())) {
                  evict_trap(l, op.fu, la);
                  return;
                }
                const std::uint32_t lb = op.b_imm ? b : d.get(l, op.b_slot, b);
                store_diverged(d, l, mem, nbytes, a, b, la, lb);
              });
            }
          }
          if (!leader_ok) {
            set_trap(TrapReason::MemoryOutOfRange, op.fu, a);
            return finish(std::move(result), std::move(mem), -1);
          }
        }

        switch (op.op) {
          case Opcode::Stw:
          case Opcode::Sth:
          case Opcode::Stq: {
            switch (op.op) {
              case Opcode::Stw: mem.store32(a, b); break;
              case Opcode::Sth: mem.store16(a, static_cast<std::uint16_t>(b)); break;
              default: mem.store8(a, static_cast<std::uint8_t>(b)); break;
            }
            if (lanes_dirty) {
              const int nbytes = mem_access_bytes(op.op);
              LaneMask affected = d.delta_mask;
              if (!op.b_imm) affected |= d.mask[op.b_slot];
              // Dirty-address lanes were fully handled by store_diverged.
              if (!op.a_imm) affected &= ~d.mask[op.a_slot];
              for_lanes(affected & core.live, [&](int l) {
                if (op.b_imm || !d.dirty(l, op.b_slot)) {
                  if (!d.delta[static_cast<std::size_t>(l)].overlaps(
                          a, static_cast<std::uint32_t>(nbytes))) {
                    return;
                  }
                }
                const std::uint32_t lb = op.b_imm ? b : d.get(l, op.b_slot, b);
                for (int j = 0; j < nbytes; ++j) {
                  d.mem_set(l, a + static_cast<std::uint32_t>(j),
                            static_cast<std::uint8_t>(lb >> (8 * j)),
                            static_cast<std::uint8_t>(b >> (8 * j)));
                }
              });
            }
            break;
          }
          case Opcode::Jump:
            transfer_in = machine.delay_slots;
            transfer_target = op.target_pc;
            break;
          case Opcode::Bnz: {
            const bool taken = a != 0;
            if (lanes_dirty && !op.a_imm) {
              for_lanes(d.mask[op.a_slot] & core.live, [&](int l) {
                if ((d.get(l, op.a_slot, a) != 0) != taken) evict_rerun(l);
              });
            }
            if (taken) {
              transfer_in = machine.delay_slots;
              transfer_target = op.target_pc;
            }
            break;
          }
          case Opcode::Ret:
            result.cycles = cycle + 1;
            result.ret = a;
            result.rf_state = regs;
            return finish(std::move(result), std::move(mem),
                          op.a_imm ? -1 : static_cast<std::int32_t>(op.a_slot));
          default: {
            const std::uint32_t value = compute(op.op, a, b, mem);
            if (op.dst_slot >= 0) {
              std::size_t row = wb_idx + static_cast<std::size_t>(op.latency) + 1;
              if (row >= ring) row -= ring;  // latency + 1 < ring: one wrap at most
              const std::uint32_t idx = wb_count[row];
              if (lanes_dirty) {
                const std::size_t eid = eid_base + row * row_cap + idx;
                LaneMask affected = d.mask[eid];
                if (!op.a_imm) affected |= d.mask[op.a_slot];
                if (!op.b_imm) affected |= d.mask[op.b_slot];
                if (ir::is_load(op.op)) {
                  for_lanes(d.delta_mask & core.live, [&](int l) {
                    if (d.delta[static_cast<std::size_t>(l)].overlaps(
                            a, static_cast<std::uint32_t>(mem_access_bytes(op.op)))) {
                      affected |= lane_bit(l);
                    }
                  });
                }
                for_lanes(affected & core.live, [&](int l) {
                  const std::uint32_t la = op.a_imm ? a : d.get(l, op.a_slot, a);
                  const std::uint32_t lb = op.b_imm ? b : d.get(l, op.b_slot, b);
                  const std::uint32_t lv = compute(
                      op.op, la, lb, LaneMemory{mem, d.delta[static_cast<std::size_t>(l)]});
                  d.set(l, eid, lv, value);
                });
              }
              wb[row * row_cap + idx] = Write{static_cast<std::uint32_t>(op.dst_slot), value};
              wb_count[row] = idx + 1;
            }
            break;
          }
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
  result.status = ExecStatus::TimedOut;
  result.cycles = max_cycles;
  result.rf_state = regs;
  return finish(std::move(result), std::move(mem), -1);
}

// ---- TTA engine --------------------------------------------------------
//
// Mirrors TtaSim::run_fast<false, true> (tta/sim.cpp). Location ids cover
// every piece of leader state a lane can diverge in: flat RF slots, guard
// registers, FU operand and result ports, the in-flight result ring
// (one id per (column, entry)) and the double-buffered RF/guard pending
// lists (one id per list position). Pending/ring diffs fold into their
// destination's diff at the commit phase that consumes them, mirroring the
// leader's data flow; guard values are stored as 0/1 words. A lane whose
// guard-squash or Bnz decision differs from the leader's is evicted as a
// proven divergence, and so is one whose memory address is out of bounds
// on one side only.

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
  core.init(n_ids, lane_faults);
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
    lo.mem.emplace(materialize(mem, d.delta[static_cast<std::size_t>(l)]));
  };
  // Any other divergence reruns the lane from cycle 0.
  auto evict_rerun = [&](int l) {
    rerun_lane<tta::TtaSim>(program, machine, pre_ptr, initial_mem,
                            lane_faults[static_cast<std::size_t>(l)], max_cycles,
                            core.evict(l, cycle));
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
      return finish(*reference, *reference_mem, /*ret_id=*/-1);
    }
    // All-clean fast path (see the scalar engine): no live lane differs, so
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
              // Dirty load addresses stay exact (see the scalar engine).
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
              // Dirty store addresses stay exact (see the scalar engine).
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
