// Lockstep lanes as a policy of a model's own fast loop (sim/lockstep.hpp).
//
// A lockstep batch runs one fault-free leader through a model's fast loop
// and carries up to kMaxLanes faulty lanes along as sparse diffs against
// the leader's state. The scalar and VLIW fast loops are templates over a
// lane policy, which they reach through the simulator's `lanes_` pointer:
//
//  * NoLanes is the plain run. Every hook call in a loop sits under
//    `if constexpr`, so this instantiation is the loop without them;
//    sim::run_fast_loop only ever dispatches it.
//  * RegLanes is the policy of the register-file models, scalar and VLIW.
//    Its location ids are the flat RF slots plus, for VLIW, one id per
//    write-back ring entry. The loop calls one hook at each point where it
//    touches state a lane can differ in:
//      top        lane faults and the settled early exit, once per loop turn;
//      var_shift  the scalar variable-shift duration;
//      mem_access memory bounds and divergent-address stores;
//      store      the bytes a store writes;
//      bnz        the branch decision;
//      write      the destination slot (scalar) or ring entry (VLIW);
//      commit     a VLIW ring entry landing in its RF slot;
//      ret        the slot Ret reads its value from.
//    The run_scalar_batch / run_vliw_batch entry points build the policy,
//    run the leader's loop with it and assemble the BatchResult.
//
// The TTA batch engine in sim/lockstep.cpp is still a mirror of its loop;
// it shares LaneDiffs, BatchCore, LaneMemory and store_diverged.
//
// Hook discipline:
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
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/compute.hpp"
#include "sim/harden.hpp"
#include "sim/lockstep.hpp"

namespace ttsc::sim {

/// The lane policy of a plain run: no lanes, no hooks.
struct NoLanes {};

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

/// Live mask, per-lane fault cursors, one outcome slot per lane and the
/// scratch image evicted lanes run on. Fault application is pointer-gated
/// exactly like the plain loops: every head entry whose cycle has been
/// reached applies, in FaultSet array order per lane.
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
  /// The batch's initial image as pages, and the one scratch image every
  /// evicted lane's own run uses (made at the first eviction).
  ir::PageSet initial_pages;
  std::optional<ir::Memory> scratch;

  void init(std::size_t n_ids, std::span<const FaultSet> lane_faults,
            const ir::Memory& initial_mem) {
    initial_pages = initial_mem.written_pages();
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

  /// The scratch image reset to `base`, with a lane's `delta` over it when
  /// given.
  ir::Memory& scratch_image(const ir::Memory& base, const MemDelta* delta = nullptr);

  /// Keep the scratch image in evicted lane `lo` as its pages.
  void keep_scratch(LaneOutcome& lo) const {
    lo.pages = scratch->pages_differing_from(initial_pages);
  }

  /// True when no live lane can ever diverge from the leader again: no
  /// state/memory diff left and no fault still to apply.
  bool settled() const { return (d.diff_mask & live) == 0 && (fault_pending & live) == 0; }
};

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
                    std::uint32_t leader_addr, std::uint32_t leader_val, std::uint32_t lane_addr,
                    std::uint32_t lane_val);

// ---- The register-file lane policy -------------------------------------

/// Lanes of a scalar or VLIW leader. Instruction records are
/// sim::ScalarPInstr or sim::VliwPOp: the hooks read the op and its a/b
/// operand fields, which the two share.
class RegLanes : BatchCore {
 public:
  /// Runs one lane's `faults` on its own hardened simulator over `mem`, from
  /// `from` (null: cycle 0) to the batch's cycle budget.
  using Runner =
      std::function<ExecResult(ir::Memory& mem, const FaultSet& faults, const Snapshot* from)>;

  /// How an evicted lane gets its outcome.
  enum class Exit {
    /// Every eviction resumes from the lane's state at the divergent
    /// instruction: the leader's plus the lane's diffs. A scalar
    /// instruction boundary has no write in flight, so that state is a
    /// complete sim::Snapshot.
    Resume,
    /// A lane whose own address is out of bounds traps right there, and
    /// lockstep states that trap; any other divergence reruns from cycle 0.
    RerunOrTrap,
  };

  /// `n_ids` location ids, the first `rf_slots` of them the flat RF slots
  /// (`rf_base` per register file of `machine`). `leader_mem` is the image
  /// the leader runs on, `initial_mem` the one it started from. With a
  /// `reference` outcome the batch may stop once every lane settled.
  RegLanes(std::span<const FaultSet> lane_faults, std::size_t n_ids, std::uint32_t rf_slots,
           const std::vector<std::uint32_t>& rf_base, const mach::Machine& machine,
           const ir::Memory& leader_mem, const ir::Memory& initial_mem,
           const ExecResult* reference, const ir::Memory* reference_mem, Exit exit, Runner run);
  // The leader's simulator holds the policy's address during its run.
  RegLanes(const RegLanes&) = delete;
  RegLanes& operator=(const RegLanes&) = delete;

  /// The leader's flat RF and, for scalar, its scoreboard: the state an
  /// eviction reads. Called once, before the first loop turn.
  void start(const std::vector<std::uint32_t>& regs, const std::vector<std::uint64_t>* ready) {
    regs_ = &regs;
    ready_ = ready;
  }

  /// Top of a loop turn at `cycle` and `pc`: apply the lanes' due faults.
  /// True when the batch settled and the loop should stop.
  bool top(std::uint64_t cycle, std::uint32_t pc) {
    now_ = cycle;
    pc_ = pc;
    apply_due(cycle, [&](int lane, const StateFault& f) { apply_fault(lane, f); });
    if (reference_ != nullptr && settled()) return settled_ = true;
    // All-clean fast path: when no live lane differs anywhere (diff_mask
    // covers dirty ids and memory deltas both), every hook until the next
    // top() is a no-op, so the leader runs at plain fast-loop cost. Evicted
    // lanes may hold stale dirt (their clear_all is skipped too); every
    // consumer filters with `& live`, so that dirt is unreachable.
    dirty_ = (d.diff_mask & live) != 0;
    return false;
  }

  /// A register shift amount `b` sets the scalar shift loop's duration: a
  /// lane whose masked amount differs runs a different number of cycles.
  template <typename In>
  void var_shift(const In& in, std::uint32_t b) {
    if (!dirty_ || in.b_imm) return;
    for_lanes(d.mask[in.b_slot] & live, [&](int l) {
      if ((d.get(l, in.b_slot, b) & 31) != (b & 31)) diverge(l);
    });
  }

  /// Before any op at address `a` (data `b` for stores) on `unit`; a no-op
  /// unless it is a memory op. A dirty load address stays exact in
  /// lockstep: write() reads the lane's own address through its delta. A
  /// dirty store address stays exact too: store_diverged rewrites the
  /// lane's delta over the leader's range and the lane's own. Only a bounds
  /// check that goes the other way than the leader's is a divergence.
  template <typename In>
  void mem_access(const In& in, std::uint32_t a, std::uint32_t b, int unit) {
    if (!dirty_ || in.a_imm || !ir::is_memory(in.op)) return;
    const ir::Memory& mem = *leader_mem_;
    const bool leader_ok = mem_in_bounds(in.op, a, mem.size());
    for_lanes(d.mask[in.a_slot] & live, [&](int l) {
      const std::uint32_t la = d.get(l, in.a_slot, a);
      if (!mem_in_bounds(in.op, la, mem.size())) {
        out_of_bounds(l, unit, la);
      } else if (!leader_ok) {
        diverge(l);
      } else if (ir::is_store(in.op)) {
        const std::uint32_t lb = in.b_imm ? b : d.get(l, in.b_slot, b);
        store_diverged(d, l, mem, mem_access_bytes(in.op), a, b, la, lb);
      }
    });
  }

  /// After any op; for a store of `b` at `a`, whose leader bytes just
  /// landed, lane bytes set-or-erase against them.
  template <typename In>
  void store(const In& in, std::uint32_t a, std::uint32_t b) {
    if (!dirty_ || !ir::is_store(in.op)) return;
    const auto nbytes = static_cast<std::uint32_t>(mem_access_bytes(in.op));
    LaneMask affected = d.delta_mask;
    if (!in.b_imm) affected |= d.mask[in.b_slot];
    // Dirty-address lanes were fully handled by store_diverged.
    if (!in.a_imm) affected &= ~d.mask[in.a_slot];
    for_lanes(affected & live, [&](int l) {
      // Clean data: only lanes whose delta overlaps the range matter (their
      // divergent bytes get overwritten and erased).
      const bool clean = in.b_imm || !d.dirty(l, in.b_slot);
      if (clean && !d.delta[static_cast<std::size_t>(l)].overlaps(a, nbytes)) return;
      const std::uint32_t lb = in.b_imm ? b : d.get(l, in.b_slot, b);
      for (std::uint32_t i = 0; i < nbytes; ++i) {
        d.mem_set(l, a + i, static_cast<std::uint8_t>(lb >> (8 * i)),
                  static_cast<std::uint8_t>(b >> (8 * i)));
      }
    });
  }

  /// A Bnz on `a`: a lane whose decision differs diverges.
  template <typename In>
  void bnz(const In& in, std::uint32_t a) {
    if (!dirty_ || in.a_imm) return;
    const bool taken = a != 0;
    for_lanes(d.mask[in.a_slot] & live, [&](int l) {
      if ((d.get(l, in.a_slot, a) != 0) != taken) diverge(l);
    });
  }

  /// Before the leader writes `value` (the op's result on `a`, `b`) to
  /// location `id`.
  template <typename In>
  void write(std::size_t id, const In& in, std::uint32_t a, std::uint32_t b,
             std::uint32_t value) {
    if (!dirty_) return;
    LaneMask affected = d.mask[id];
    if (!in.a_imm) affected |= d.mask[in.a_slot];
    if (!in.b_imm) affected |= d.mask[in.b_slot];
    if (ir::is_load(in.op)) {
      for_lanes(d.delta_mask & live, [&](int l) {
        if (d.delta[static_cast<std::size_t>(l)].overlaps(
                a, static_cast<std::uint32_t>(mem_access_bytes(in.op)))) {
          affected |= lane_bit(l);
        }
      });
    }
    for_lanes(affected & live, [&](int l) {
      const std::uint32_t la = in.a_imm ? a : d.get(l, in.a_slot, a);
      const std::uint32_t lb = in.b_imm ? b : d.get(l, in.b_slot, b);
      const std::uint32_t lv =
          compute(in.op, la, lb, LaneMemory{*leader_mem_, d.delta[static_cast<std::size_t>(l)]});
      d.set(l, id, lv, value);
    });
  }

  /// Before ring entry `id` lands `value` in RF slot `slot`: the entry's
  /// lane diffs fold into the slot's, and the entry is free for reuse.
  void commit(std::size_t id, std::uint32_t slot, std::uint32_t value) {
    if (!dirty_) return;
    for_lanes((d.mask[id] | d.mask[slot]) & live,
              [&](int l) { d.set(l, slot, d.get(l, id, value), value); });
    d.clear_all(id);
  }

  /// Ret reads its value from `in`'s a operand.
  template <typename In>
  void ret(const In& in) {
    ret_id_ = in.a_imm ? -1 : static_cast<std::int64_t>(in.a_slot);
  }

  /// The batch outcome after the leader's loop returned `leader` on
  /// `leader_mem` (the reference outcome when it stopped settled).
  BatchResult finish(ExecResult leader, ir::Memory leader_mem);

 private:
  void apply_fault(int lane, const StateFault& f);
  /// Evict lane `l`, whose control flow or timing diverges here.
  void diverge(int l);
  /// Evict lane `l`, whose own access at `addr` on `unit` is out of bounds.
  void out_of_bounds(int l, int unit, std::uint32_t addr);
  /// Evict lane `l` and resume it from its state at this instruction.
  void resume(int l);

  std::span<const FaultSet> lane_faults_;
  std::uint32_t rf_slots_;
  const std::vector<std::uint32_t>& rf_base_;
  const mach::Machine& machine_;
  const ir::Memory* leader_mem_;
  const ir::Memory* initial_mem_;
  const ExecResult* reference_;
  const ir::Memory* reference_mem_;
  Exit exit_;
  Runner run_;

  const std::vector<std::uint32_t>* regs_ = nullptr;
  const std::vector<std::uint64_t>* ready_ = nullptr;
  std::uint64_t now_ = 0;
  std::uint32_t pc_ = 0;
  bool dirty_ = false;
  bool settled_ = false;
  std::int64_t ret_id_ = -1;
};

}  // namespace ttsc::sim
