// Lockstep lanes as a policy of a model's own fast loop (sim/lockstep.hpp).
//
// A lockstep batch runs one fault-free leader through a model's fast loop
// and carries up to kMaxLanes faulty lanes along as sparse diffs against
// the leader's state. The scalar, VLIW and TTA fast loops are templates
// over a lane policy, which they reach through the simulator's `lanes_`
// pointer:
//
//  * NoLanes is the plain run. Every hook call in a loop sits under
//    `if constexpr`, so this instantiation is the loop without them;
//    sim::run_fast_loop only ever dispatches it.
//  * RegLanes is the policy of all three models. Its location ids are the
//    flat RF slots; VLIW adds one id per write-back ring entry, and TTA
//    adds the datapath its moves expose (TtaLaneIds): the guard registers,
//    the FU operand and result ports, the result ring's entries, and the
//    two halves of the RF and guard pending lists. The loop calls one hook
//    at each point where it touches state a lane can differ in:
//      top        lane faults and the settled early exit, once per loop turn;
//      var_shift  the scalar variable-shift duration;
//      guard      a TTA guarded move's squash decision;
//      move       a TTA transport to an operand port or a pending write;
//      mem_access memory bounds and divergent-address stores;
//      store      the bytes a store writes;
//      bnz        the branch decision;
//      write      an op's destination: an RF slot or a ring entry;
//      commit     a ring or pending entry landing in its destination;
//      ret        the location Ret reads its value from.
//    The op-shaped hooks read an instruction record's op and its a/b
//    operands, each a location id (`a_slot`) or an immediate (`a_imm`). A
//    TTA trigger's operands are its moved value's source and its FU's
//    operand port.
//    The run_*_batch entry points build the policy, run the leader's loop
//    with it and assemble the BatchResult.
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

// ---- The lane policy ---------------------------------------------------

/// Location ids of a TTA leader (TtaSim::run_fast) past its flat RF slots,
/// each region's first id; guard values are 0/1 words.
struct TtaLaneIds {
  std::uint32_t guard = 0;          // + guard register
  std::uint32_t operand = 0;        // + FU: its operand port
  std::uint32_t result = 0;         // + FU: its result register
  std::uint32_t ring = 0;           // + column * FUs + entry: an in-flight result
  std::uint32_t rf_pending = 0;     // + half * pend_cap + position
  std::uint32_t guard_pending = 0;  // + half * pend_cap + position
  std::uint32_t end = 0;            // the number of ids
  /// Positions per pending-list half: the widest instruction's moves + 1.
  std::uint32_t pend_cap = 0;
};

TtaLaneIds tta_lane_ids(const PredecodedTta& pre, const mach::Machine& machine);

/// Lanes of a scalar, VLIW or TTA leader. The op-shaped hooks read an
/// instruction record's op and a/b operands: sim::ScalarPInstr and
/// sim::VliwPOp have them, and the TTA loop names a trigger's.
class RegLanes {
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
  /// (`rf_base` per register file of `machine`), laid out past them as
  /// `tta` says on a TTA machine. `leader_mem` is the image the leader runs
  /// on, `initial_mem` the one it started from, and evicted lanes run on
  /// `image`, any image of their size. With a `reference` outcome the batch
  /// may stop once every lane settled.
  RegLanes(std::span<const FaultSet> lane_faults, std::size_t n_ids, std::uint32_t rf_slots,
           const std::vector<std::uint32_t>& rf_base, const TtaLaneIds& tta,
           const mach::Machine& machine, const ir::Memory& leader_mem,
           const ir::Memory& initial_mem, ir::Memory& image, const ExecResult* reference,
           const ir::Memory* reference_mem, Exit exit, Runner run);
  // The leader's simulator holds the policy's address during its run.
  RegLanes(const RegLanes&) = delete;
  RegLanes& operator=(const RegLanes&) = delete;

  const TtaLaneIds& tta_ids() const { return tta_; }

  /// The leader's state an eviction or a fault reads: its flat RF, the
  /// scalar scoreboard, and the TTA FU result registers and guards. Called
  /// once, before the first loop turn.
  void start(const std::vector<std::uint32_t>& regs, const std::vector<std::uint64_t>* ready,
             const std::vector<std::uint32_t>* fu_result = nullptr,
             const std::vector<std::uint8_t>* guards = nullptr) {
    regs_ = &regs;
    ready_ = ready;
    fu_result_ = fu_result;
    guards_ = guards;
  }

  /// Top of a loop turn at `cycle` and `pc`: apply the lanes' due faults.
  /// True when the batch settled and the loop should stop.
  bool top(std::uint64_t cycle, std::uint32_t pc) {
    now_ = cycle;
    pc_ = pc;
    if (cycle >= next_due_) apply_due();
    if (reference_ != nullptr && settled()) return settled_ = true;
    // All-clean fast path: when no live_ lane differs anywhere (diff_mask
    // covers dirty ids and memory deltas both), every hook until the next
    // top() is a no-op, so the leader runs at plain fast-loop cost. Evicted
    // lanes may hold stale dirt (their clear_all is skipped too); every
    // consumer filters with `& live_`, so that dirt is unreachable.
    dirty_ = (d_.diff_mask & live_) != 0;
    return false;
  }

  /// A register shift amount `b` sets the scalar shift loop's duration: a
  /// lane whose masked amount differs runs a different number of cycles.
  template <typename In>
  void var_shift(const In& in, std::uint32_t b) {
    if (!dirty_ || in.b_imm) return;
    for_lanes(d_.mask[in.b_slot] & live_, [&](int l) {
      if ((d_.get(l, in.b_slot, b) & 31) != (b & 31)) diverge(l);
    });
  }

  /// A guarded TTA move. Guards hold 0/1, so a lane whose guard differs
  /// squashes the move where the leader does not, or the reverse, and runs
  /// a different move set from here on.
  void guard(const TtaPMove& mv) {
    if (dirty_) for_lanes(d_.mask[tta_.guard + mv.guard] & live_, [&](int l) { diverge(l); });
  }

  /// Before TTA move `mv` lands in an operand port, or at position `pos` of
  /// pending-list half `half` for an RF or guard write: each lane's value
  /// at the move's source, or the immediate, lands there too; a guard
  /// stores 0/1. A trigger's moved value has no hook: it stays readable at
  /// its source, which operands() names.
  void move(const TtaPMove& mv, std::size_t half, std::size_t pos) {
    if (!dirty_) return;
    const bool src_imm = mv.src == TtaPMove::Src::Imm;
    const std::size_t src = source(mv);
    const std::uint32_t value = src_imm                               ? mv.imm
                                : mv.src == TtaPMove::Src::FuResult ? (*fu_result_)[mv.src_slot]
                                                                    : (*regs_)[mv.src_slot];
    const bool to_guard = mv.dst == TtaPMove::Dst::GuardWrite;
    const std::size_t sink =
        mv.dst == TtaPMove::Dst::FuOperand
            ? tta_.operand + mv.dst_slot
            : (to_guard ? tta_.guard_pending : tta_.rf_pending) + half * tta_.pend_cap + pos;
    LaneMask affected = d_.mask[sink];
    if (!src_imm) affected |= d_.mask[src];
    const std::uint32_t leader = to_guard ? (value != 0 ? 1u : 0u) : value;
    for_lanes(affected & live_, [&](int l) {
      const std::uint32_t lv = src_imm ? value : d_.get(l, src, value);
      d_.set(l, sink, to_guard ? (lv != 0 ? 1u : 0u) : lv, leader);
    });
  }

  /// A TTA trigger's operands by location id, as the op-shaped hooks read
  /// them: Binary ops (operand port, moved value), Input ops the moved
  /// value, stores (moved address, operand port data), Bnz and Ret the
  /// operand port.
  struct Operands {
    ir::Opcode op;
    bool a_imm, b_imm;
    std::uint32_t a_slot, b_slot;
  };
  Operands operands(const TtaPMove& mv) const {
    const bool moved_imm = mv.src == TtaPMove::Src::Imm;
    const auto moved = static_cast<std::uint32_t>(source(mv));
    const std::uint32_t port = tta_.operand + mv.dst_slot;
    switch (mv.fire) {
      case TtaPMove::Fire::Binary: return {mv.opcode, false, moved_imm, port, moved};
      case TtaPMove::Fire::Input: return {mv.opcode, moved_imm, true, moved, 0};
      case TtaPMove::Fire::Store: return {mv.opcode, moved_imm, false, moved, port};
      default: return {mv.opcode, false, true, port, 0};
    }
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
    for_lanes(d_.mask[in.a_slot] & live_, [&](int l) {
      const std::uint32_t la = d_.get(l, in.a_slot, a);
      if (!mem_in_bounds(in.op, la, mem.size())) {
        out_of_bounds(l, unit, la);
      } else if (!leader_ok) {
        diverge(l);
      } else if (ir::is_store(in.op)) {
        const std::uint32_t lb = in.b_imm ? b : d_.get(l, in.b_slot, b);
        store_diverged(d_, l, mem, mem_access_bytes(in.op), a, b, la, lb);
      }
    });
  }

  /// After any op; for a store of `b` at `a`, whose leader bytes just
  /// landed, lane bytes set-or-erase against them.
  template <typename In>
  void store(const In& in, std::uint32_t a, std::uint32_t b) {
    if (!dirty_ || !ir::is_store(in.op)) return;
    const auto nbytes = static_cast<std::uint32_t>(mem_access_bytes(in.op));
    LaneMask affected = d_.delta_mask;
    if (!in.b_imm) affected |= d_.mask[in.b_slot];
    // Dirty-address lanes were fully handled by store_diverged.
    if (!in.a_imm) affected &= ~d_.mask[in.a_slot];
    for_lanes(affected & live_, [&](int l) {
      // Clean data: only lanes whose delta overlaps the range matter (their
      // divergent bytes get overwritten and erased).
      const bool clean = in.b_imm || !d_.dirty(l, in.b_slot);
      if (clean && !d_.delta[static_cast<std::size_t>(l)].overlaps(a, nbytes)) return;
      const std::uint32_t lb = in.b_imm ? b : d_.get(l, in.b_slot, b);
      for (std::uint32_t i = 0; i < nbytes; ++i) {
        d_.mem_set(l, a + i, static_cast<std::uint8_t>(lb >> (8 * i)),
                  static_cast<std::uint8_t>(b >> (8 * i)));
      }
    });
  }

  /// A Bnz on `a`: a lane whose decision differs diverges.
  template <typename In>
  void bnz(const In& in, std::uint32_t a) {
    if (!dirty_ || in.a_imm) return;
    const bool taken = a != 0;
    for_lanes(d_.mask[in.a_slot] & live_, [&](int l) {
      if ((d_.get(l, in.a_slot, a) != 0) != taken) diverge(l);
    });
  }

  /// Before the leader writes `value` (the op's result on `a`, `b`) to
  /// location `id`. With `merge`, the value `id` already holds for the
  /// leader (a same-FU completion tie in the TTA result ring), the larger of
  /// the two lands there, for each lane as for the leader.
  template <typename In>
  void write(std::size_t id, const In& in, std::uint32_t a, std::uint32_t b, std::uint32_t value,
             const std::uint32_t* merge = nullptr) {
    if (!dirty_) return;
    LaneMask affected = d_.mask[id];
    if (!in.a_imm) affected |= d_.mask[in.a_slot];
    if (!in.b_imm) affected |= d_.mask[in.b_slot];
    if (ir::is_load(in.op)) {
      for_lanes(d_.delta_mask & live_, [&](int l) {
        if (d_.delta[static_cast<std::size_t>(l)].overlaps(
                a, static_cast<std::uint32_t>(mem_access_bytes(in.op)))) {
          affected |= lane_bit(l);
        }
      });
    }
    const std::uint32_t leader = merge != nullptr ? std::max(*merge, value) : value;
    for_lanes(affected & live_, [&](int l) {
      const std::uint32_t la = in.a_imm ? a : d_.get(l, in.a_slot, a);
      const std::uint32_t lb = in.b_imm ? b : d_.get(l, in.b_slot, b);
      std::uint32_t lv =
          compute(in.op, la, lb, LaneMemory{*leader_mem_, d_.delta[static_cast<std::size_t>(l)]});
      if (merge != nullptr) lv = std::max(d_.get(l, id, *merge), lv);
      d_.set(l, id, lv, leader);
    });
  }

  /// Before ring or pending entry `id` lands `value` in location `dest`:
  /// the entry's lane diffs fold into the destination's, and the entry is
  /// free for reuse.
  void commit(std::size_t id, std::size_t dest, std::uint32_t value) {
    if (!dirty_) return;
    for_lanes((d_.mask[id] | d_.mask[dest]) & live_,
              [&](int l) { d_.set(l, dest, d_.get(l, id, value), value); });
    d_.clear_all(id);
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
  /// The location a TTA move reads (unused for an immediate).
  std::size_t source(const TtaPMove& mv) const {
    return mv.src == TtaPMove::Src::FuResult ? tta_.result + mv.src_slot : mv.src_slot;
  }
  /// Apply every fault due by now_, in FaultSet array order per lane,
  /// exactly where the plain loops apply them.
  void apply_due();
  void apply_fault(int lane, const StateFault& f);
  void recompute_next_due();
  /// True when no live lane can ever diverge from the leader again: no
  /// state/memory diff left and no fault still to apply.
  bool settled() const { return (d_.diff_mask & live_) == 0 && (fault_pending_ & live_) == 0; }
  /// Lane `l`'s RF and guard diffs, and its return value when read from
  /// dirty location `ret_id` (-1: an immediate or none), over `r`, a copy
  /// of the leader's result.
  void overlay(int l, std::int64_t ret_id, ExecResult& r) const;
  /// Remove lane `l`, whose control flow, timing or trap provably diverged
  /// from the leader's now, and return its outcome slot for the lane's own
  /// outcome.
  LaneOutcome& evict(int l);
  /// The eviction image reset to `base`, with lane `l`'s delta over it
  /// (-1: none).
  ir::Memory& eviction_image(const ir::Memory& base, int l = -1);
  /// Keep the eviction image in evicted lane `lo` as its pages.
  void keep_image(LaneOutcome& lo) const {
    lo.pages = image_->pages_differing_from(initial_pages_);
  }
  /// Evict lane `l`, whose control flow or timing diverges here.
  void diverge(int l);
  /// Evict lane `l`, whose own access at `addr` on `unit` is out of bounds.
  void out_of_bounds(int l, int unit, std::uint32_t addr);
  /// Evict lane `l` and resume it from its state at this instruction.
  void resume(int l);

  std::span<const FaultSet> lane_faults_;
  std::uint32_t rf_slots_;
  const std::vector<std::uint32_t>& rf_base_;
  TtaLaneIds tta_;
  const mach::Machine& machine_;
  const ir::Memory* leader_mem_;
  const ir::Memory* initial_mem_;
  const ExecResult* reference_;
  const ir::Memory* reference_mem_;
  Exit exit_;
  Runner run_;

  LaneDiffs d_;
  int n_lanes_ = 0;
  LaneMask live_ = 0;
  /// Lanes with faults still to apply, each lane's next and end fault, and
  /// the earliest cycle one is due.
  LaneMask fault_pending_ = 0;
  std::array<const StateFault*, kMaxLanes> fcur_{};
  std::array<const StateFault*, kMaxLanes> fend_{};
  std::uint64_t next_due_ = ~0ull;
  /// An evicted lane's slot holds its own outcome from the eviction on; the
  /// others are filled from the leader's at halt (finish).
  std::vector<LaneOutcome> outcomes_;
  std::uint64_t evictions_ = 0;
  /// The batch's initial image as pages, and the caller's image every
  /// evicted lane's own run uses.
  ir::PageSet initial_pages_;
  ir::Memory* image_;

  const std::vector<std::uint32_t>* regs_ = nullptr;
  const std::vector<std::uint64_t>* ready_ = nullptr;
  const std::vector<std::uint32_t>* fu_result_ = nullptr;
  const std::vector<std::uint8_t>* guards_ = nullptr;
  std::uint64_t now_ = 0;
  std::uint32_t pc_ = 0;
  bool dirty_ = false;
  bool settled_ = false;
  std::int64_t ret_id_ = -1;
};

}  // namespace ttsc::sim
