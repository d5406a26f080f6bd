// Batched lockstep fault-injection execution (see lockstep.hpp).
//
// Every model's batch runs the leader on the model's own fast loop with
// the RegLanes policy (sim/lanes.hpp); this file holds the lane memory
// deltas, the policy's faults, evictions and result assembly, and the
// per-model location-id layouts. The differential fleet in
// tests/lockstep_test.cpp locks every lane's ExecResult and memory image to
// a standalone hardened run.
#include "sim/lockstep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "sim/lanes.hpp"
#include "support/assert.hpp"

namespace ttsc::sim {

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

// ---- The lane policy ---------------------------------------------------

TtaLaneIds tta_lane_ids(const PredecodedTta& pre, const mach::Machine& machine) {
  // The same pending-list capacity TtaSim::run_fast sizes its halves with.
  std::uint32_t max_instr_moves = 0;
  for (std::size_t i = 0; i < pre.num_instrs(); ++i) {
    max_instr_moves = std::max(max_instr_moves, pre.instr_begin[i + 1] - pre.instr_begin[i]);
  }
  const auto fus = static_cast<std::uint32_t>(machine.fus.size());
  TtaLaneIds ids;
  ids.pend_cap = max_instr_moves + 1;
  ids.guard = pre.rf_slots;
  ids.operand = ids.guard + static_cast<std::uint32_t>(machine.guard_regs);
  ids.result = ids.operand + fus;
  ids.ring = ids.result + fus;
  ids.rf_pending = ids.ring + static_cast<std::uint32_t>(pre.ring) * fus;
  ids.guard_pending = ids.rf_pending + 2 * ids.pend_cap;
  ids.end = ids.guard_pending + 2 * ids.pend_cap;
  return ids;
}

RegLanes::RegLanes(std::span<const FaultSet> lane_faults, std::size_t n_ids,
                   std::uint32_t rf_slots, const std::vector<std::uint32_t>& rf_base,
                   const TtaLaneIds& tta, const mach::Machine& machine,
                   const ir::Memory& leader_mem, const ir::Memory& initial_mem, ir::Memory& image,
                   const ExecResult* reference, const ir::Memory* reference_mem, Exit exit,
                   Runner run)
    : lane_faults_(lane_faults),
      rf_slots_(rf_slots),
      rf_base_(rf_base),
      tta_(tta),
      machine_(machine),
      leader_mem_(&leader_mem),
      initial_mem_(&initial_mem),
      reference_(reference),
      reference_mem_(reference_mem),
      exit_(exit),
      run_(std::move(run)),
      n_lanes_(static_cast<int>(lane_faults.size())),
      outcomes_(lane_faults.size()),
      initial_pages_(initial_mem.written_pages()),
      image_(&image) {
  TTSC_ASSERT((reference == nullptr) == (reference_mem == nullptr),
              "reference result and memory must be passed together");
  TTSC_ASSERT(n_lanes_ >= 1 && n_lanes_ <= kMaxLanes, "lockstep: 1..kMaxLanes lanes per batch");
  d_.init(n_ids, n_lanes_);
  live_ = n_lanes_ == kMaxLanes ? ~LaneMask{0} : lane_bit(n_lanes_) - 1;
  for (int l = 0; l < n_lanes_; ++l) {
    const auto sl = static_cast<std::size_t>(l);
    fcur_[sl] = lane_faults[sl].faults.data();
    fend_[sl] = fcur_[sl] + lane_faults[sl].faults.size();
    if (fcur_[sl] != fend_[sl]) fault_pending_ |= lane_bit(l);
  }
  recompute_next_due();
}

void RegLanes::recompute_next_due() {
  next_due_ = ~0ull;
  for_lanes(fault_pending_ & live_, [&](int l) {
    next_due_ = std::min(next_due_, fcur_[static_cast<std::size_t>(l)]->cycle);
  });
}

void RegLanes::apply_due() {
  for_lanes(fault_pending_ & live_, [&](int l) {
    const auto sl = static_cast<std::size_t>(l);
    for (; fcur_[sl] != fend_[sl] && fcur_[sl]->cycle <= now_; ++fcur_[sl]) {
      apply_fault(l, *fcur_[sl]);
    }
    if (fcur_[sl] == fend_[sl]) fault_pending_ &= ~lane_bit(l);
  });
  recompute_next_due();
}

void RegLanes::apply_fault(int lane, const StateFault& f) {
  auto flip = [&](std::size_t id, std::uint32_t leader, std::uint32_t mask) {
    d_.set(lane, id, d_.get(lane, id, leader) ^ mask, leader);
  };
  const auto unit = static_cast<std::size_t>(f.unit);
  switch (f.kind) {
    case FaultKind::RfBit: {
      if (f.unit < 0 || unit >= machine_.rfs.size()) return;
      if (f.index < 0 || f.index >= machine_.rfs[unit].size) return;
      const std::size_t slot = rf_base_[unit] + static_cast<std::uint32_t>(f.index);
      return flip(slot, (*regs_)[slot], fault_mask(f));
    }
    // The FU result registers and guards are TTA state: the other models'
    // leaders pass neither, and their loops ignore such faults.
    case FaultKind::FuResultBit:
      if (fu_result_ == nullptr || f.unit < 0 || unit >= fu_result_->size()) return;
      return flip(tta_.result + unit, (*fu_result_)[unit], fault_mask(f));
    case FaultKind::GuardBit:
      if (guards_ == nullptr || f.unit < 0 || unit >= guards_->size()) return;
      return flip(tta_.guard + unit, (*guards_)[unit], 1u);
  }
}

void RegLanes::overlay(int l, std::int64_t ret_id, ExecResult& r) const {
  const std::size_t base = static_cast<std::size_t>(l) * d_.n_ids;
  for (std::uint32_t id = 0; id < rf_slots_; ++id) {
    if (d_.dirty(l, id)) r.rf_state[id] = d_.value[base + id];
  }
  for (std::size_t g = 0; g < r.guard_state.size(); ++g) {
    if (d_.dirty(l, tta_.guard + g)) {
      r.guard_state[g] = static_cast<std::uint8_t>(d_.value[base + tta_.guard + g]);
    }
  }
  if (ret_id >= 0 && d_.dirty(l, static_cast<std::size_t>(ret_id))) {
    r.ret = d_.value[base + static_cast<std::size_t>(ret_id)];
  }
}

LaneOutcome& RegLanes::evict(int l) {
  live_ &= ~lane_bit(l);
  ++evictions_;
  recompute_next_due();
  LaneOutcome& lo = outcomes_[static_cast<std::size_t>(l)];
  lo.evicted = true;
  lo.diverge_cycle = now_;
  return lo;
}

ir::Memory& RegLanes::eviction_image(const ir::Memory& base, int l) {
  image_->restore_from(base);
  if (l >= 0) apply_delta(*image_, d_.delta[static_cast<std::size_t>(l)]);
  return *image_;
}

void RegLanes::diverge(int l) {
  if (exit_ == Exit::Resume) return resume(l);
  LaneOutcome& lo = evict(l);
  lo.result = run_(eviction_image(*initial_mem_), lane_faults_[static_cast<std::size_t>(l)],
                   nullptr);
  keep_image(lo);
}

void RegLanes::out_of_bounds(int l, int unit, std::uint32_t addr) {
  if (exit_ == Exit::Resume) return resume(l);
  // The lane traps at exactly this cycle, before any further state change,
  // with state lockstep already holds: its standalone run needs no rerun.
  LaneOutcome& lo = evict(l);
  lo.result.status = ExecStatus::Trapped;
  lo.result.trap = TrapInfo{TrapReason::MemoryOutOfRange, now_, unit, addr};
  lo.result.cycles = now_;
  lo.result.rf_state = *regs_;
  if (guards_ != nullptr) lo.result.guard_state = *guards_;
  overlay(l, -1, lo.result);
  eviction_image(*leader_mem_, l);
  keep_image(lo);
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
    if (d_.dirty(l, id)) from.regs[id] = d_.value[sl * d_.n_ids + id];
  }
  const FaultSet rest{std::vector<StateFault>(fcur_[sl], fend_[sl])};
  LaneOutcome& lo = evict(l);
  lo.result = run_(eviction_image(*leader_mem_, l), rest, &from);
  keep_image(lo);
}

BatchResult RegLanes::finish(ExecResult leader, ir::Memory leader_mem) {
  if (settled_) {
    // The leader stopped early: its image becomes the reference's by
    // copying only the pages either wrote.
    leader = *reference_;
    leader_mem.restore_from(*reference_mem_);
  }
  // Evicted lanes keep the outcome their eviction stored; every other lane
  // gets the leader's result with its overlays.
  BatchResult out;
  out.leader = std::move(leader);
  out.leader_mem = std::move(leader_mem);
  out.initial = std::move(initial_pages_);
  out.evictions = evictions_;
  out.lanes = std::move(outcomes_);
  for (int l = 0; l < n_lanes_; ++l) {
    const auto sl = static_cast<std::size_t>(l);
    LaneOutcome& lo = out.lanes[sl];
    if (lo.evicted) continue;
    lo.result = out.leader;
    overlay(l, ret_id_, lo.result);
    lo.delta = std::move(d_.delta[sl]);
    lo.converged = d_.dirty_count[sl] == 0 && lo.delta.empty();
  }
  return out;
}

// ---- Batches -----------------------------------------------------------

template <typename Program, typename Predecoded>
BatchResult run_batch(const Program& program, const mach::Machine& machine,
                      const std::shared_ptr<const Predecoded>& pre, const ir::Memory& initial_mem,
                      std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                      ir::Memory& image, const ExecResult* reference,
                      const ir::Memory* reference_mem) {
  using Sim = SimOf<Program>;
  // Location ids past the flat RF slots: VLIW's write-back ring entries
  // (VliwSim::run_fast's `ring` rows of num_slots * ring) and TTA's
  // datapath. A scalar lane resumes at its eviction, where no write is in
  // flight; the others rerun.
  std::size_t n_ids = pre->rf_slots;
  TtaLaneIds tta;
  RegLanes::Exit exit = RegLanes::Exit::RerunOrTrap;
  if constexpr (std::is_same_v<Sim, scalar::ScalarSim>) {
    exit = RegLanes::Exit::Resume;
  } else if constexpr (std::is_same_v<Sim, vliw::VliwSim>) {
    const auto ring = static_cast<std::size_t>(pre->ring);
    n_ids += ring * static_cast<std::size_t>(program.num_slots) * ring;
  } else {
    tta = tta_lane_ids(*pre, machine);
    n_ids = tta.end;
  }
  auto run_lane = [&](ir::Memory& mem, const FaultSet& faults, const Snapshot* from) {
    Sim s(program, machine, mem, {.harden = true, .faults = &faults});
    s.use_predecoded(pre);
    return std::get<ExecResult>(s.run(max_cycles, from, kNoStop));
  };
  // The leader's own image outlives the batch: lanes are classified
  // against it.
  ir::Memory mem = initial_mem;
  RegLanes lanes(lane_faults, n_ids, pre->rf_slots, pre->rf_base, tta, machine, mem, initial_mem,
                 image, reference, reference_mem, exit, run_lane);
  Sim leader(program, machine, mem, {.harden = true});
  leader.use_predecoded(pre);
  ExecResult result = leader.run(max_cycles, lanes);
  return lanes.finish(std::move(result), std::move(mem));
}

#define TTSC_RUN_BATCH(PROGRAM, PREDECODED)                                                 \
  template BatchResult run_batch(const PROGRAM&, const mach::Machine&,                      \
                                 const std::shared_ptr<const PREDECODED>&, const ir::Memory&, \
                                 std::span<const FaultSet>, std::uint64_t, ir::Memory&,      \
                                 const ExecResult*, const ir::Memory*);
TTSC_RUN_BATCH(scalar::ScalarProgram, PredecodedScalar)
TTSC_RUN_BATCH(vliw::VliwProgram, PredecodedVliw)
TTSC_RUN_BATCH(tta::TtaProgram, PredecodedTta)
#undef TTSC_RUN_BATCH

BatchResult run_scalar_batch(const scalar::ScalarProgram& program, const mach::Machine& machine,
                             std::shared_ptr<const PredecodedScalar> pre,
                             const ir::Memory& initial_mem,
                             std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                             const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre != nullptr, "run_scalar_batch needs a predecoded program");
  ir::Memory image(initial_mem.size());
  return run_batch(program, machine, pre, initial_mem, lane_faults, max_cycles, image, reference,
                   reference_mem);
}

BatchResult run_vliw_batch(const vliw::VliwProgram& program, const mach::Machine& machine,
                           std::shared_ptr<const PredecodedVliw> pre,
                           const ir::Memory& initial_mem,
                           std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                           const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre != nullptr, "run_vliw_batch needs a predecoded program");
  ir::Memory image(initial_mem.size());
  return run_batch(program, machine, pre, initial_mem, lane_faults, max_cycles, image, reference,
                   reference_mem);
}

BatchResult run_tta_batch(const tta::TtaProgram& program, const mach::Machine& machine,
                          std::shared_ptr<const PredecodedTta> pre,
                          const ir::Memory& initial_mem,
                          std::span<const FaultSet> lane_faults, std::uint64_t max_cycles,
                          const ExecResult* reference, const ir::Memory* reference_mem) {
  TTSC_ASSERT(pre != nullptr, "run_tta_batch needs a predecoded program");
  ir::Memory image(initial_mem.size());
  return run_batch(program, machine, pre, initial_mem, lane_faults, max_cycles, image, reference,
                   reference_mem);
}

}  // namespace ttsc::sim
