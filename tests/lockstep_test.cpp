// Differential tests for the batched lockstep stepper (sim/lockstep.hpp).
//
// The lockstep contract is byte-identity: every lane of a batch must produce
// exactly the ExecResult and final memory image the scalar hardened fast
// path produces for the same fault — whether the lane converged, carried
// live diffs to halt, or was evicted and rerun. The corpus test sweeps that
// contract across randomly generated programs on all three models; the
// hand-assembled tests lock the divergence-detection *timing* (which cycle a
// lane is evicted at) against hand-computed schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/memory.hpp"
#include "mach/configs.hpp"
#include "resil/campaign.hpp"
#include "resil/fault_plan.hpp"
#include "scalar/scalar.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/lockstep.hpp"
#include "sim/predecode.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "tta/tta.hpp"
#include "vliw/vliw.hpp"

#include "resil_util.hpp"

namespace ttsc {
namespace {

using resil_util::Asm;
using tta::Move;
using tta::MoveDst;
using tta::MoveSrc;

// ---------------------------------------------------------------------------
// Lane-vs-scalar byte-identity check, shared by the corpus and hand tests.
//
// BatchResult::lane_image builds lane `k`'s final image: the batch's initial
// image with an evicted lane's pages, or the leader's fault-free final image
// with an in-diff lane's delta. Like the campaign, each thread builds every
// lane it checks on one reused image, so pages a previous lane left behind
// must not leak into the next.

std::string check_lane(const sim::BatchResult& br, std::size_t k, const sim::ExecResult& ref,
                       const ir::Memory& ref_mem, const char* what) {
  const sim::LaneOutcome& lo = br.lanes[k];
  std::string err;
  if (!(lo.result == ref)) {
    err += format("%s: lane ExecResult differs from scalar hardened run "
                  "(status %d vs %d, cycles %llu vs %llu, ret %u vs %u)\n",
                  what, static_cast<int>(lo.result.status), static_cast<int>(ref.status),
                  static_cast<unsigned long long>(lo.result.cycles),
                  static_cast<unsigned long long>(ref.cycles), lo.result.ret, ref.ret);
  }
  thread_local std::optional<ir::Memory> image;
  if (!image || image->size() != br.leader_mem.size()) image.emplace(br.leader_mem.size());
  br.lane_image(k, *image);
  if (!(*image == ref_mem)) err += format("%s: lane memory differs from scalar run\n", what);
  if (lo.evicted) {
    if (!lo.delta.empty()) err += format("%s: evicted lane carries a delta\n", what);
    if (lo.converged) err += format("%s: lane both evicted and converged\n", what);
  } else {
    if (!lo.pages.index.empty()) err += format("%s: in-lockstep lane carries pages\n", what);
    if (lo.converged && !lo.delta.empty()) {
      err += format("%s: converged lane has a non-empty delta\n", what);
    }
    // checksum_with_delta must agree with checksumming the lane's image
    // (the campaign classifies in-diff lanes through this shortcut).
    const std::uint32_t size = static_cast<std::uint32_t>(image->size());
    if (sim::checksum_with_delta(br.leader_mem, lo.delta, 0, size) !=
        image->checksum(0, size)) {
      err += format("%s: checksum_with_delta != lane image checksum\n", what);
    }
  }
  return err;
}

// ---------------------------------------------------------------------------
// Property corpus: for 64 generated programs x {scalar, VLIW, TTA}, run
// every fault of a sampled FaultPlan through the scalar hardened fast path
// and through one lockstep batch (both with and without the golden-reference
// early exit) and require identical results lane for lane.

constexpr int kCorpusSeeds = 64;
constexpr std::size_t kLanesPerCell = 12;

/// One generated cell on one machine: returns "" or a failure description.
template <typename Result, typename RunRef, typename RunBatch>
std::string check_cell_impl(const resil_util::GeneratedCell& cell, const Result& golden,
                            std::span<const sim::FaultSet> lane_faults, RunRef run_ref,
                            RunBatch run_batch, const std::string& tag) {
  // Per-fault scalar hardened references.
  std::vector<Result> refs(lane_faults.size());
  std::vector<ir::Memory> ref_mems;
  ref_mems.reserve(lane_faults.size());
  for (std::size_t k = 0; k < lane_faults.size(); ++k) {
    ir::Memory mem = cell.initial_mem;
    refs[k] = run_ref(lane_faults[k], mem);
    ref_mems.push_back(std::move(mem));
  }

  std::string err;
  // With the golden reference (the campaign configuration: the batch may
  // stop early once every lane settled) and without it — the lanes must not
  // be able to tell the difference.
  const sim::BatchResult with_ref = run_batch(lane_faults, &golden, &cell.golden_mem);
  const sim::BatchResult no_ref = run_batch(lane_faults, nullptr, nullptr);
  for (const sim::BatchResult* br : {&with_ref, &no_ref}) {
    const char* mode = br == &with_ref ? "with-ref" : "no-ref";
    if (!(br->leader == golden)) {
      err += format("%s %s: leader result differs from golden\n", tag.c_str(), mode);
    }
    if (!(br->leader_mem == cell.golden_mem)) {
      err += format("%s %s: leader memory differs from golden\n", tag.c_str(), mode);
    }
    if (br->lanes.size() != lane_faults.size()) {
      err += format("%s %s: %zu lanes out, %zu faults in\n", tag.c_str(), mode,
                    br->lanes.size(), lane_faults.size());
      continue;
    }
    for (std::size_t k = 0; k < br->lanes.size(); ++k) {
      err += check_lane(*br, k, refs[k], ref_mems[k],
                        format("%s %s lane %zu", tag.c_str(), mode, k).c_str());
    }
  }
  // The eviction decisions are made lane-locally at detection time; the
  // early exit must not change them.
  if (with_ref.evictions != no_ref.evictions) {
    err += format("%s: batch counters differ with/without reference\n", tag.c_str());
  }
  return err;
}

/// GuardBit lanes per guard register on a machine with guards. The
/// bit-weighted plan draws a guard fault about once per 8,000 injections,
/// so the corpus adds its own at seeded cycles in [0, golden cycles].
constexpr std::size_t kGuardLanesPerGuard = 4;

std::string check_seed_machine(std::uint64_t seed, const std::string& machine_name,
                               bool* guarded = nullptr) {
  const resil_util::GeneratedCell cell = resil_util::make_generated_cell(seed, machine_name);
  const resil::FaultPlan plan(cell.machine, cell.machine.model == mach::Model::Tta,
                              /*imem_bits=*/0, cell.golden_cycles);
  std::vector<sim::FaultSet> lane_faults(kLanesPerCell);
  for (std::size_t k = 0; k < kLanesPerCell; ++k) {
    lane_faults[k].faults.push_back(plan.sample(resil::mix_seed(seed, k)).state);
  }
  for (int g = 0; g < cell.machine.guard_regs; ++g) {
    for (std::size_t k = 0; k < kGuardLanesPerGuard; ++k) {
      sim::StateFault f;
      f.kind = sim::FaultKind::GuardBit;
      f.unit = static_cast<std::int16_t>(g);
      const std::size_t draw = 1000 + kGuardLanesPerGuard * static_cast<std::size_t>(g) + k;
      f.cycle = resil::mix_seed(seed, draw) % (cell.golden_cycles + 1);
      lane_faults.push_back(sim::FaultSet{{f}});
    }
  }
  if (guarded != nullptr && cell.tta_pre != nullptr) {
    for (const sim::TtaPMove& mv : cell.tta_pre->moves) *guarded |= mv.guard >= 0;
  }
  const std::string tag = format("seed %llu %s", static_cast<unsigned long long>(seed),
                                 machine_name.c_str());

  sim::SimOptions opts;
  opts.harden = true;
  switch (cell.machine.model) {
    case mach::Model::Scalar:
      return check_cell_impl(
          cell, cell.scalar_golden, lane_faults,
          [&](const sim::FaultSet& fs, ir::Memory& mem) {
            sim::SimOptions o = opts;
            o.faults = &fs;
            scalar::ScalarSim sim(*cell.scalar_prog, cell.machine, mem, o);
            sim.use_predecoded(cell.scalar_pre);
            return sim.run(cell.budget);
          },
          [&](std::span<const sim::FaultSet> lf, const scalar::ExecResult* ref,
              const ir::Memory* ref_mem) {
            return sim::run_scalar_batch(*cell.scalar_prog, cell.machine, cell.scalar_pre,
                                         cell.initial_mem, lf, cell.budget, ref, ref_mem);
          },
          tag);
    case mach::Model::Vliw:
      return check_cell_impl(
          cell, cell.vliw_golden, lane_faults,
          [&](const sim::FaultSet& fs, ir::Memory& mem) {
            sim::SimOptions o = opts;
            o.faults = &fs;
            vliw::VliwSim sim(*cell.vliw_prog, cell.machine, mem, o);
            sim.use_predecoded(cell.vliw_pre);
            return sim.run(cell.budget);
          },
          [&](std::span<const sim::FaultSet> lf, const vliw::ExecResult* ref,
              const ir::Memory* ref_mem) {
            return sim::run_vliw_batch(*cell.vliw_prog, cell.machine, cell.vliw_pre,
                                       cell.initial_mem, lf, cell.budget, ref, ref_mem);
          },
          tag);
    case mach::Model::Tta:
      return check_cell_impl(
          cell, cell.tta_golden, lane_faults,
          [&](const sim::FaultSet& fs, ir::Memory& mem) {
            sim::SimOptions o = opts;
            o.faults = &fs;
            tta::TtaSim sim(*cell.tta_prog, cell.machine, mem, o);
            sim.use_predecoded(cell.tta_pre);
            return sim.run(cell.budget);
          },
          [&](std::span<const sim::FaultSet> lf, const tta::ExecResult* ref,
              const ir::Memory* ref_mem) {
            return sim::run_tta_batch(*cell.tta_prog, cell.machine, cell.tta_pre,
                                      cell.initial_mem, lf, cell.budget, ref, ref_mem);
          },
          tag);
  }
  return "unhandled machine model";
}

TEST(LockstepCorpus, EveryLaneMatchesScalarHardenedPath) {
  // g-tta-2 adds guard registers: its selects become guarded moves, and
  // every cell carries GuardBit lanes on top of the sampled plan.
  const std::vector<std::string> machines = {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2"};
  std::vector<std::string> failures(kCorpusSeeds);
  std::vector<char> guarded(kCorpusSeeds, 0);
  support::ThreadPool pool(8);
  support::parallel_for(&pool, kCorpusSeeds, [&](std::size_t idx) {
    const std::uint64_t seed = 0x5eedc0deull + idx;
    bool any_guarded = false;
    for (const std::string& m : machines) {
      failures[idx] += check_seed_machine(seed, m, &any_guarded);
    }
    guarded[idx] = any_guarded ? 1 : 0;
  });
  for (int idx = 0; idx < kCorpusSeeds; ++idx) {
    EXPECT_EQ(failures[static_cast<std::size_t>(idx)], "") << "corpus seed index " << idx;
  }
  EXPECT_NE(std::count(guarded.begin(), guarded.end(), 1), 0)
      << "no g-tta-2 program carries a guarded move: the guard hooks go untested";
}

// ---------------------------------------------------------------------------
// Hand-assembled TTA programs on m-tta-1 (fu2 = cu, zero-filled 64 KiB
// image, same harness as resil_util::run_tta). TTA timing is fully
// hand-computable: moves execute at their instruction's cycle, RF writes
// latch one cycle later, and a Ret at cycle c halts with cycles == c + 1.

constexpr std::uint64_t kHandBudget = 100000;

/// block 0: cycle 0 moves rf0[3] into the cu operand and triggers Bnz to
/// block 1 (pc 5). rf0[3] is 0 in the zero image, so the leader falls
/// through to ret(7) at pc 3; a lane whose rf0[3] is nonzero takes the
/// branch (2 delay slots; lands at pc 5) and returns 13.
tta::TtaProgram bnz_program() {
  Asm a;
  a.prog.block_entry = {0, 5};
  a.mv(0, 0, MoveSrc::rf_read(0, 3), MoveDst::fu_operand(2));
  Move bnz;
  bnz.bus = 1;
  bnz.src = MoveSrc::immediate(0);
  bnz.dst = MoveDst::fu_trigger(2, ir::Opcode::Bnz);
  bnz.is_control = true;
  bnz.target = 1;
  a.at(0).moves.push_back(bnz);
  a.ret(3, 0, 1, MoveSrc::immediate(7));   // fallthrough path
  a.ret(5, 0, 1, MoveSrc::immediate(13));  // taken path
  return a.prog;
}

sim::StateFault rf_flip(std::uint64_t cycle, int reg, std::uint8_t bit) {
  sim::StateFault f;
  f.cycle = cycle;
  f.kind = sim::FaultKind::RfBit;
  f.unit = 0;
  f.index = static_cast<std::int16_t>(reg);
  f.bit = bit;
  return f;
}

struct TtaBatchHarness {
  tta::TtaProgram prog;
  mach::Machine machine = mach::machine_by_name("m-tta-1");
  std::shared_ptr<const sim::PredecodedTta> pre;

  explicit TtaBatchHarness(tta::TtaProgram p) : prog(std::move(p)) {
    pre = std::make_shared<const sim::PredecodedTta>(sim::predecode(prog, machine));
  }
  sim::TtaBatchResult run(std::span<const sim::FaultSet> lane_faults) const {
    const ir::Memory mem(1 << 16);
    return sim::run_tta_batch(prog, machine, pre, mem, lane_faults, kHandBudget);
  }
  tta::ExecResult scalar(const sim::FaultSet& fs, ir::Memory* final_mem = nullptr) const {
    return resil_util::run_tta(prog, machine, &fs, /*fast_path=*/true, final_mem);
  }
};

TEST(LockstepTiming, BnzFlipEvictsAtTriggerCycle) {
  const TtaBatchHarness h(bnz_program());
  // Fault at the top of cycle 0 flips rf0[3] to 1 before the operand move
  // samples it; the Bnz trigger fires the same cycle, sees the lane's
  // decision (taken) differ from the leader's (not taken), and must evict
  // the lane at exactly cycle 0.
  std::vector<sim::FaultSet> faults(1);
  faults[0].faults.push_back(rf_flip(0, 3, 0));
  const sim::TtaBatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 7u);
  EXPECT_EQ(br.leader.cycles, 4u);  // ret at pc 3 -> cycles = 3 + 1
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_TRUE(lo.evicted);
  EXPECT_EQ(lo.diverge_cycle, 0u);
  EXPECT_EQ(br.evictions, 1u);
  // The rerun takes the branch: 2 delay slots after cycle 0, ret(13) at
  // pc 5 on cycle 3.
  EXPECT_EQ(lo.result.ret, 13u);
  EXPECT_EQ(lo.result.cycles, 4u);
  ir::Memory ref_mem(0);
  const tta::ExecResult ref = h.scalar(faults[0], &ref_mem);
  EXPECT_EQ(check_lane(br, 0, ref, ref_mem, "bnz-flip"), "");
}

TEST(LockstepTiming, LateFlipOfDeadRegisterConverges) {
  // rf_return_program: cycle 0 writes 77 into rf0[3] (latches at cycle 1),
  // ret reads it at cycle 3. A fault at cycle 0 flips the *pre-write* value
  // (0 -> 1); the cycle-1 latch overwrites it with 77, cancelling the diff:
  // the lane must converge and return the leader's result verbatim.
  const TtaBatchHarness h(resil_util::rf_return_program());
  std::vector<sim::FaultSet> faults(1);
  faults[0].faults.push_back(rf_flip(0, 3, 0));
  const sim::TtaBatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 77u);
  ASSERT_EQ(br.lanes.size(), 1u);
  EXPECT_TRUE(br.lanes[0].converged);
  EXPECT_FALSE(br.lanes[0].evicted);
  EXPECT_EQ(br.evictions, 0u);
  EXPECT_TRUE(br.lanes[0].result == br.leader);
  ir::Memory ref_mem(0);
  const tta::ExecResult ref = h.scalar(faults[0], &ref_mem);
  EXPECT_EQ(check_lane(br, 0, ref, ref_mem, "dead-flip"), "");
}

TEST(LockstepTiming, LiveFlipStaysInLockstepWithOverlay) {
  // Same program, fault at cycle 2: 77 is already latched, so the lane's
  // rf0[3] becomes 77 ^ 2 = 79 and is returned at cycle 3. Data-only
  // divergence: the lane must stay in lockstep to the end and get the
  // leader's result with the ret/rf overlays applied — never evicted.
  const TtaBatchHarness h(resil_util::rf_return_program());
  std::vector<sim::FaultSet> faults(1);
  faults[0].faults.push_back(rf_flip(2, 3, 1));
  const sim::TtaBatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 77u);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_FALSE(lo.evicted);
  EXPECT_FALSE(lo.converged);
  EXPECT_EQ(br.evictions, 0u);
  EXPECT_EQ(lo.result.ret, 79u);
  EXPECT_EQ(lo.result.cycles, br.leader.cycles);
  ir::Memory ref_mem(0);
  const tta::ExecResult ref = h.scalar(faults[0], &ref_mem);
  EXPECT_EQ(check_lane(br, 0, ref, ref_mem, "live-flip"), "");
}

TEST(LockstepTiming, AllLanesDivergeWorstCase) {
  // Every lane of a full-width batch flips the Bnz condition: the batch
  // degenerates to "leader + kMaxLanes scalar reruns" and must still be
  // byte-identical, with every lane evicted at cycle 0.
  const TtaBatchHarness h(bnz_program());
  std::vector<sim::FaultSet> faults(static_cast<std::size_t>(sim::kMaxLanes));
  for (std::size_t l = 0; l < faults.size(); ++l) {
    // Different bit per lane (mod 32): every value is nonzero, so every
    // lane takes the branch.
    faults[l].faults.push_back(rf_flip(0, 3, static_cast<std::uint8_t>(l % 32)));
  }
  const sim::TtaBatchResult br = h.run(faults);

  EXPECT_EQ(br.evictions, static_cast<std::uint64_t>(sim::kMaxLanes));
  ASSERT_EQ(br.lanes.size(), static_cast<std::size_t>(sim::kMaxLanes));
  std::string err;
  for (std::size_t l = 0; l < br.lanes.size(); ++l) {
    EXPECT_TRUE(br.lanes[l].evicted) << "lane " << l;
    EXPECT_EQ(br.lanes[l].diverge_cycle, 0u) << "lane " << l;
    EXPECT_EQ(br.lanes[l].result.ret, 13u) << "lane " << l;
    ir::Memory ref_mem(0);
    const tta::ExecResult ref = h.scalar(faults[l], &ref_mem);
    err += check_lane(br, l, ref, ref_mem, format("worst-case lane %zu", l).c_str());
  }
  EXPECT_EQ(err, "");
}

TEST(LockstepTiming, GuardFlipEvictsAtSquashDecision) {
  // g-tta-2 has guard registers. cycle 0 sets guard0 = 1 (latches at
  // cycle 1); cycles 2 and 3 write opposite-guarded values into rf0[4];
  // cycle 5 returns rf0[4]. A fault flipping guard0 at cycle 2 makes the
  // lane squash the guard-true move the leader executes — a proven
  // divergence at cycle 2, before the write latches.
  const mach::Machine machine = mach::machine_by_name("g-tta-2");
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(1), MoveDst::guard_write(0));
  {
    Move t;
    t.bus = 0;
    t.src = MoveSrc::immediate(111);
    t.dst = MoveDst::rf_write(0, 4);
    t.guard = 0;
    a.at(2).moves.push_back(t);
  }
  {
    Move f;
    f.bus = 0;
    f.src = MoveSrc::immediate(222);
    f.dst = MoveDst::rf_write(0, 4);
    f.guard = 0;
    f.guard_negate = true;
    a.at(3).moves.push_back(f);
  }
  a.ret(5, 0, 1, MoveSrc::rf_read(0, 4));

  auto pre = std::make_shared<const sim::PredecodedTta>(sim::predecode(a.prog, machine));
  std::vector<sim::FaultSet> faults(1);
  sim::StateFault gf;
  gf.cycle = 2;
  gf.kind = sim::FaultKind::GuardBit;
  gf.unit = 0;
  faults[0].faults.push_back(gf);
  const ir::Memory mem(1 << 16);
  const sim::TtaBatchResult br =
      sim::run_tta_batch(a.prog, machine, pre, mem, faults, kHandBudget);

  EXPECT_EQ(br.leader.ret, 111u);
  ASSERT_EQ(br.lanes.size(), 1u);
  EXPECT_TRUE(br.lanes[0].evicted);
  EXPECT_EQ(br.lanes[0].diverge_cycle, 2u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(br.lanes[0].result.ret, 222u);
  ir::Memory ref_mem(0);
  const tta::ExecResult ref =
      resil_util::run_tta(a.prog, machine, &faults[0], /*fast_path=*/true, &ref_mem);
  EXPECT_EQ(check_lane(br, 0, ref, ref_mem, "guard-flip"), "");
}

// ---------------------------------------------------------------------------
// Scalar-model timing: the same Bnz-decision eviction rule on the in-order
// pipeline (mblaze-3).

TEST(LockstepTiming, ScalarBnzFlipEvictsAtBranchCycle) {
  using codegen::MInstr;
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;

  // block 0: MovI r1 <- 0 ; MovI r2 <- 5 ; Bnz r1 -> block 1 ; Ret 7
  // block 1: Ret 13
  // Scalar cycle numbering starts at pipeline_stages - 1 = 2 (pipeline
  // fill on the 3-stage mblaze-3), so the instructions issue at cycles
  // 2, 3 and 4. Faults apply at the top of the first instruction whose
  // start cycle reached them, before that instruction executes: a flip of
  // r1 at cycle 2 would be overwritten by MovI r1's own write, so the
  // flip goes in at cycle 4 — after the write, before the Bnz reads r1.
  const mach::Machine machine = mach::machine_by_name("mblaze-3");
  scalar::ScalarProgram p;
  p.block_entry = {0, 4};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0)}));
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 2}, {MOperand::immediate(5)}));
  MInstr bnz = minstr(ir::Opcode::Bnz, kNoDst, {mach::PhysReg{0, 1}});
  bnz.targets = {1};
  p.instrs.push_back(std::move(bnz));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {MOperand::immediate(7)}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {MOperand::immediate(13)}));

  auto pre = std::make_shared<const sim::PredecodedScalar>(sim::predecode(p, machine));
  std::vector<sim::FaultSet> faults(1);
  faults[0].faults.push_back(rf_flip(4, 1, 0));  // r1: 0 -> 1 before the Bnz issues
  const ir::Memory mem(1 << 16);
  const sim::ScalarBatchResult br =
      sim::run_scalar_batch(p, machine, pre, mem, faults, kHandBudget);

  EXPECT_EQ(br.leader.ret, 7u);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_TRUE(lo.evicted);
  // The two MovIs issue at cycles 2 and 3, the Bnz at cycle 4 (single
  // issue, no stalls on immediate moves); the decision flip is detected
  // the cycle the Bnz executes.
  EXPECT_EQ(lo.diverge_cycle, 4u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(lo.result.ret, 13u);
  ir::Memory ref_mem(0);
  const scalar::ExecResult ref =
      resil_util::run_scalar(p, machine, /*fast_path=*/true, &faults[0], &ref_mem);
  EXPECT_EQ(check_lane(br, 0, ref, ref_mem, "scalar-bnz-flip"), "");
}

// The memory-address evictions of the scalar engine. Each evicted lane
// resumes on ScalarSim's fast loop from the state captured at its eviction
// cycle; check_lane holds it to a hardened run of the same fault from
// scratch. Every program below issues its memory operation at cycle 4 (two
// single-cycle instructions after the 2-cycle pipeline fill on mblaze-3),
// and the address register r1 is flipped at the top of that cycle.

struct BatchHarness {
  sim::Engine engine;
  ir::Memory initial{1 << 16};

  template <typename Program>
  BatchHarness(const char* machine, Program p)
      : engine(mach::machine_by_name(machine), std::move(p)) {}

  sim::BatchResult run(std::span<const sim::FaultSet> lane_faults) const {
    // Evicted lanes run on the caller's image: one with a stale page, as a
    // campaign worker's image holds after earlier runs.
    ir::Memory image(initial.size());
    image.store32(0x200, 0xdeadbeef);
    return engine.run_batch(initial, lane_faults, kHandBudget, image);
  }
  /// check_lane of every lane against its own hardened run from cycle 0.
  std::string check(const sim::BatchResult& br, std::span<const sim::FaultSet> lane_faults,
                    const char* what) const {
    std::string err;
    for (std::size_t l = 0; l < br.lanes.size(); ++l) {
      ir::Memory ref_mem = initial;
      const sim::ExecResult ref =
          engine.run(ref_mem, {.harden = true, .faults = &lane_faults[l]}, kHandBudget);
      err += check_lane(br, l, ref, ref_mem, format("%s lane %zu", what, l).c_str());
    }
    return err;
  }
};

std::vector<sim::FaultSet> r1_flips_at_cycle4(std::initializer_list<std::uint8_t> bits) {
  std::vector<sim::FaultSet> faults;
  for (const std::uint8_t bit : bits) faults.push_back(sim::FaultSet{{rf_flip(4, 1, bit)}});
  return faults;
}

TEST(LockstepTiming, ScalarDirtyLoadAddressOutOfBoundsResumes) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // MovI r1 <- 0x100 ; MovI r2 <- 5 ; Ldw r3 <- [r1] ; Ret r3. Flipping
  // bit 16 of r1 moves the lane's load to 0x10100, past the 64 KiB image:
  // the lane traps where the leader loads.
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0x100)}));
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 2}, {MOperand::immediate(5)}));
  p.instrs.push_back(minstr(ir::Opcode::Ldw, {0, 3}, {mach::PhysReg{0, 1}}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 3}}));
  BatchHarness h("mblaze-3", std::move(p));
  h.initial.store32(0x100, 0xabcd);

  const std::vector<sim::FaultSet> faults = r1_flips_at_cycle4({16});
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 0xabcdu);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_TRUE(lo.evicted);
  EXPECT_EQ(lo.diverge_cycle, 4u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_TRUE(lo.result.trapped());
  EXPECT_EQ(lo.result.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(lo.result.trap.detail, 0x10100u);
  EXPECT_EQ(lo.result.trap.cycle, 4u);
  EXPECT_EQ(h.check(br, faults, "scalar-load-oob"), "");
}

TEST(LockstepTiming, ScalarDirtyStoreAddressOutOfBoundsResumes) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // MovI r1 <- 0x100 ; MovI r2 <- 42 ; Stw [r1] <- r2 ; Ret 7. Lane 0 flips
  // bit 16 (the store leaves the image: evicted, traps); lane 1 flips bit 2
  // (the store lands at 0x104 instead: exact in lockstep as a memory delta).
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0x100)}));
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 2}, {MOperand::immediate(42)}));
  p.instrs.push_back(
      minstr(ir::Opcode::Stw, kNoDst, {mach::PhysReg{0, 1}, mach::PhysReg{0, 2}}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {MOperand::immediate(7)}));
  const BatchHarness h("mblaze-3", std::move(p));

  const std::vector<sim::FaultSet> faults = r1_flips_at_cycle4({16, 2});
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 7u);
  EXPECT_EQ(br.leader_mem.load32(0x100), 42u);
  ASSERT_EQ(br.lanes.size(), 2u);
  EXPECT_TRUE(br.lanes[0].evicted);
  EXPECT_EQ(br.lanes[0].diverge_cycle, 4u);
  EXPECT_EQ(br.lanes[0].result.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(br.lanes[0].result.trap.detail, 0x10100u);
  EXPECT_FALSE(br.lanes[1].evicted);
  EXPECT_FALSE(br.lanes[1].delta.empty());
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(h.check(br, faults, "scalar-store-oob"), "");
}

TEST(LockstepTiming, ScalarLeaderOutOfBoundsEvictsDirtyAddressLanes) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // MovI r1 <- 0x7fff ; Add r1 <- r1 + r1 ; Ldw r3 <- [r1] ; Ret r3. The
  // leader's word load at 0xfffe runs past the 64 KiB image and traps. Lane
  // 0 flips bit 1 (0xfffc: in bounds) and must resume past the leader's
  // trap to return the word there; lane 1 flips bit 0 (0xffff) and traps
  // with its own address.
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0x7fff)}));
  p.instrs.push_back(
      minstr(ir::Opcode::Add, {0, 1}, {mach::PhysReg{0, 1}, mach::PhysReg{0, 1}}));
  p.instrs.push_back(minstr(ir::Opcode::Ldw, {0, 3}, {mach::PhysReg{0, 1}}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 3}}));
  BatchHarness h("mblaze-3", std::move(p));
  h.initial.store32(0xfffc, 0x5eed);

  const std::vector<sim::FaultSet> faults = r1_flips_at_cycle4({1, 0});
  const sim::BatchResult br = h.run(faults);

  EXPECT_TRUE(br.leader.trapped());
  EXPECT_EQ(br.leader.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(br.leader.trap.detail, 0xfffeu);
  ASSERT_EQ(br.lanes.size(), 2u);
  for (const sim::LaneOutcome& lo : br.lanes) {
    EXPECT_TRUE(lo.evicted);
    EXPECT_EQ(lo.diverge_cycle, 4u);
  }
  EXPECT_EQ(br.lanes[0].result.status, sim::ExecStatus::Ok);
  EXPECT_EQ(br.lanes[0].result.ret, 0x5eedu);
  EXPECT_EQ(br.lanes[1].result.trap.detail, 0xffffu);
  EXPECT_EQ(br.evictions, 2u);
  EXPECT_EQ(h.check(br, faults, "scalar-leader-oob"), "");
}

TEST(LockstepTiming, ScalarVarShiftFlipEvictsAtShift) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // MovI r1 <- 1 ; MovI r2 <- 3 ; Shl r3 <- r1 << r2 ; Ret r3. mblaze-3 has
  // no barrel shifter, so the Shl at cycle 4 runs the variable-shift loop
  // for 4 + 2 * (r2 & 31) cycles. Lane 0 flips bit 0 of r2 (amount 2): its
  // shift takes 4 cycles less, a timing divergence at cycle 4. Lane 1 flips
  // bit 5 (35 & 31 == 3): same duration and result, so it stays in
  // lockstep with only r2 differing.
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(1)}));
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 2}, {MOperand::immediate(3)}));
  p.instrs.push_back(
      minstr(ir::Opcode::Shl, {0, 3}, {mach::PhysReg{0, 1}, mach::PhysReg{0, 2}}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 3}}));
  const BatchHarness h("mblaze-3", std::move(p));

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(4, 2, 0)}},
                                          sim::FaultSet{{rf_flip(4, 2, 5)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 8u);
  EXPECT_EQ(br.leader.cycles, 16u);  // Shl issues at 4 + 10, Ret at 15
  ASSERT_EQ(br.lanes.size(), 2u);
  EXPECT_TRUE(br.lanes[0].evicted);
  EXPECT_EQ(br.lanes[0].diverge_cycle, 4u);
  EXPECT_EQ(br.lanes[0].result.ret, 4u);
  EXPECT_EQ(br.lanes[0].result.cycles, 14u);
  EXPECT_FALSE(br.lanes[1].evicted);
  EXPECT_FALSE(br.lanes[1].converged);
  EXPECT_EQ(br.lanes[1].result.ret, 8u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(h.check(br, faults, "scalar-var-shift"), "");
}

// ---------------------------------------------------------------------------
// VLIW-model timing on m-vliw-2 (slot 0 = lsu + cu, slot 1 = alu). Bundle pc
// executes at cycle pc on straight-line code. A write issued at cycle c with
// latency L commits at the top of cycle c + L + 1 (MovI: L = 1, loads: 3),
// after that cycle's state faults, so each flip below goes in at the top of
// the cycle its target op issues, past the last write to the flipped
// register. A taken Bnz redirects after its two delay slots.

/// Place `in` at bundle `pc`: memory ops on the lsu and control ops on the
/// cu (slot 0), everything else on the alu (slot 1).
void vliw_op(vliw::VliwProgram& p, std::size_t pc, codegen::MInstr in) {
  p.num_slots = 2;
  if (p.block_entry.empty()) p.block_entry = {0};
  if (p.bundles.size() <= pc) {
    p.bundles.resize(pc + 1, vliw::Bundle{std::vector<std::optional<vliw::SlotOp>>(2)});
  }
  const bool control = ir::is_branch(in.op) || in.op == ir::Opcode::Ret;
  const int fu = ir::is_memory(in.op) ? 0 : control ? 2 : 1;
  p.bundles[pc].slots[fu == 1 ? 1 : 0] = vliw::SlotOp{std::move(in), fu};
}

TEST(LockstepTiming, VliwBnzFlipEvictsAtBundleCycle) {
  using codegen::MInstr;
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // b0: MovI r2 <- 5 ; b3: Bnz r1 -> block 1 ; b6: Ret 7 ; block 1 = b7:
  // Ret 13. r1 is 0 in the leader, so it falls through to Ret 7 at cycle 6.
  // The lane's r1 is flipped to 1 at cycle 1; it diverges only when the Bnz
  // reads it at cycle 3, and its rerun takes the branch: delay slots at
  // cycles 4 and 5, Ret 13 at cycle 6.
  vliw::VliwProgram p;
  vliw_op(p, 0, minstr(ir::Opcode::MovI, {0, 2}, {MOperand::immediate(5)}));
  MInstr bnz = minstr(ir::Opcode::Bnz, kNoDst, {mach::PhysReg{0, 1}});
  bnz.targets = {1};
  vliw_op(p, 3, std::move(bnz));
  vliw_op(p, 6, minstr(ir::Opcode::Ret, kNoDst, {MOperand::immediate(7)}));
  vliw_op(p, 7, minstr(ir::Opcode::Ret, kNoDst, {MOperand::immediate(13)}));
  p.block_entry = {0, 7};
  const BatchHarness h("m-vliw-2", std::move(p));

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(1, 1, 0)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 7u);
  EXPECT_EQ(br.leader.cycles, 7u);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_TRUE(lo.evicted);
  EXPECT_EQ(lo.diverge_cycle, 3u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(lo.result.status, sim::ExecStatus::Ok);
  EXPECT_EQ(lo.result.ret, 13u);
  EXPECT_EQ(lo.result.cycles, 7u);
  EXPECT_EQ(h.check(br, faults, "vliw-bnz-flip"), "");
}

TEST(LockstepTiming, VliwDirtyLoadAddressOutOfBoundsSynthesizesTrap) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // b0: MovI r1 <- 0x100 ; b3: Ldw r3 <- [r1] ; b7: Ret r3. Flipping bit 16
  // of r1 at cycle 3 moves the lane's load to 0x10100, past the 64 KiB
  // image: the lane traps at cycle 3 on the lsu (fu 0) while the leader
  // loads, and lockstep states that trap without a rerun.
  vliw::VliwProgram p;
  vliw_op(p, 0, minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0x100)}));
  vliw_op(p, 3, minstr(ir::Opcode::Ldw, {0, 3}, {mach::PhysReg{0, 1}}));
  vliw_op(p, 7, minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 3}}));
  BatchHarness h("m-vliw-2", std::move(p));
  h.initial.store32(0x100, 0xabcd);

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(3, 1, 16)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.status, sim::ExecStatus::Ok);
  EXPECT_EQ(br.leader.ret, 0xabcdu);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_TRUE(lo.evicted);
  EXPECT_EQ(lo.diverge_cycle, 3u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_TRUE(lo.result.trapped());
  EXPECT_EQ(lo.result.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(lo.result.trap.unit, 0);
  EXPECT_EQ(lo.result.trap.detail, 0x10100u);
  EXPECT_EQ(lo.result.trap.cycle, 3u);
  EXPECT_EQ(h.check(br, faults, "vliw-load-oob"), "");
}

TEST(LockstepTiming, VliwLeaderOutOfBoundsRerunsInBoundsLane) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // b0: MovI r1 <- 0xfffe ; b3: Ldw r3 <- [r1] ; b7: Ret r3. The leader's
  // word load at 0xfffe runs past the 64 KiB image and traps at cycle 3.
  // Lane 0 flips bit 1 (0xfffc: in bounds) and reruns to Ok with the word
  // there; lane 1 flips bit 0 (0xffff) and gets its own synthesized trap.
  vliw::VliwProgram p;
  vliw_op(p, 0, minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0xfffe)}));
  vliw_op(p, 3, minstr(ir::Opcode::Ldw, {0, 3}, {mach::PhysReg{0, 1}}));
  vliw_op(p, 7, minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 3}}));
  BatchHarness h("m-vliw-2", std::move(p));
  h.initial.store32(0xfffc, 0x5eed);

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(3, 1, 1)}},
                                          sim::FaultSet{{rf_flip(3, 1, 0)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_TRUE(br.leader.trapped());
  EXPECT_EQ(br.leader.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(br.leader.trap.detail, 0xfffeu);
  ASSERT_EQ(br.lanes.size(), 2u);
  for (const sim::LaneOutcome& lo : br.lanes) {
    EXPECT_TRUE(lo.evicted);
    EXPECT_EQ(lo.diverge_cycle, 3u);
  }
  EXPECT_EQ(br.evictions, 2u);
  EXPECT_EQ(br.lanes[0].result.status, sim::ExecStatus::Ok);
  EXPECT_EQ(br.lanes[0].result.ret, 0x5eedu);
  EXPECT_EQ(br.lanes[1].result.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(br.lanes[1].result.trap.unit, 0);
  EXPECT_EQ(br.lanes[1].result.trap.detail, 0xffffu);
  EXPECT_EQ(h.check(br, faults, "vliw-leader-oob"), "");
}

TEST(LockstepTiming, VliwDirtyStoreAddressStaysInLockstep) {
  using codegen::MOperand;
  using resil_util::kNoDst;
  using resil_util::minstr;
  // b0: MovI r1 <- 0x100 ; b1: MovI r2 <- 42 ; b3: Stw [r1] <- r2 ; b4:
  // Ret 7. Lane 0 flips bit 2 of r1 at cycle 3: its store lands at 0x104
  // instead, exact in lockstep as a memory delta. Lane 1 flips bit 16: its
  // store leaves the image and it traps at cycle 3.
  vliw::VliwProgram p;
  vliw_op(p, 0, minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(0x100)}));
  vliw_op(p, 1, minstr(ir::Opcode::MovI, {0, 2}, {MOperand::immediate(42)}));
  vliw_op(p, 3, minstr(ir::Opcode::Stw, kNoDst, {mach::PhysReg{0, 1}, mach::PhysReg{0, 2}}));
  vliw_op(p, 4, minstr(ir::Opcode::Ret, kNoDst, {MOperand::immediate(7)}));
  const BatchHarness h("m-vliw-2", std::move(p));

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(3, 1, 2)}},
                                          sim::FaultSet{{rf_flip(3, 1, 16)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 7u);
  EXPECT_EQ(br.leader_mem.load32(0x100), 42u);
  ASSERT_EQ(br.lanes.size(), 2u);
  EXPECT_FALSE(br.lanes[0].evicted);
  EXPECT_FALSE(br.lanes[0].converged);
  EXPECT_EQ(br.lanes[0].diverge_cycle, 0u);
  EXPECT_FALSE(br.lanes[0].delta.empty());
  EXPECT_TRUE(br.lanes[1].evicted);
  EXPECT_EQ(br.lanes[1].diverge_cycle, 3u);
  EXPECT_EQ(br.lanes[1].result.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(br.lanes[1].result.trap.detail, 0x10100u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(h.check(br, faults, "vliw-store-delta"), "");
}

// ---------------------------------------------------------------------------
// TTA datapath state a lane can differ in besides the RF: guard registers
// and their pending latches, FU result registers, the result ring's
// same-FU completion ties, and the trigger's address operand. Same timing
// rules as the m-tta-1 cases above (fu0 = lsu, fu1 = alu, fu2 = cu).

sim::StateFault fu_result_flip(std::uint64_t cycle, int fu, std::uint8_t bit) {
  sim::StateFault f;
  f.cycle = cycle;
  f.kind = sim::FaultKind::FuResultBit;
  f.unit = static_cast<std::int16_t>(fu);
  f.bit = bit;
  return f;
}

TEST(LockstepTiming, TtaGuardWriteFromDirtySourceOverlaysGuardState) {
  // g-tta-2: cycle 1 moves rf0[5] into guard1 (latches at cycle 2), cycle 2
  // rewrites rf0[5] with 0 (latches at cycle 3), cycle 3 returns 7. The lane
  // flips rf0[5] to 1 at cycle 0: its guard1 latches 1 where the leader's
  // latches 0, no guarded move reads it, and its RF rejoins the leader's.
  // The lane halts with the leader and only its guard_state differs.
  Asm a;
  a.at(0);
  a.mv(1, 0, MoveSrc::rf_read(0, 5), MoveDst::guard_write(1));
  a.mv(2, 0, MoveSrc::immediate(0), MoveDst::rf_write(0, 5));
  a.ret(3, 0, 1, MoveSrc::immediate(7));
  const BatchHarness h("g-tta-2", a.prog);

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(0, 5, 0)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 7u);
  EXPECT_EQ(br.leader.cycles, 4u);
  ASSERT_EQ(br.leader.guard_state.size(), 2u);
  EXPECT_EQ(br.leader.guard_state[1], 0u);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_FALSE(lo.evicted);
  EXPECT_FALSE(lo.converged);
  EXPECT_EQ(lo.diverge_cycle, 0u);
  EXPECT_EQ(br.evictions, 0u);
  ASSERT_EQ(lo.result.guard_state.size(), 2u);
  EXPECT_EQ(lo.result.guard_state[1], 1u);
  EXPECT_EQ(lo.result.rf_state, br.leader.rf_state);
  EXPECT_EQ(h.check(br, faults, "tta-guard-overlay"), "");
}

TEST(LockstepTiming, TtaSameFuCompletionTieTakesLaneMax) {
  // m-tta-1: cycle 0 triggers Mul 100 * 3 on the alu (latency 3), cycle 2
  // triggers Add rf0[4] + 1 on it (latency 1); both land at the top of cycle
  // 3, where the larger value wins, and cycle 3 returns the alu result. The
  // leader's rf0[4] is 0: 300 wins over 1. Lane 0 flips rf0[4] to 2: its
  // Add makes 3, so 300 still wins. Lane 1 flips it to 1024: its 1025 wins.
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(100), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(3), MoveDst::fu_trigger(1, ir::Opcode::Mul));
  a.mv(2, 0, MoveSrc::rf_read(0, 4), MoveDst::fu_operand(1));
  a.mv(2, 1, MoveSrc::immediate(1), MoveDst::fu_trigger(1, ir::Opcode::Add));
  a.ret(3, 0, 1, MoveSrc::fu_result(1));
  const BatchHarness h("m-tta-1", a.prog);

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(0, 4, 1)}},
                                          sim::FaultSet{{rf_flip(0, 4, 10)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 300u);
  EXPECT_EQ(br.leader.cycles, 4u);
  ASSERT_EQ(br.lanes.size(), 2u);
  for (const sim::LaneOutcome& lo : br.lanes) {
    EXPECT_FALSE(lo.evicted);
    EXPECT_FALSE(lo.converged);  // rf0[4] still differs
    EXPECT_EQ(lo.diverge_cycle, 0u);
  }
  EXPECT_EQ(br.evictions, 0u);
  EXPECT_EQ(br.lanes[0].result.ret, 300u);
  EXPECT_EQ(br.lanes[1].result.ret, 1025u);
  EXPECT_EQ(h.check(br, faults, "tta-tie"), "");
}

TEST(LockstepTiming, TtaFuResultFlipReadLaterOverlaysRet) {
  // m-tta-1: cycle 0 triggers Add 5 + 6 on the alu (11 lands at cycle 1),
  // cycle 3 returns the alu result register. The lane flips bit 4 of that
  // register at cycle 2: it returns 27 where the leader returns 11, a data
  // divergence that stays in lockstep to the halt.
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(5), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(6), MoveDst::fu_trigger(1, ir::Opcode::Add));
  a.at(2);
  a.ret(3, 0, 1, MoveSrc::fu_result(1));
  const BatchHarness h("m-tta-1", a.prog);

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{fu_result_flip(2, 1, 4)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.ret, 11u);
  ASSERT_EQ(br.lanes.size(), 1u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_FALSE(lo.evicted);
  EXPECT_FALSE(lo.converged);
  EXPECT_EQ(lo.diverge_cycle, 0u);
  EXPECT_EQ(br.evictions, 0u);
  EXPECT_EQ(lo.result.ret, 27u);
  EXPECT_EQ(lo.result.cycles, br.leader.cycles);
  EXPECT_EQ(h.check(br, faults, "tta-fu-result-flip"), "");
}

TEST(LockstepTiming, TtaDirtyLoadAddressOutOfBoundsSynthesizesTrap) {
  // m-tta-1: cycle 0 writes 0x40 to rf0[1], cycle 2 triggers Ldw on the lsu
  // with rf0[1] as the address (latency 3), cycle 5 returns the lsu result.
  // Lane 0 flips bit 16 of rf0[1] at cycle 2: its load at 0x10040 is past
  // the 64 KiB image while the leader's is in bounds, so it traps at the
  // trigger cycle on the lsu with no rerun. Lane 1 flips bit 2: its load at
  // 0x44 stays in bounds and in lockstep.
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(0x40), MoveDst::rf_write(0, 1));
  a.mv(2, 0, MoveSrc::rf_read(0, 1), MoveDst::fu_trigger(0, ir::Opcode::Ldw));
  a.ret(5, 0, 1, MoveSrc::fu_result(0));
  BatchHarness h("m-tta-1", a.prog);
  h.initial.store32(0x40, 0xabcd);
  h.initial.store32(0x44, 0x1234);

  const std::vector<sim::FaultSet> faults{sim::FaultSet{{rf_flip(2, 1, 16)}},
                                          sim::FaultSet{{rf_flip(2, 1, 2)}}};
  const sim::BatchResult br = h.run(faults);

  EXPECT_EQ(br.leader.status, sim::ExecStatus::Ok);
  EXPECT_EQ(br.leader.ret, 0xabcdu);
  ASSERT_EQ(br.lanes.size(), 2u);
  const sim::LaneOutcome& lo = br.lanes[0];
  EXPECT_TRUE(lo.evicted);
  EXPECT_EQ(lo.diverge_cycle, 2u);
  EXPECT_TRUE(lo.result.trapped());
  EXPECT_EQ(lo.result.trap.reason, sim::TrapReason::MemoryOutOfRange);
  EXPECT_EQ(lo.result.trap.unit, 0);
  EXPECT_EQ(lo.result.trap.detail, 0x10040u);
  EXPECT_EQ(lo.result.trap.cycle, 2u);
  EXPECT_FALSE(br.lanes[1].evicted);
  EXPECT_EQ(br.lanes[1].result.ret, 0x1234u);
  EXPECT_EQ(br.evictions, 1u);
  EXPECT_EQ(h.check(br, faults, "tta-load-oob"), "");
}

}  // namespace
}  // namespace ttsc
