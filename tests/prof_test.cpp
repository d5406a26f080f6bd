// Cycle-attribution profiler: hand-computed attribution on synthetic event
// streams and on known resource-bound programs, the exact-partition
// invariant across the full evaluation grid, thread-count invariance of
// the profile report, and the no-bypass ablation's effect on
// bypass-attributable stalls.
#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "codegen/lower.hpp"
#include "ir/builder.hpp"
#include "mach/configs.hpp"
#include "obs/metrics.hpp"
#include "prof/prof.hpp"
#include "report/driver.hpp"
#include "report/parallel_runner.hpp"
#include "report/profile_report.hpp"
#include "support/strings.hpp"
#include "tta/tta.hpp"
#include "tta/verify.hpp"
#include "workloads/workload.hpp"

namespace ttsc::prof {
namespace {

using ir::IRBuilder;
using ir::Opcode;

constexpr std::size_t idx(Cause c) { return static_cast<std::size_t>(c); }
constexpr std::uint8_t u8(Cause c) { return static_cast<std::uint8_t>(c); }

// ---- hand-computed attribution on a synthetic event stream ------------------------

/// A fabricated 2-wide program: pc0 full (2 slots), pc1 empty with a
/// recorded RF-read-port stall, pc2 half full with a long-imm extension,
/// pc3 empty in an FU-latency shadow. Feeding the profiler one execution
/// of each pc plus two drain cycles must land every cycle in exactly the
/// hand-computed bucket.
StaticProfile synthetic_static() {
  StaticProfile sp;
  sp.model = mach::Model::Tta;
  sp.width = 2;
  sp.filled = {2, 0, 1, 0};
  sp.ext = {0, 0, 1, 0};
  sp.cause = {u8(Cause::Frontend), u8(Cause::RfReadPort), u8(Cause::Frontend),
              u8(Cause::FuLatency)};
  sp.num_blocks = 2;
  sp.fu_names = {"alu"};
  sp.bus_names = {"B0", "B1"};
  sp.rf_names = {"rf"};
  return sp;
}

TEST(Synthetic, HandComputedPartition) {
  CycleProfiler profiler(synthetic_static());
  profiler.on_block_enter(0, 0);
  profiler.on_exec(0, 0, false);  // busy
  profiler.on_exec(1, 1, false);  // empty: RF read port
  profiler.on_block_enter(2, 1);
  profiler.on_exec(2, 2, false);  // busy (half full + imm ext)
  profiler.on_exec(3, 3, true);   // empty FU-latency shadow cycle
  profiler.finish(6);             // cycles 4 and 5: drain, no exec events

  const CellProfile& p = profiler.profile();
  EXPECT_EQ(p.cycles, 6u);
  EXPECT_EQ(p.attributed(), 6u);  // the partition is exact
  EXPECT_EQ(p.cause_cycles[idx(Cause::Busy)], 2u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::RfReadPort)], 1u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::FuLatency)], 1u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::Branch)], 2u);  // the residual drain
  EXPECT_EQ(p.cause_cycles[idx(Cause::Dep)], 0u);

  // Slot accounting: pc2's wide immediate consumed one extension slot and
  // pc3 ran inside a delay-slot shadow.
  EXPECT_EQ(p.slot_capacity, 12u);  // 6 cycles * width 2
  EXPECT_EQ(p.imm_ext_slots, 1u);
  EXPECT_EQ(p.shadow_cycles, 1u);
  // Empty slots: pc1 contributes 2 (RfReadPort), pc3 contributes 2
  // (FuLatency), the drain contributes 2*2 (Branch); pc0 and pc2 are full
  // once extensions count.
  EXPECT_EQ(p.empty_slot_causes[idx(Cause::RfReadPort)], 2u);
  EXPECT_EQ(p.empty_slot_causes[idx(Cause::FuLatency)], 2u);
  EXPECT_EQ(p.empty_slot_causes[idx(Cause::Branch)], 4u);

  // Block attribution: cycles 0-1 belong to block 0, everything after the
  // block-1 entry (including the drain) to block 1.
  EXPECT_EQ(p.block_cycles(0), 2u);
  EXPECT_EQ(p.block_cycles(1), 4u);
  EXPECT_EQ(p.block_cause_cycles[0 * kNumCauses + idx(Cause::RfReadPort)], 1u);
  EXPECT_EQ(p.block_cause_cycles[1 * kNumCauses + idx(Cause::Branch)], 2u);

  // The binding resource is the dominant non-busy cause: Branch (2 cycles).
  EXPECT_EQ(p.binding(), Cause::Branch);
  EXPECT_EQ(std::string(cause_name(p.binding())), "branch");
}

TEST(Synthetic, ScalarOverheadKindsMapToCauses) {
  StaticProfile sp;
  sp.model = mach::Model::Scalar;
  sp.width = 1;
  sp.filled = {1, 1};
  sp.ext = {0, 0};
  sp.cause = {u8(Cause::Frontend), u8(Cause::Frontend)};
  sp.num_blocks = 1;
  CycleProfiler profiler(sp);
  profiler.on_overhead(0, sim::OverheadKind::FrontendFill, 2);
  profiler.on_exec(2, 0, false);
  profiler.on_stall(3, 3);  // hazard stall: Dep
  profiler.on_exec(6, 1, false);
  profiler.on_overhead(7, sim::OverheadKind::ImmWords, 1);
  profiler.on_overhead(8, sim::OverheadKind::VarShift, 4);
  profiler.on_overhead(12, sim::OverheadKind::BranchPenalty, 2);
  profiler.finish(14);

  const CellProfile& p = profiler.profile();
  EXPECT_EQ(p.attributed(), 14u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::Frontend)], 2u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::Busy)], 2u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::Dep)], 3u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::LongImm)], 1u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::FuLatency)], 4u);
  EXPECT_EQ(p.cause_cycles[idx(Cause::Branch)], 2u);
  EXPECT_EQ(p.binding(), Cause::FuLatency);
}

// ---- known resource-bound programs, end to end -----------------------------------

struct Built {
  ir::Module module;
  tta::TtaProgram program;
  tta::TtaScheduleStats stats;
  mach::Machine machine;
};

Built build_tta(const std::function<void(IRBuilder&)>& body, mach::Machine machine,
                tta::TtaOptions options = {}) {
  Built out{.module = {}, .program = {}, .stats = {}, .machine = std::move(machine)};
  ir::Function& f = out.module.add_function("main", 0);
  IRBuilder b(f);
  b.set_insert_point(b.create_block("entry"));
  body(b);
  const auto lowered = codegen::lower(out.module, "main", out.machine);
  out.program = tta::schedule_tta(lowered.func, out.machine, options, &out.stats);
  tta::verify_program(out.program, out.machine);
  return out;
}

CellProfile run_profiled(Built& built) {
  CycleProfiler profiler(build_static_profile(built.program, built.machine));
  ir::Memory mem = report::make_loaded_memory(built.module);
  sim::SimOptions opts;
  opts.observer = &profiler;
  const auto r = tta::TtaSim(built.program, built.machine, mem, opts).run();
  EXPECT_EQ(r.status, sim::ExecStatus::Ok);
  profiler.finish(r.cycles);
  return profiler.profile();
}

/// For a straight-line (single-block, branch-free until the final Ret)
/// program every pc executes exactly once, so the expected attribution is
/// computable by hand from the static schedule: one Busy cycle per
/// occupied pc, one cycle on its recorded cause per empty pc, and every
/// trailing drain cycle (total minus pc count) on Branch.
std::array<std::uint64_t, kNumCauses> straight_line_expectation(const StaticProfile& sp,
                                                                std::uint64_t cycles) {
  std::array<std::uint64_t, kNumCauses> want{};
  for (std::size_t pc = 0; pc < sp.filled.size(); ++pc) {
    if (sp.filled[pc] > 0) {
      ++want[idx(Cause::Busy)];
    } else {
      ++want[sp.cause[pc]];
    }
  }
  want[idx(Cause::Branch)] += cycles - sp.filled.size();
  return want;
}

void expect_matches_hand_fold(const Built& built, const CellProfile& p) {
  const StaticProfile sp = build_static_profile(built.program, built.machine);
  const auto want = straight_line_expectation(sp, p.cycles);
  for (std::size_t c = 0; c < kNumCauses; ++c) {
    EXPECT_EQ(p.cause_cycles[c], want[c])
        << "cause " << cause_name(static_cast<Cause>(c)) << "\n"
        << p.serialize();
  }
  EXPECT_EQ(p.attributed(), p.cycles);
}

/// Known RF-port-conflict program: with software bypassing off every
/// operand is read through m-tta-2's single RF read port, so three
/// independent adds (six register reads) serialize on the port. The
/// scheduler must record read-port rejections, and the profile's empty
/// slots must charge the port.
TEST(KnownPrograms, RfReadPortBound) {
  Built built = build_tta(
      [](IRBuilder& b) {
        const ir::Vreg a = b.movi(3);
        const ir::Vreg c = b.movi(5);
        const ir::Vreg e = b.movi(7);
        const ir::Vreg s1 = b.add(a, 11);
        const ir::Vreg s2 = b.add(c, 13);
        const ir::Vreg s3 = b.add(e, 17);
        b.ret(b.add(b.add(s1, s2), s3));
      },
      mach::make_m_tta_2(), tta::TtaOptions{.software_bypass = false});
  ASSERT_GT(built.stats.fail_rf_read_port, 0u) << "program no longer conflicts on the read port";

  const CellProfile p = run_profiled(built);
  expect_matches_hand_fold(built, p);
  EXPECT_GT(p.empty_slot_causes[idx(Cause::RfReadPort)], 0u) << p.serialize();
  // With bypassing off every register operand goes through the RF.
  ASSERT_EQ(p.rf_reads.size(), 1u);
  EXPECT_GT(p.rf_reads[0], 0u);
}

/// A single-bus TTA: every transport serializes on B0, so the schedule is
/// bus-bound by construction. The machine is m-tta-1's datapath with the
/// interconnect cut down to one fully connected bus.
mach::Machine make_one_bus_tta() {
  mach::Machine m = mach::make_m_tta_1();
  m.name = "test-tta-1bus";
  m.buses.resize(1);
  m.validate();
  return m;
}

TEST(KnownPrograms, BusSaturated) {
  Built built = build_tta(
      [](IRBuilder& b) {
        const ir::Vreg a = b.movi(3);
        const ir::Vreg c = b.movi(5);
        const ir::Vreg s1 = b.add(a, 11);
        const ir::Vreg s2 = b.add(c, 13);
        b.ret(b.add(s1, s2));
      },
      make_one_bus_tta());
  ASSERT_GT(built.stats.fail_no_bus, 0u) << "program no longer saturates the bus";

  const CellProfile p = run_profiled(built);
  expect_matches_hand_fold(built, p);
  // Width 1: slot capacity equals the cycle count, and every useful slot
  // is a move on the single bus.
  EXPECT_EQ(p.slot_capacity, p.cycles);
  ASSERT_EQ(p.bus_moves.size(), 1u);
  EXPECT_EQ(p.bus_moves[0], p.useful_slots);
}

// ---- grid-wide invariants --------------------------------------------------------

/// Every Ok cell of the full 13x8 grid (fast path, profiled): the nine
/// cause buckets partition the cycle count exactly, the binding resource
/// is a documented cause name, and the per-cell metrics carry the prof.*
/// export. This is the tentpole invariant: attribution is a partition of
/// cycles, not a sample.
TEST(Grid, PartitionIsExactOnEveryCell) {
  sim::SimOptions sim;
  sim.collect_profile = true;
  report::ParallelRunner runner({.threads = 4, .sim = sim});
  const report::Matrix matrix = runner.run();
  int cells = 0;
  for (const report::MachineResults& r : matrix.machines()) {
    for (const auto& [workload, out] : r.by_workload) {
      if (!out.ok) continue;
      ASSERT_TRUE(out.profile.has_value()) << r.machine.name << "/" << workload;
      const CellProfile& p = *out.profile;
      EXPECT_EQ(p.attributed(), p.cycles) << r.machine.name << "/" << workload;
      EXPECT_EQ(p.cycles, out.cycles) << r.machine.name << "/" << workload;
      EXPECT_GT(p.cause_cycles[idx(Cause::Busy)], 0u) << r.machine.name << "/" << workload;
      EXPECT_EQ(out.metrics.count("prof.cycles.busy"), 1u);
      EXPECT_EQ(out.metrics.at("prof.cycles.busy"), p.cause_cycles[idx(Cause::Busy)]);
      ++cells;
    }
  }
  EXPECT_EQ(cells, 104);  // 13 machines x 8 workloads, no failures

  // The profile report and folded export render without error and carry
  // every machine.
  const std::string report = report::render_profile_report(matrix);
  EXPECT_NE(report.find("\"schema\":\"ttsc-profile-report\""), std::string::npos);
  const std::string folded = report::render_profile_folded(matrix);
  EXPECT_NE(folded.find(";block0;"), std::string::npos);
}

/// The rendered profile report is byte-identical at 1, 2 and 8 worker
/// threads: profiles are deterministic simulation functions, never touched
/// by scheduling of the experiment engine.
TEST(Grid, ProfileReportIsThreadCountInvariant) {
  const auto render_at = [](int threads) {
    sim::SimOptions sim;
    sim.collect_profile = true;
    report::ParallelRunner runner({.threads = threads, .sim = sim});
    const report::Matrix matrix = runner.run();
    return report::render_profile_report(matrix) + report::render_profile_folded(matrix);
  };
  const std::string one = render_at(1);
  const std::string two = render_at(2);
  const std::string eight = render_at(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// ---- the no-bypass ablation ------------------------------------------------------

/// Software bypassing reads operands straight from FU result registers,
/// cutting the dependence/latency wait between producer and consumer and
/// the RF port pressure of going through the file. Turning it off must
/// strictly increase the bypass-attributable stall slots — empty transport
/// slots charged to dependences, FU-latency shadows and RF ports — on
/// every m-tta-2 cell. (The slot-level measure is the right one: the
/// no-bypass schedule is longer but fills some formerly-empty cycles with
/// RF-traffic moves, so the cycle-level dep bucket can even shrink while
/// issue capacity is being wasted; lost slots are monotone.)
TEST(Ablation, NoBypassStrictlyIncreasesBypassAttributableStalls) {
  const mach::Machine machine = mach::machine_by_name("m-tta-2");
  const auto bypass_stalls = [](const CellProfile& p) {
    return p.empty_slot_causes[idx(Cause::Dep)] + p.empty_slot_causes[idx(Cause::FuLatency)] +
           p.empty_slot_causes[idx(Cause::RfReadPort)] +
           p.empty_slot_causes[idx(Cause::RfWritePort)];
  };
  sim::SimOptions sim;
  sim.collect_profile = true;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    const ir::Module optimized = report::build_optimized(w);
    const report::RunOutcome with =
        report::compile_and_run_prebuilt(optimized, w, machine, tta::TtaOptions{}, sim);
    const report::RunOutcome without = report::compile_and_run_prebuilt(
        optimized, w, machine, tta::TtaOptions{.software_bypass = false}, sim);
    ASSERT_TRUE(with.profile.has_value() && without.profile.has_value()) << w.name;
    EXPECT_GT(bypass_stalls(*without.profile), bypass_stalls(*with.profile))
        << w.name << "\nwith bypass:\n"
        << with.profile->serialize() << "without:\n"
        << without.profile->serialize();
  }
}

}  // namespace
}  // namespace ttsc::prof
