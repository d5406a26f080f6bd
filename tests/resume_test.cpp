// Resumed injection runs against the hardened run from cycle 0.
//
// The campaign starts every standalone injection run from the latest
// golden snapshot at or before its divergent cycle, on one reused memory
// image (resil/cell.hpp). On the CI smoke cells — unprotected, with a 50%
// double-bit diet, and the +parity/+eccdmr/+full profiles next to their
// bases — every sampled injection's resumed run must equal the run from
// cycle 0 on a fresh copy of the loaded image: ExecResult, the final memory
// image and the ProtectState tallies. Imem faults on protected cells run
// their mutated program here whether or not the code lets them escape, so
// the rule is checked on every imem fault the plan samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "mach/configs.hpp"
#include "report/driver.hpp"
#include "resil/campaign.hpp"
#include "resil/cell.hpp"
#include "resil/fault_plan.hpp"
#include "sim/protect.hpp"
#include "workloads/workload.hpp"

namespace ttsc {
namespace {

const workloads::Workload& workload_named(const std::string& name) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    if (w.name == name) return w;
  }
  throw Error("no workload " + name);
}

bool same_bytes(const ir::Memory& a, const ir::Memory& b) {
  if (a.size() != b.size()) return false;
  const auto x = a.view(0, static_cast<std::uint32_t>(a.size()));
  const auto y = b.view(0, static_cast<std::uint32_t>(b.size()));
  return std::equal(x.begin(), x.end(), y.begin());
}

bool same_tallies(const sim::ProtectState& a, const sim::ProtectState& b) {
  return a.rf_corrected == b.rf_corrected && a.rf_detected == b.rf_detected &&
         a.fu_detected == b.fu_detected && a.guard_corrected == b.guard_corrected &&
         a.imem_corrected == b.imem_corrected && a.imem_detected == b.imem_detected;
}

struct SmokeCells {
  std::vector<std::string> machines;
  std::uint64_t seed;
  int injections;
  int double_bit_permille;
};

TEST(ResumedRuns, EqualTheRunFromCycleZeroOnTheSmokeCells) {
  const workloads::Workload& sha = workload_named("sha");
  const ir::Module optimized = report::build_optimized(sha);
  const std::vector<SmokeCells> sets = {
      {{"mblaze-3", "m-vliw-2", "m-tta-2"}, 7715, 64, 0},
      {{"mblaze-3", "m-vliw-2", "m-tta-2"}, 7715, 64, 500},
      {{"mblaze-3", "mblaze-3+parity", "mblaze-3+eccdmr", "mblaze-3+full", "m-tta-1",
        "m-tta-1+parity", "m-tta-1+eccdmr", "m-tta-1+full"},
       99,
       48,
       250},
  };
  // One image for every run of every cell, as a campaign worker reuses it.
  std::optional<ir::Memory> image;
  std::uint64_t resumed_state = 0;
  std::uint64_t resumed_imem = 0;
  for (const SmokeCells& set : sets) {
    for (const std::string& name : set.machines) {
      const resil::PreparedCell cell = resil::prepare_cell(name, sha, optimized, false);
      ASSERT_FALSE(cell.snapshots.empty()) << name;
      if (!image) image.emplace(cell.initial_mem);
      const mach::Protection& cfg = cell.machine().protect;
      const resil::FaultPlan plan(cell.machine(), cell.machine().model == mach::Model::Tta,
                                  cell.imem_bits, cell.golden.cycles, set.double_bit_permille);
      const std::uint64_t cell_seed = resil::mix_seed(set.seed, resil::hash_name(name + "/sha"));
      const std::uint64_t budget = resil::timeout_budget(cell.golden.cycles);
      for (int i = 0; i < set.injections; ++i) {
        const resil::FaultSpec spec =
            plan.sample(resil::mix_seed(cell_seed, static_cast<std::uint64_t>(i)));
        const bool imem = spec.target == resil::TargetKind::Imem;
        std::optional<sim::Engine> mutated;
        if (imem) mutated.emplace(resil::mutated_engine(cell, spec));
        const sim::Engine* engine = mutated ? &*mutated : nullptr;
        const std::string where = name + " injection " + std::to_string(i) + " double-bit " +
                                  std::to_string(set.double_bit_permille);

        sim::ProtectState resumed_prot(cfg);
        const resil::StandaloneRun run =
            resil::run_standalone(cell, spec, cfg.any() ? &resumed_prot : nullptr, budget, *image);
        EXPECT_LE(run.resumed_at, resil::divergent_cycle(cell, spec, engine)) << where;

        sim::ProtectState zero_prot(cfg);
        ir::Memory mem = cell.initial_mem;
        sim::FaultSet fs;
        sim::SimOptions opts = resil::injection_options(spec, fs);
        opts.protect = cfg.any() ? &zero_prot : nullptr;
        const sim::ExecResult want =
            (engine != nullptr ? *engine : cell.engine).run(mem, opts, budget);

        EXPECT_EQ(run.result, want) << where << " resumed at " << run.resumed_at;
        EXPECT_TRUE(same_bytes(*image, mem)) << where << " resumed at " << run.resumed_at;
        EXPECT_TRUE(same_tallies(resumed_prot, zero_prot)) << where;
        if (run.resumed_at > 0) ++(imem ? resumed_imem : resumed_state);
      }
    }
  }
  // Both rules actually ran.
  EXPECT_GT(resumed_state, 50u);
  EXPECT_GT(resumed_imem, 20u) << resumed_imem;
}

// The rules the resume point rests on, at their edges: a state fault resumes
// from the snapshot at its own cycle, and an imem fault golden never fetches
// resumes from the last snapshot.
TEST(ResumedRuns, ResumePointEdges) {
  const workloads::Workload& sha = workload_named("sha");
  const resil::PreparedCell cell =
      resil::prepare_cell("m-tta-2", sha, report::build_optimized(sha), false);
  ASSERT_GE(cell.snapshots.size(), 2u);
  const sim::Snapshot& second = cell.snapshots[1];
  EXPECT_EQ(resil::resume_point(cell, second.cycle), &second);
  EXPECT_EQ(resil::resume_point(cell, second.cycle - 1), &cell.snapshots[0]);
  EXPECT_EQ(resil::resume_point(cell, cell.snapshots[0].cycle - 1), nullptr);
  EXPECT_EQ(resil::resume_point(cell, sim::FetchTable::kNever), &cell.snapshots.back());
  for (std::size_t k = 0; k < cell.snapshots.size(); ++k) {
    EXPECT_EQ(cell.snapshots[k].cycle, (k + 1) * resil::kSnapshotInterval);
  }
  // An engine over the same program differs nowhere.
  const sim::Engine same = cell.engine.visit(
      [&](const auto& program) { return cell.engine.with_program(program); });
  EXPECT_TRUE(cell.engine.differing_pcs(same).empty());
}

}  // namespace
}  // namespace ttsc
