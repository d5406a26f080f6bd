// Golden snapshot of the paper's cycle-count grid (Table 4 source data).
//
// The full 13-machine x 8-workload matrix is deterministic end to end:
// module build, lowering, scheduling and simulation have no
// run-order-dependent state. This test pins the raw cycle counts to a
// checked-in snapshot so that any change to scheduler tie-breaks, latency
// modelling or simulator semantics shows up as an explicit diff — not as a
// silent drift of the reproduced results.
//
// To regenerate after an intentional semantics change:
//   TTSC_UPDATE_GOLDEN=1 ./tests/golden_table4_test
// and commit the updated tests/golden/table4_cycles.txt with an
// explanation of why the grid moved.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mach/configs.hpp"
#include "opt/superblock.hpp"
#include "report/driver.hpp"
#include "report/experiments.hpp"

namespace ttsc {
namespace {

std::string golden_path() { return std::string(TTSC_GOLDEN_DIR) + "/table4_cycles.txt"; }

/// Renders the raw grid: one row per machine, one column per workload,
/// absolute cycle counts (unlike render_table4_cycles, which prints the
/// paper's relative-factor layout and rounds).
std::string render_cycle_grid(const report::Matrix& matrix) {
  std::ostringstream out;
  out << "machine";
  for (const std::string& w : matrix.workload_names()) out << ' ' << w;
  out << '\n';
  for (const report::MachineResults& m : matrix.machines()) {
    out << m.machine.name;
    for (const std::string& w : matrix.workload_names()) {
      out << ' ' << matrix.cycles(m.machine.name, w);
    }
    out << '\n';
  }
  return out.str();
}

/// The reference loops, which sim::Engine never runs.
sim::ExecResult run_reference(const scalar::ScalarProgram& program, const mach::Machine& machine,
                              ir::Memory& mem) {
  return scalar::ScalarSim(program, machine, mem).run_reference();
}
sim::ExecResult run_reference(const vliw::VliwProgram& program, const mach::Machine& machine,
                              ir::Memory& mem) {
  return vliw::VliwSim(program, machine, mem).run_reference();
}
sim::ExecResult run_reference(const tta::TtaProgram& program, const mach::Machine& machine,
                              ir::Memory& mem) {
  return tta::TtaSim(program, machine, mem).run_reference();
}

TEST(GoldenTable4, CycleGridMatchesSnapshot) {
  // Serial driver on the predecoded simulator loops: the determinism
  // reference. ReferenceLoopsMatchSnapshot below pins the interpretive
  // reference loops to the same snapshot.
  const report::Matrix matrix = report::Matrix::run();
  const std::string got = render_cycle_grid(matrix);

  if (std::getenv("TTSC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << got;
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << golden_path()
                         << " (regenerate with TTSC_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "cycle grid drifted from tests/golden/table4_cycles.txt; if the "
         "change is intentional, regenerate with TTSC_UPDATE_GOLDEN=1 and "
         "explain the drift in the commit message";
}

/// The same grid through the three interpretive reference loops, compiled
/// exactly like the sweep above: every cell must end Ok with the golden
/// interpreter's return value and output, and the cycle counts must equal
/// the snapshot. A change to either loop's cycle accounting therefore fails
/// this test or the one above.
TEST(GoldenTable4, ReferenceLoopsMatchSnapshot) {
  const std::vector<workloads::Workload>& suite = workloads::all_workloads();
  std::vector<ir::Module> modules;
  std::vector<report::GoldenOutcome> goldens;
  std::ostringstream grid;
  grid << "machine";
  for (const workloads::Workload& w : suite) {
    modules.push_back(report::build_optimized(w));
    goldens.push_back(report::run_golden(w));
    grid << ' ' << w.name;
  }
  grid << '\n';
  for (const mach::Machine& machine : mach::all_machines()) {
    grid << machine.name;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const workloads::Workload& w = suite[i];
      const report::Backend backend = report::compile_backend(modules[i], w, machine);
      ir::Memory mem = report::make_loaded_memory(backend.module);
      const sim::ExecResult r = backend.engine.visit(
          [&](const auto& program) { return run_reference(program, machine, mem); });
      ASSERT_EQ(r.status, sim::ExecStatus::Ok) << machine.name << '/' << w.name;
      EXPECT_EQ(r.ret, goldens[i].ret) << machine.name << '/' << w.name;
      EXPECT_EQ(report::workload_output_checksum(backend.module, w, mem),
                goldens[i].output_checksum)
          << machine.name << '/' << w.name;
      grid << ' ' << r.cycles;
    }
    grid << '\n';
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << golden_path();
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), grid.str())
      << "the reference loops' cycle grid differs from tests/golden/table4_cycles.txt";
}

/// The two-phase profile-guided superblock sweep, pinned the same way.
/// Beyond drift detection, this grid is the acceptance gate for superblock
/// scheduling: every cell must be no worse than its phase-1 baseline (the
/// per-cell fallback guarantees it — a schedule that loses is discarded),
/// and on the paper's hand-optimized m-tta-2 row at least half the
/// workloads must strictly improve.
TEST(GoldenTable4, SuperblockGridMatchesSnapshotAndNeverRegresses) {
  const std::string path = std::string(TTSC_GOLDEN_DIR) + "/table4_superblock.txt";
  const opt::SuperblockOptions sb_options{.superblocks = true};
  const report::Matrix matrix =
      report::Matrix::run({}, nullptr, /*keep_going=*/false, &sb_options);

  std::size_t mtta2_strict_wins = 0;
  for (const report::MachineResults& m : matrix.machines()) {
    for (const std::string& w : matrix.workload_names()) {
      const report::RunOutcome& out = m.by_workload.at(w);
      ASSERT_NE(out.baseline_cycles, 0u)
          << m.machine.name << '/' << w << ": two-phase cell lost its baseline";
      EXPECT_LE(out.cycles, out.baseline_cycles)
          << m.machine.name << '/' << w
          << ": superblock schedule regressed past the per-cell fallback";
      // A strict win can only come from an adopted superblock schedule.
      EXPECT_TRUE(out.cycles == out.baseline_cycles || out.superblocks_applied)
          << m.machine.name << '/' << w;
      if (m.machine.name == "m-tta-2" && out.cycles < out.baseline_cycles) {
        ++mtta2_strict_wins;
      }
    }
  }
  EXPECT_GE(mtta2_strict_wins, matrix.workload_names().size() / 2)
      << "superblock scheduling must strictly improve at least half the "
         "m-tta-2 workload cells";

  // Golden grid: `baseline->cycles` per cell so a drift diff shows both
  // phases at a glance.
  std::ostringstream grid;
  grid << "machine";
  for (const std::string& w : matrix.workload_names()) grid << ' ' << w;
  grid << '\n';
  for (const report::MachineResults& m : matrix.machines()) {
    grid << m.machine.name;
    for (const std::string& w : matrix.workload_names()) {
      const report::RunOutcome& out = m.by_workload.at(w);
      grid << ' ' << out.baseline_cycles << "->" << out.cycles;
    }
    grid << '\n';
  }
  const std::string got = grid.str();

  if (std::getenv("TTSC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden snapshot regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << path
                         << " (regenerate with TTSC_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "superblock cycle grid drifted from tests/golden/table4_superblock.txt; "
         "if the change is intentional, regenerate with TTSC_UPDATE_GOLDEN=1 "
         "and explain the drift in the commit message";
}

}  // namespace
}  // namespace ttsc
