// Determinism golden tests for the parallel experiment engine: the
// rendered Table II/III/IV (and Fig. 5/6) text must be byte-identical to
// the serial driver's output and stable across 1, 2 and 8 worker threads,
// and the per-workload module cache must compile each workload exactly
// once per sweep.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "mach/configs.hpp"
#include "report/parallel_runner.hpp"

namespace ttsc::report {
namespace {

struct Rendered {
  std::string table2;
  std::string table3;
  std::string table4;
  std::string fig5;
  std::string fig6;
};

Rendered render_all(const Matrix& m) {
  return {render_table2_program_size(m), render_table3_synthesis(m), render_table4_cycles(m),
          render_fig5_runtime(m), render_fig6_efficiency(m)};
}

const Rendered& serial_reference() {
  static const Rendered r = render_all(Matrix::run());
  return r;
}

class ParallelRunnerDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRunnerDeterminism, TablesByteIdenticalToSerialDriver) {
  ParallelRunner runner({.threads = GetParam()});
  const Matrix m = runner.run();
  const Rendered parallel = render_all(m);
  const Rendered& serial = serial_reference();
  EXPECT_EQ(parallel.table2, serial.table2);
  EXPECT_EQ(parallel.table3, serial.table3);
  EXPECT_EQ(parallel.table4, serial.table4);
  EXPECT_EQ(parallel.fig5, serial.fig5);
  EXPECT_EQ(parallel.fig6, serial.fig6);

  // The module cache eliminated every duplicate build: 8 workloads -> 8
  // builds for 104 cells, whatever the thread count.
  EXPECT_EQ(m.modules_built(), 8u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelRunnerDeterminism, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(ParallelRunner, MatrixShapeMatchesSerial) {
  ParallelRunner runner({.threads = 4});
  const Matrix m = runner.run();
  EXPECT_EQ(m.machines().size(), 13u);
  EXPECT_EQ(m.workload_names().size(), 8u);
  for (const MachineResults& r : m.machines()) {
    EXPECT_EQ(r.by_workload.size(), 8u) << r.machine.name;
    for (const auto& [w, outcome] : r.by_workload) {
      EXPECT_EQ(outcome.machine, r.machine.name);
      EXPECT_EQ(outcome.workload, w);
      EXPECT_GT(outcome.cycles, 0u) << r.machine.name << "/" << w;
    }
  }
}

TEST(ParallelRunner, OutcomesCarryStageTimings) {
  // The serial driver runs the same grid loop, so its cells carry the same
  // stage times as the engine's.
  ParallelRunner runner({.threads = 2});
  for (const Matrix& m : {runner.run(), Matrix::run()}) {
    for (const MachineResults& r : m.machines()) {
      for (const auto& [w, outcome] : r.by_workload) {
        // Every cell went through regalloc/schedule/simulate, and inherited
        // its workload's shared frontend/opt build cost.
        EXPECT_GT(outcome.stage_seconds.regalloc, 0.0) << r.machine.name << "/" << w;
        EXPECT_GT(outcome.stage_seconds.schedule, 0.0) << r.machine.name << "/" << w;
        EXPECT_GT(outcome.stage_seconds.simulate, 0.0) << r.machine.name << "/" << w;
        EXPECT_GT(outcome.stage_seconds.opt, 0.0) << r.machine.name << "/" << w;
        EXPECT_GT(outcome.stage_seconds.total(), 0.0);
      }
    }
    EXPECT_EQ(m.modules_built(), 8u);
  }
}

TEST(ModuleCache, BuildsEachWorkloadOnce) {
  ModuleCache cache;
  const workloads::Workload w = workloads::all_workloads().front();
  const ir::Module& first = cache.get(w);
  const ir::Module& second = cache.get(w);
  EXPECT_EQ(&first, &second);  // same cached instance
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(ModuleCache, ConcurrentGetsBuildOnce) {
  ModuleCache cache;
  support::ThreadPool pool(8);
  const std::vector<workloads::Workload>& suite = workloads::all_workloads();
  // 8 threads x all workloads, all racing on first use.
  support::parallel_for(&pool, suite.size() * 8, [&](std::size_t i) {
    cache.get(suite[i % suite.size()]);
  });
  EXPECT_EQ(cache.builds(), suite.size());
}

TEST(ParallelRunner, GridErrorsPropagateDeterministically) {
  // A workload that fails IR verification makes its cells throw inside the
  // workers; the engine must capture per cell, drain the grid, and rethrow
  // the lowest-numbered cell's ttsc::Error on the caller — not crash, hang
  // or lose the error text.
  workloads::Workload bad;
  bad.name = "bad";
  bad.build = [](ir::Module& m) {
    ir::Function& f = m.add_function("main", 0);
    ir::IRBuilder b(f);
    b.set_insert_point(b.create_block("entry"));
    b.ret(b.ldw(b.ga("missing_global")));  // verifier: unknown global
  };
  const std::vector<mach::Machine> machines = {mach::machine_by_name("mblaze-3"),
                                               mach::machine_by_name("m-tta-2")};
  const std::vector<workloads::Workload> suite = {bad};
  ParallelRunner runner({.threads = 4});
  try {
    runner.run_grid(machines, suite);
    FAIL() << "expected ttsc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing_global"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace ttsc::report
