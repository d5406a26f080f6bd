#include "report/parallel_runner.hpp"

#include "mach/configs.hpp"

namespace ttsc::report {

ParallelRunner::ParallelRunner(Options options)
    : options_(options), pool_(options.threads) {}

Matrix ParallelRunner::run() {
  return run_grid(mach::all_machines(), workloads::all_workloads());
}

Matrix ParallelRunner::run_grid(const std::vector<mach::Machine>& machines,
                                const std::vector<workloads::Workload>& workloads,
                                const tta::TtaOptions& tta_options) {
  Matrix m;
  for (const workloads::Workload& w : workloads) m.workload_names_.push_back(w.name);

  const std::size_t cols = workloads.size();
  const std::size_t cells = machines.size() * cols;
  std::vector<RunOutcome> outcomes(cells);
  support::parallel_for(pool_, cells, [&](std::size_t i) {
    const mach::Machine& machine = machines[i / cols];
    const workloads::Workload& w = workloads[i % cols];
    auto run_cell = [&] {
      support::StageSeconds build_times;
      const ir::Module& optimized =
          cache_.get(w, options_.timeline, &build_times, options_.registry);
      // Observers are per-run state; never share one across worker threads.
      sim::SimOptions sim = options_.sim;
      sim.observer = nullptr;
      RunOutcome out = compile_and_run_prebuilt(optimized, w, machine, tta_options,
                                                options_.timeline, sim, options_.registry,
                                                options_.superblocks);
      out.stage_seconds.frontend = build_times.frontend;
      out.stage_seconds.opt = build_times.opt;
      outcomes[i] = std::move(out);
    };
    if (!options_.keep_going) {
      run_cell();
      return;
    }
    try {
      run_cell();
    } catch (const std::exception& e) {
      RunOutcome failed;
      failed.machine = machine.name;
      failed.workload = w.name;
      failed.ok = false;
      failed.error = e.what();
      outcomes[i] = std::move(failed);
    }
  });

  // Deterministic reduction: machine-major, workloads in suite order.
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    MachineResults r;
    r.machine = machines[mi];
    r.area = fpga::estimate_area(machines[mi]);
    r.timing = fpga::estimate_timing(machines[mi]);
    for (std::size_t wi = 0; wi < cols; ++wi) {
      r.by_workload[workloads[wi].name] = std::move(outcomes[mi * cols + wi]);
    }
    m.machines_.push_back(std::move(r));
  }
  return m;
}

}  // namespace ttsc::report
