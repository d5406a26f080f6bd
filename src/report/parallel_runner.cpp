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
  return Matrix::sweep(cache_, &pool_, machines, workloads, tta_options, options_.sim,
                       options_.registry, options_.keep_going, options_.superblocks);
}

}  // namespace ttsc::report
