// Greedy transport-triggered interconnect exploration (Viitanen et al.
// [25]: "Heuristics for greedy transport triggered architecture
// interconnect exploration") — the procedure behind the paper's bus-merged
// (bm-tta) design points.
//
// Starting from a fully connected TTA, buses are removed one at a time as
// long as the geometric-mean cycle count over a workload suite stays within
// a budget; each step reports cycles, the automatically generated
// instruction width, and the modelled FPGA cost, tracing the
// area/code-size/performance frontier of Section III-D.
#pragma once

#include <vector>

#include "mach/machine.hpp"
#include "report/module_cache.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace ttsc::explore {

struct DesignPoint {
  mach::Machine machine;
  int buses = 0;
  double geomean_cycles = 0.0;
  int instruction_bits = 0;
  std::uint64_t geomean_image_bits = 0;
  int core_lut = 0;
  double fmax_mhz = 0.0;
  double geomean_runtime_us = 0.0;
  bool accepted = false;  // within the cycle budget
};

/// Evaluate one machine over a workload suite (all runs cross-checked
/// against the reference interpreter): a one-machine report::Matrix::sweep
/// on `pool`. `cache` reuses the per-workload optimized modules across
/// evaluations (exploration evaluates the same suite on dozens of
/// candidate machines). The geomeans reduce in suite order, so results do
/// not depend on the pool's size.
DesignPoint evaluate(const mach::Machine& machine,
                     const std::vector<workloads::Workload>& suite, report::ModuleCache& cache,
                     support::ThreadPool& pool);

/// Greedy bus-merging exploration: drop one bus per step (rebuilding full
/// connectivity over the remaining buses) while the geomean cycle count
/// stays within `max_cycle_overhead` (e.g. 0.05 = +5%) of the starting
/// machine. Returns every evaluated point, accepted or not, ending with the
/// last accepted design.
std::vector<DesignPoint> explore_bus_merging(const mach::Machine& start,
                                             const std::vector<workloads::Workload>& suite,
                                             double max_cycle_overhead);

}  // namespace ttsc::explore
