#include "explore/explore.hpp"

#include "report/experiments.hpp"
#include "support/stats.hpp"
#include "tta/tta.hpp"

namespace ttsc::explore {

DesignPoint evaluate(const mach::Machine& machine,
                     const std::vector<workloads::Workload>& suite, report::ModuleCache& cache,
                     support::ThreadPool& pool) {
  TTSC_ASSERT(machine.model == mach::Model::Tta, "exploration targets TTA machines");
  const report::Matrix matrix = report::Matrix::sweep(cache, &pool, {machine}, suite);
  const report::MachineResults& results = matrix.machines().front();
  DesignPoint point;
  point.machine = machine;
  point.buses = static_cast<int>(machine.buses.size());
  point.instruction_bits = tta::instruction_bits(machine);
  point.core_lut = results.area.core_lut;
  point.fmax_mhz = results.timing.fmax_mhz;

  std::vector<double> cycles;
  std::vector<double> runtimes;
  std::vector<double> images;
  for (const workloads::Workload& w : suite) {
    const report::RunOutcome& r = results.by_workload.at(w.name);
    cycles.push_back(static_cast<double>(r.cycles));
    runtimes.push_back(static_cast<double>(r.cycles) / point.fmax_mhz);
    images.push_back(static_cast<double>(r.image_bits));
  }
  point.geomean_cycles = geomean(cycles);
  point.geomean_runtime_us = geomean(runtimes);
  point.geomean_image_bits = static_cast<std::uint64_t>(geomean(images));
  return point;
}

std::vector<DesignPoint> explore_bus_merging(const mach::Machine& start,
                                             const std::vector<workloads::Workload>& suite,
                                             double max_cycle_overhead) {
  // One module build per workload and one thread pool for the whole greedy
  // walk: every candidate machine re-evaluates the same suite.
  report::ModuleCache cache;
  support::ThreadPool pool;
  std::vector<DesignPoint> trace;
  DesignPoint baseline = evaluate(start, suite, cache, pool);
  baseline.accepted = true;
  const double budget = baseline.geomean_cycles * (1.0 + max_cycle_overhead);
  trace.push_back(baseline);

  mach::Machine current = start;
  while (current.buses.size() > 1) {
    // Merge: drop the last bus, keeping full connectivity on the rest (all
    // buses are interchangeable in a fully connected IC, so "which" bus is
    // immaterial; what matters is the transport capacity).
    mach::Machine candidate = current;
    candidate.buses.pop_back();
    candidate.name = start.name + "-merged" + std::to_string(candidate.buses.size());
    try {
      candidate.validate();
      DesignPoint point = evaluate(candidate, suite, cache, pool);
      point.accepted = point.geomean_cycles <= budget;
      trace.push_back(point);
      if (!point.accepted) break;
      current = std::move(candidate);
    } catch (const Error&) {
      break;  // no longer schedulable/valid: stop merging
    }
  }
  return trace;
}

}  // namespace ttsc::explore
