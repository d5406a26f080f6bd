// Experiment matrix and paper-artifact renderers.
//
// Each render_* function regenerates one table or figure from the paper's
// evaluation section (Section V) in the same layout: absolute numbers for
// the baseline rows (MicroBlaze for the 1-issue group, m-vliw-2/3 for the
// multi-issue groups) and relative factors for everything else.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fpga/model.hpp"
#include "report/driver.hpp"

namespace ttsc::support {
class ThreadPool;
}

namespace ttsc::report {

class ModuleCache;

struct MachineResults {
  mach::Machine machine;
  fpga::AreaReport area;
  fpga::TimingReport timing;
  std::map<std::string, RunOutcome> by_workload;  // workload name -> outcome
};

/// Full evaluation matrix: all 13 machines x all 8 workloads, each run
/// cross-checked against the reference interpreter.
class Matrix {
 public:
  /// Runs the full matrix serially: sweep() without a pool over all 13
  /// machines x 8 workloads. ParallelRunner produces the identical matrix
  /// on a thread pool — this serial path is the determinism reference.
  static Matrix run(const sim::SimOptions& sim_options = {}, obs::Registry* metrics = nullptr,
                    bool keep_going = false,
                    const opt::SuperblockOptions* superblocks = nullptr);

  /// The one grid loop: compile and simulate every (machine, workload)
  /// cell, each cross-checked against the reference interpreter, on
  /// `pool`'s workers (inline, in cell order, when `pool` is null). Each
  /// workload's module comes from `cache`, built once and shared across
  /// machines, and every cell reports that build's frontend/opt time. The
  /// outcomes are reduced machine-major, workloads in the given order, so
  /// the matrix is byte-identical for any pool or none.
  ///
  /// `sim_options` applies to every cell (e.g. utilization or profile
  /// collection); a non-null observer is ignored, because observers are
  /// per-run state. `metrics` (optional) receives every cell's
  /// compiler/scheduler/sim counters; the merged registry is byte-identical
  /// at any thread count (all merge operations commute and each build/cell
  /// contributes exactly once).
  ///
  /// `keep_going = false` rethrows the first failing cell's exception (the
  /// lowest-numbered one under a pool, after the whole grid has run). With
  /// `keep_going = true` a cell whose pipeline or simulation fails
  /// (timeout, trap, divergence) is captured as a RunOutcome with ok =
  /// false and the error message, the sweep continues, and renderers show
  /// the cell as ERR.
  ///
  /// `superblocks` (optional) runs every cell through the two-phase
  /// profile-guided superblock compile (see compile_and_run_prebuilt); each
  /// outcome then carries baseline_cycles for delta reporting.
  static Matrix sweep(ModuleCache& cache, support::ThreadPool* pool,
                      const std::vector<mach::Machine>& machines,
                      const std::vector<workloads::Workload>& workloads,
                      const tta::TtaOptions& tta_options = {},
                      const sim::SimOptions& sim_options = {}, obs::Registry* metrics = nullptr,
                      bool keep_going = false,
                      const opt::SuperblockOptions* superblocks = nullptr);

  const MachineResults& machine(const std::string& name) const;

  /// Failed cells (ok == false), machine-major in suite order. Empty for a
  /// fully successful sweep; harnesses render these on stderr and exit
  /// non-zero.
  std::vector<const RunOutcome*> failures() const;
  const std::vector<MachineResults>& machines() const { return machines_; }
  const std::vector<std::string>& workload_names() const { return workload_names_; }

  /// Cycles for (machine, workload).
  std::uint64_t cycles(const std::string& machine, const std::string& workload) const;
  /// Runtime in microseconds at the machine's modelled fmax.
  double runtime_us(const std::string& machine, const std::string& workload) const;

  /// Modules the sweep's cache built: one per workload, for any thread
  /// count (the `--stats` "modules_built").
  std::size_t modules_built() const { return modules_built_; }

 private:
  std::vector<MachineResults> machines_;
  std::vector<std::string> workload_names_;
  std::size_t modules_built_ = 0;
};

std::string render_table2_program_size(const Matrix& m);
std::string render_table3_synthesis(const Matrix& m);
std::string render_table4_cycles(const Matrix& m);
std::string render_fig5_runtime(const Matrix& m);
std::string render_fig6_efficiency(const Matrix& m);

/// Ablation: per-freedom cycle contribution on the TTA machines (A1).
std::string render_ablation_tta_freedoms();

/// Ablation: RF partitioning — ports vs serialization vs area (A2).
std::string render_ablation_rf_partitioning(const Matrix& m);

}  // namespace ttsc::report
