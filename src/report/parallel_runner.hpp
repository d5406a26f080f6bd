// Parallel experiment engine.
//
// ParallelRunner runs the (machines x workloads) grid of Matrix::sweep on
// its own support::ThreadPool, with one ModuleCache that compiles each
// workload's optimized module exactly once (keyed by workload name, shared
// by every machine and every worker thread).
//
// Determinism contract: cell (i, j) of the grid depends only on
// (machine i, workload j) — compilation and simulation are pure — and the
// reduction writes results machine-major in suite order, so every table or
// figure rendered from a ParallelRunner matrix is byte-identical to the
// serial Matrix::run() output regardless of thread count or interleaving.
// Errors are captured per cell and the lowest-numbered cell's exception is
// rethrown after the whole grid has run (again interleaving-independent).
#pragma once

#include <vector>

#include "report/experiments.hpp"
#include "report/module_cache.hpp"
#include "support/thread_pool.hpp"

namespace ttsc::report {

class ParallelRunner {
 public:
  struct Options {
    int threads = 0;  // <= 0: hardware concurrency
    /// Simulator configuration for every cell. A non-null observer is
    /// ignored (observers are not thread-safe across cells); use
    /// sim.collect_utilization to get per-cell reports instead.
    sim::SimOptions sim{};
    /// Optional shared metrics registry. Each cell accumulates into a local
    /// shard and merges once, so the registry is never touched on simulator
    /// hot paths; the merged result is byte-identical to a serial
    /// Matrix::run(..., registry) sweep at any thread count.
    obs::Registry* registry = nullptr;
    /// Capture a failed cell (timeout/trap/divergence) as a RunOutcome with
    /// ok = false instead of rethrowing, exactly like
    /// Matrix::run(..., keep_going = true); the rest of the grid still runs
    /// and renderers show the cell as ERR.
    bool keep_going = false;
    /// When non-null, every cell runs the two-phase profile-guided
    /// superblock compile (see compile_and_run_prebuilt). Both phases are
    /// deterministic per cell, so the engine's byte-identical-at-any-
    /// thread-count contract is unchanged.
    const opt::SuperblockOptions* superblocks = nullptr;
  };

  ParallelRunner() : ParallelRunner(Options{}) {}
  explicit ParallelRunner(Options options);

  /// The paper's full sweep: all machines x all workloads, byte-identical
  /// to Matrix::run().
  Matrix run();

  /// Arbitrary grid. Machines keep their given order in the result.
  Matrix run_grid(const std::vector<mach::Machine>& machines,
                  const std::vector<workloads::Workload>& workloads,
                  const tta::TtaOptions& tta_options = {});

 private:
  Options options_;
  support::ThreadPool pool_;
  ModuleCache cache_;
};

}  // namespace ttsc::report
