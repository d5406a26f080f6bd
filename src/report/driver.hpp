// Experiment driver: the full toolchain pipeline for one (workload,
// machine) pair — front end, optimizer, register allocation, the
// model-specific scheduler/code emitter, and the matching cycle-accurate
// simulator — with the result cross-checked against the reference
// interpreter (return value and output-global checksums must match
// exactly).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "ir/interp.hpp"
#include "mach/machine.hpp"
#include "obs/metrics.hpp"
#include "opt/superblock.hpp"
#include "prof/prof.hpp"
#include "sim/collectors.hpp"
#include "sim/engine.hpp"
#include "tta/tta.hpp"
#include "workloads/workload.hpp"

namespace ttsc::support {

/// Wall time of one pipeline run broken down by stage (seconds). Carried in
/// report::RunOutcome so every grid cell exposes where its time went.
struct StageSeconds {
  double frontend = 0.0;
  double opt = 0.0;
  double regalloc = 0.0;
  double schedule = 0.0;
  double predecode = 0.0;
  double simulate = 0.0;

  double total() const { return frontend + opt + regalloc + schedule + predecode + simulate; }

  StageSeconds& operator+=(const StageSeconds& o) {
    frontend += o.frontend;
    opt += o.opt;
    regalloc += o.regalloc;
    schedule += o.schedule;
    predecode += o.predecode;
    simulate += o.simulate;
    return *this;
  }
};

}  // namespace ttsc::support

namespace ttsc::report {

/// Memory image with globals loaded, as every simulator expects it.
ir::Memory make_loaded_memory(const ir::Module& module, std::size_t size = 1u << 20);

/// FNV-1a digest over the workload's output globals in `mem` — the
/// observable-output checksum every backend run is compared on (also used
/// by the resilience layer to classify silent data corruption).
std::uint64_t workload_output_checksum(const ir::Module& module,
                                       const workloads::Workload& workload,
                                       const ir::Memory& mem);

struct RunOutcome {
  std::string machine;
  std::string workload;

  /// Structured per-cell failure capture: false when the cell's pipeline or
  /// simulation failed and a keep-going sweep recorded it instead of
  /// aborting. Only machine/workload/error are meaningful then; renderers
  /// show such cells as ERR.
  bool ok = true;
  std::string error;

  std::uint64_t cycles = 0;
  std::uint32_t ret = 0;
  std::uint64_t output_checksum = 0;

  // Static code properties.
  int instruction_bits = 0;
  std::uint64_t instruction_count = 0;  // bundles / TTA instructions / words
  std::uint64_t image_bits = 0;

  // Dynamic/scheduler statistics (model-dependent; zero when n/a).
  std::uint64_t moves = 0;
  std::uint64_t bypassed_operands = 0;
  std::uint64_t eliminated_result_moves = 0;
  std::uint64_t shared_operands = 0;
  int spills = 0;

  // Two-phase superblock compile (profile -> recompile -> rerun): cycles of
  // the phase-1 baseline run, for delta reporting, and whether the phase-2
  // superblock schedule was adopted (it is kept only when no worse than the
  // baseline, so `cycles <= baseline_cycles` always holds). Both stay zero/
  // false when superblocks were not requested.
  std::uint64_t baseline_cycles = 0;
  bool superblocks_applied = false;

  // Wall time per pipeline stage. compile_and_run_prebuilt fills regalloc/
  // schedule/predecode/simulate (under superblocks, both phases' sum);
  // frontend/opt belong to the shared build_optimized call and are filled
  // in by whoever owns that call (the grid sweep reports the one-time build
  // cost of the cell's workload there, the same in each of its cells).
  support::StageSeconds stage_seconds;

  // Execution profile, present when SimOptions::collect_utilization was set.
  std::optional<sim::UtilizationReport> utilization;

  // Cycle-attribution profile (prof/prof.hpp), present when
  // SimOptions::collect_profile was set: every cycle of the run classified
  // into exactly one stall/busy cause, per source block and per unit.
  std::optional<prof::CellProfile> profile;

  // Per-cell metric snapshot (sorted, deterministic): the scheduler/
  // regalloc/optimizer-independent counters this cell contributed to the
  // sweep registry — scheduler freedoms taken ("tta.schedule.*"), slot/NOP
  // density, scheduling-failure reasons, spills per RF partition
  // ("regalloc.spills.rf<i>"), and "sim.*" utilization totals when
  // collected. Exported per cell by --report-json.
  std::map<std::string, std::uint64_t> metrics;
};

/// Reference-interpreter outcome for a workload (golden model).
struct GoldenOutcome {
  std::uint32_t ret = 0;
  std::uint64_t output_checksum = 0;
  std::uint64_t instrs_executed = 0;
};

GoldenOutcome run_golden(const workloads::Workload& workload);

/// Compile and simulate `workload` on `machine`. Throws ttsc::Error if the
/// simulated result diverges from the reference interpreter.
RunOutcome compile_and_run(const workloads::Workload& workload, const mach::Machine& machine,
                           const tta::TtaOptions& tta_options = {});

/// Build + optimize a workload once (shared across machines — reuse the
/// result via compile_and_run_prebuilt or, across a whole sweep, via
/// report::ModuleCache). The returned module contains the fully inlined,
/// optimized entry function. When given, `build_times` receives this call's
/// frontend/opt wall time. `metrics` (optional) receives the optimizer's
/// per-pass IR deltas ("opt.*" counters).
ir::Module build_optimized(const workloads::Workload& workload,
                           support::StageSeconds* build_times = nullptr,
                           obs::Registry* metrics = nullptr);

/// One backend compile (compile_backend): the backend-prepared module, the
/// engine over its scheduled program, and the cell's static facts.
struct Backend {
  /// The optimized module after select handling and scalar legalization:
  /// its memory layout and output globals are what a run loads and checks.
  ir::Module module;
  sim::Engine engine;
  /// Superblock formation (formed == 0 without a profile).
  opt::SuperblockPlan plan;
  /// Static facts in RunOutcome's fields: machine, workload, spills,
  /// instruction_bits/count, image_bits, the TTA scheduler freedoms, and
  /// the regalloc/schedule/predecode stage seconds.
  RunOutcome outcome;
};

/// The backend half of the pipeline for `optimized` on `machine`, shared by
/// every caller that simulates: select handling (guarded TTAs if-convert,
/// everything else expands selects), superblock formation along `profile`
/// when given, scalar operand legalization, lowering with register
/// allocation, then the model's scheduler or emitter and the predecode.
/// One stage scope per stage opens its span and times it into the outcome's
/// stage_seconds. `metrics` (optional) receives the regalloc and scheduler
/// counters ("regalloc.*", "tta.schedule.*", "vliw.schedule.*",
/// "scalar.emit.*").
Backend compile_backend(const ir::Module& optimized, const workloads::Workload& workload,
                        const mach::Machine& machine, const tta::TtaOptions& tta_options = {},
                        obs::Registry* metrics = nullptr,
                        const opt::ProfileData* profile = nullptr,
                        const opt::SuperblockOptions& sb_options = {});

/// As compile_and_run, but reusing a pre-optimized module. The outcome's
/// stage_seconds report the regalloc/schedule/predecode/simulate times.
///
/// `sim_options` selects an optional observer, utilization and profile
/// collection.
///
/// `metrics` (optional) receives the cell's scheduler/regalloc/sim counters
/// with ONE merge at cell end (the obs::Registry shard contract) plus a
/// "cell.cycles" histogram sample; the same counters are always snapshotted
/// into the outcome's `metrics` map. All recorded values are deterministic
/// functions of (workload, machine, options), so a sweep's merged registry
/// is byte-identical for any thread count.
///
/// `superblocks` (optional) enables the two-phase profile-guided superblock
/// compile: phase 1 runs the ordinary schedule with a profile collector
/// attached, phase 2 re-prepares the module, forms superblocks along the
/// measured edge biases (opt/superblock.hpp) and schedules the traces as
/// merged blocks. The phase whose run is cheaper wins the cell (ties go to
/// the superblock schedule), so a cell can never regress; both phases are
/// cross-checked against the reference interpreter. The adopted cell's
/// metrics gain "sched.superblock.{formed,tail_dup_instrs,
/// cross_block_bypass}" counters, its stage_seconds cover both phases, and
/// the outcome records the baseline cycles for delta reporting.
RunOutcome compile_and_run_prebuilt(const ir::Module& optimized,
                                    const workloads::Workload& workload,
                                    const mach::Machine& machine,
                                    const tta::TtaOptions& tta_options = {},
                                    const sim::SimOptions& sim_options = {},
                                    obs::Registry* metrics = nullptr,
                                    const opt::SuperblockOptions* superblocks = nullptr);

/// Compile `workload` for `machine` through the standard pipeline and run
/// it once with `observer` attached, returning the simulator's own
/// verdict. Unlike compile_and_run, a Trapped or TimedOut run is a *result*
/// here, not an error, and nothing is cross-checked against the reference
/// interpreter — the harnesses' --trace, --vcd-out and --flight-dump replay
/// healthy and failing cells alike through this.
sim::ExecResult replay_with_observer(const workloads::Workload& workload,
                                     const mach::Machine& machine, sim::ExecObserver* observer);

}  // namespace ttsc::report
