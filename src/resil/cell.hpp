// One campaign cell: what its injections share, and the standalone run of
// one injection.
//
// prepare_cell compiles a (machine, workload) cell and makes its golden run
// in segments of kSnapshotInterval cycles, keeping a sim::Snapshot at each
// boundary and recording the golden fetch table. A standalone injection run
// then starts from the latest golden snapshot at or before its divergent
// cycle — the first cycle at which it can differ from golden — on an image
// the caller reuses from run to run. Both shortcuts are exact:
//
//  * a state fault applies at the top of its cycle, so the snapshot taken
//    at that cycle is still clean;
//  * a run of a mutated program behaves like golden until it fetches a pc
//    whose predecoded record the mutation changed, so it diverges no
//    earlier than the golden first fetch of any such pc, and a run whose
//    changed pcs golden never fetches completes like golden.
//
// tests/resume_test.cpp holds every resumed run to the hardened run from
// cycle 0 on the CI smoke cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "resil/fault_plan.hpp"
#include "sim/collectors.hpp"
#include "sim/engine.hpp"
#include "sim/protect.hpp"
#include "workloads/workload.hpp"

namespace ttsc::resil {

/// Cycles between two golden snapshots. Smaller skips more of the golden
/// prefix per resumed run and keeps more snapshots per cell: at 1024 a
/// default campaign cell keeps about seventy, about 5 KiB each.
inline constexpr std::uint64_t kSnapshotInterval = 1024;

/// Everything one cell's injections share: the engine over the scheduled
/// program (every state-fault run reuses its predecoded form; instruction
/// faults get an engine over their mutated copy), the fault-free golden
/// run, its snapshots and fetch table, and the memory images around it.
struct PreparedCell {
  const workloads::Workload* workload = nullptr;
  /// The backend-prepared module: memory layout and output globals.
  ir::Module module;
  sim::Engine engine;
  /// Golden run: the reference every injection is diffed against, and the
  /// lockstep reference that lets a batch stop once every lane settled.
  sim::ExecResult golden;
  std::uint64_t golden_checksum = 0;
  /// Pristine loaded image, the start of every run from cycle 0.
  ir::Memory initial_mem;
  ir::Memory golden_mem;
  std::uint64_t imem_bits = 0;
  /// First-fetch cycle per instruction/bundle index in the golden run:
  /// protected imem faults resolve from it, and imem fault runs resume
  /// before their first divergent fetch.
  sim::FetchTable fetches;
  /// The golden run's state every kSnapshotInterval cycles, ascending.
  std::vector<sim::Snapshot> snapshots;

  const mach::Machine& machine() const { return engine.machine(); }
  /// Bytes the snapshots hold, their shared initial image counted once.
  std::uint64_t snapshot_bytes() const;
};

/// The cell as the driver compiles it. With `superblocks`, the two-phase
/// compile of report::compile_and_run_prebuilt: the ordinary schedule's
/// golden run doubles as the profiling run, and the trace schedule formed
/// along it replaces the ordinary one only when it is no slower.
/// `optimized` is `w`'s optimized module, built once per campaign.
PreparedCell prepare_cell(const std::string& machine_name, const workloads::Workload& w,
                          const ir::Module& optimized, bool superblocks);

/// An engine over the cell's program with `spec`'s imem fault applied: one
/// flipped encoding bit, or an adjacent pair for double-bit upsets
/// (FaultSpec::imem_width).
sim::Engine mutated_engine(const PreparedCell& cell, const FaultSpec& spec);

/// Hardened run options carrying `spec`'s state fault in `fs` (imem faults
/// change the program instead).
sim::SimOptions injection_options(const FaultSpec& spec, sim::FaultSet& fs);

/// The first cycle a run of `spec` can differ from golden: a state fault's
/// cycle, or the earliest golden first fetch of a pc whose record differs
/// between the cell's engine and `mutated` (sim::FetchTable::kNever when
/// golden fetches none). `mutated` is the imem fault's engine, null for a
/// state fault.
std::uint64_t divergent_cycle(const PreparedCell& cell, const FaultSpec& spec,
                              const sim::Engine* mutated);

/// The latest golden snapshot at or before `cycle`, or nullptr when the run
/// must start at cycle 0.
const sim::Snapshot* resume_point(const PreparedCell& cell, std::uint64_t cycle);

/// One standalone injection run: its result, left in the image it ran on,
/// and the cycle it started at (0, or the snapshot it resumed from).
struct StandaloneRun {
  sim::ExecResult result;
  std::uint64_t resumed_at = 0;
};

/// The hardened run of `spec` on `image` — any image of the cell's size,
/// reset here — from its resume point: the mutated program for an imem
/// fault, the cell's program for a state fault, with `prot` attached when
/// given.
StandaloneRun run_standalone(const PreparedCell& cell, const FaultSpec& spec,
                             sim::ProtectState* prot, std::uint64_t budget, ir::Memory& image);

}  // namespace ttsc::resil
