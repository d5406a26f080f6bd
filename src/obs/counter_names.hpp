// The registry of documented metric names.
//
// Every counter/histogram name recorded into an obs::Registry anywhere in
// the toolchain must appear in this table (tests/counter_names_test.cpp
// fails on any undocumented or colliding name). The table is the one place
// to look up what a name means, and adding an instrumentation site without
// documenting it here is a test failure — the name set is part of the
// run-report schema surface (--report-json serializes the merged registry).
//
// Name grammar: dot-hierarchical, lowercase, [a-z0-9_.-]. A `<i>` in a
// pattern matches one-or-more decimal digits (per-partition counters);
// per-pass / per-target / per-cause families are expanded from their fixed
// sets at table-build time, so lookups are exact-match against the expanded
// table plus the digit patterns.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ttsc::obs {

struct CounterDoc {
  /// Exact name, or a pattern containing `<i>` (one-or-more digits).
  std::string name;
  /// One-line meaning; "histogram:" prefix marks observe() names.
  std::string doc;
};

/// The documented name table. Grouped by subsystem prefix; keep sorted
/// within each group so collisions are easy to spot in review.
inline const std::vector<CounterDoc>& counter_docs() {
  static const std::vector<CounterDoc> docs = [] {
    std::vector<CounterDoc> d;
    // --- sweep bookkeeping (report/driver.cpp) ---
    d.push_back({"cells.run", "grid cells compiled+simulated"});
    d.push_back({"cell.cycles", "histogram: per-cell simulated cycle counts"});

    // --- optimizer (opt/pipeline.cpp) ---
    d.push_back({"opt.instrs_in", "IR instructions entering the pipeline"});
    d.push_back({"opt.instrs_out", "IR instructions after the pipeline"});
    d.push_back({"opt.iterations", "cleanup fixpoint iterations"});
    for (const char* pass : {"fold", "copyprop", "cse", "dce", "simplify_cfg", "licm"}) {
      for (const char* leaf : {"calls", "changed", "instrs_removed", "instrs_added"}) {
        d.push_back({std::string("opt.") + pass + "." + leaf, "per-pass IR delta"});
      }
    }

    // --- register allocation (report/driver.cpp) ---
    d.push_back({"regalloc.spill_instrs", "spill loads/stores inserted"});
    d.push_back({"regalloc.values_spilled", "distinct values spilled"});
    d.push_back({"regalloc.spills.rf<i>", "values spilled per RF partition"});

    // --- schedulers ---
    d.push_back({"scalar.emit.words", "scalar instruction words emitted"});
    d.push_back({"tta.schedule.instructions", "TTA instructions scheduled"});
    d.push_back({"tta.schedule.moves", "TTA moves scheduled"});
    d.push_back({"tta.schedule.bypassed_operands", "operands read via software bypass"});
    d.push_back({"tta.schedule.eliminated_result_moves", "dead result moves removed"});
    d.push_back({"tta.schedule.shared_operands", "operand moves elided by sharing"});
    d.push_back({"tta.schedule.guarded_selects", "Select ops lowered to guarded moves"});
    d.push_back({"tta.schedule.fail.no_bus", "placements rejected: no free bus"});
    d.push_back({"tta.schedule.fail.long_imm", "placements rejected: no extension bus"});
    d.push_back({"tta.schedule.fail.rf_read_port", "placements rejected: RF read ports"});
    d.push_back({"tta.schedule.fail.rf_write_port", "placements rejected: RF write ports"});
    d.push_back({"tta.schedule.slots_filled", "bus slots carrying a move (static)"});
    d.push_back({"tta.schedule.slot_capacity", "instrs * buses (static)"});
    d.push_back({"tta.schedule.nop_slots", "empty bus slots (static)"});
    d.push_back({"vliw.schedule.bundles", "VLIW bundles emitted"});
    d.push_back({"vliw.schedule.ops", "VLIW operations scheduled"});
    d.push_back({"vliw.schedule.slot_capacity", "bundles * slots (static)"});
    d.push_back({"vliw.schedule.nop_slots", "empty issue slots (static)"});
    d.push_back({"vliw.schedule.fail.rf_read_port", "placements rejected: RF read ports"});
    d.push_back({"vliw.schedule.fail.rf_write_port", "placements rejected: RF write port"});
    d.push_back({"vliw.schedule.fail.no_slot", "placements rejected: no capable slot/FU"});
    d.push_back({"vliw.schedule.fail.wide_imm", "placements rejected: no spare imm slot"});
    d.push_back({"sched.superblock.formed", "superblock traces adopted"});
    d.push_back({"sched.superblock.tail_dup_instrs", "instructions tail-duplicated"});
    d.push_back({"sched.superblock.cross_block_bypass", "bypasses across side exits"});

    // --- simulator utilization (sim/collectors.cpp, prefix "sim.") ---
    d.push_back({"sim.cycles", "simulated cycles (utilization runs)"});
    d.push_back({"sim.moves", "executed TTA transports"});
    d.push_back({"sim.guard_squashes", "guarded moves squashed"});
    d.push_back({"sim.rf_reads", "RF reads executed"});
    d.push_back({"sim.rf_writes", "RF writes committed"});
    d.push_back({"sim.stall_cycles", "scalar hazard stall cycles"});
    d.push_back({"sim.triggers", "operations fired"});

    // --- cycle-attribution profiler (prof/prof.cpp, prefix "prof.") ---
    for (const char* cause : {"busy", "dep", "fu_latency", "rf_read_port", "rf_write_port",
                              "bus", "long_imm", "branch", "frontend"}) {
      d.push_back({std::string("prof.cycles.") + cause, "cycles attributed to this cause"});
    }
    d.push_back({"prof.slots.capacity", "cycles * issue width"});
    d.push_back({"prof.slots.useful", "slots that did useful work"});
    d.push_back({"prof.slots.squashed", "slots occupied by squashed moves"});
    d.push_back({"prof.slots.imm_ext", "slots spent on long-imm extensions"});
    d.push_back({"prof.shadow_cycles", "cycles executed in delay-slot shadows"});
    d.push_back({"prof.static.slots_filled", "scheduler's expected slot fill"});
    d.push_back({"prof.static.slot_capacity", "scheduler's static slot capacity"});

    // --- resilience campaigns (resil/campaign.cpp) ---
    for (const char* target : {"rf", "fu-result", "guard", "imem"}) {
      for (const char* leaf : {"injections", "masked", "sdc", "timeout", "trap", "err", "latent",
                               "corrected", "recovered", "detected"}) {
        d.push_back({std::string("resil.") + target + "." + leaf,
                     "per-target fault-injection tally"});
      }
    }
    d.push_back({"resil.batch.lanes", "lockstep lanes simulated"});
    d.push_back({"resil.batch.divergences", "lanes diverged from golden"});
    d.push_back({"resil.batch.evictions", "lanes evicted to scalar replay"});
    for (const char* path : {"scalar", "batched-converged", "batched-in-diff", "evicted",
                             "imem-analytic", "resumed"}) {
      // One path per injection (resil::InjectionPath): its own engine run
      // from cycle 0, a lockstep lane that reconverged / finished in its
      // diff / was evicted, a protected imem fault resolved from the golden
      // fetch table, or its own engine run resumed from a golden snapshot.
      d.push_back({std::string("resil.path.") + path, "injections served by this path"});
    }
    d.push_back({"resil.resume.cycles_skipped", "golden-prefix cycles resumed runs skipped"});
    d.push_back({"resil.snapshot.bytes", "bytes held by the cells' golden snapshots"});
    d.push_back({"resil.cells.run", "resilience cells campaigned"});
    d.push_back({"resil.cells.err", "resilience cells that failed"});

    // --- fault protection & recovery (resil/campaign.cpp, protected cells) ---
    d.push_back({"protect.rf.corrected", "RF reads scrubbed by SEC-DED"});
    d.push_back({"protect.rf.detected", "RF reads detected uncorrectable"});
    d.push_back({"protect.fu.detected", "FU results failing DMR/residue check"});
    d.push_back({"protect.guard.corrected", "guard flips outvoted by TMR"});
    d.push_back({"protect.imem.corrected", "imem fetches scrubbed by SEC-DED"});
    d.push_back({"protect.imem.detected", "imem fetches detected uncorrectable"});
    d.push_back({"recovery.rollbacks", "checkpoint rollbacks performed"});
    d.push_back({"recovery.retries", "re-execution retries after rollback"});
    d.push_back({"recovery.recovered", "detections recovered to golden state"});
    d.push_back({"recovery.unrecoverable", "detections degraded to a safe stop"});
    d.push_back({"recovery.cycles", "total detection-to-restore latency"});

    // --- first-divergence forensics (resil/campaign.cpp) ---
    d.push_back({"forensics.candidates", "SDC/latent injections eligible for replay"});
    d.push_back({"forensics.analyzed", "injections replayed golden-vs-faulty"});
    d.push_back({"forensics.replays", "forensic simulations run (2 per analysis)"});
    d.push_back({"forensics.diverged", "analyses with a first divergence in window"});
    d.push_back({"forensics.beyond_window", "analyses whose divergence lies past the window"});
    d.push_back({"forensics.skipped_budget", "candidates past the replay budget"});

    // --- flight recorder (obs/flight.cpp) ---
    d.push_back({"flight.events", "events offered to the flight recorder"});
    d.push_back({"flight.retained_events", "events in the retained window"});
    d.push_back({"flight.dropped_events", "events evicted from the ring"});
    d.push_back({"flight.dropped_cycles", "whole cycles evicted from the ring"});
    d.push_back({"flight.window_cycles", "cycle span of the retained window"});
    return d;
  }();
  return docs;
}

/// True when `name` equals `pattern` with each `<i>` standing for
/// one-or-more decimal digits.
inline bool matches_counter_pattern(std::string_view pattern, std::string_view name) {
  std::size_t pi = 0;
  std::size_t ni = 0;
  while (pi < pattern.size()) {
    if (pattern.compare(pi, 3, "<i>") == 0) {
      std::size_t digits = 0;
      while (ni < name.size() && name[ni] >= '0' && name[ni] <= '9') {
        ++ni;
        ++digits;
      }
      if (digits == 0) return false;
      pi += 3;
      continue;
    }
    if (ni >= name.size() || pattern[pi] != name[ni]) return false;
    ++pi;
    ++ni;
  }
  return ni == name.size();
}

/// True when `name` appears in the documented table (exact or via a `<i>`
/// pattern).
inline bool is_documented_counter(std::string_view name) {
  for (const CounterDoc& doc : counter_docs()) {
    if (matches_counter_pattern(doc.name, name)) return true;
  }
  return false;
}

}  // namespace ttsc::obs
