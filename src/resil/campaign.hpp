// SEU fault-injection campaigns with an AVF-style resilience report.
//
// A campaign runs, for every (machine, workload) cell, thousands of
// independent single-fault simulations against the hardened (fail-closed)
// simulators and classifies each injection by diffing against the cell's
// cached fault-free golden run:
//
//  * Masked  — the run returned with the golden return value and output
//              checksum (a `latent` sub-count records runs whose final
//              RF/memory image still differed — corrupt state that never
//              reached an output);
//  * SDC     — silent data corruption: the run returned but the return
//              value or output checksum differs;
//  * Timeout — the run exceeded 2x the golden cycle count (+ slack);
//  * Trap    — the simulator failed closed (ExecStatus::Trapped);
//  * Err     — injection infrastructure failure after one retry (never the
//              workload's fault — a campaign with errors exits non-zero).
//
// Determinism contract: every injection's fault is a pure function of
// (campaign seed, machine name, workload name, injection index) via
// resil::mix_seed, injections run into an index-addressed result table, and
// cells are reduced in option order — so the report (table text and JSON)
// is byte-identical for any thread count, including fully serial.
#pragma once

#include <array>
#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "resil/fault_plan.hpp"
#include "resil/forensics.hpp"

namespace ttsc::resil {

/// Injection outcomes. The first four are the unprotected classification;
/// protected machines (mach::Protection) add three non-vulnerable classes:
///
///  * Corrected — a protection code absorbed the fault with no architectural
///                effect (SEC-DED single-bit scrub, TMR guard vote, imem
///                codeword scrub) and the run matched golden exactly;
///  * Recovered — the fault was *detected* and checkpoint-rollback replayed
///                from a clean checkpoint to the golden outcome;
///  * Detected  — the fault was detected but not recovered (no rollback
///                configured, the checkpoint was already corrupted, or the
///                retry budget ran out): a structured
///                detected-unrecoverable stop, the safe DUE class.
enum class Outcome : std::uint8_t {
  Masked,
  Corrected,
  Recovered,
  Detected,
  Sdc,
  Timeout,
  Trap,
  Err,
};
constexpr int kNumOutcomes = 8;

constexpr const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Masked: return "masked";
    case Outcome::Corrected: return "corrected";
    case Outcome::Recovered: return "recovered";
    case Outcome::Detected: return "detected";
    case Outcome::Sdc: return "sdc";
    case Outcome::Timeout: return "timeout";
    case Outcome::Trap: return "trap";
    case Outcome::Err: return "err";
  }
  return "?";
}

/// How an injection's outcome was produced, exported as "resil.path.<name>"
/// counters. Every injection of a cell counts under exactly one path:
///
///  * Scalar           — its own engine run from cycle 0 (protected cells,
///                       unprotected imem faults, `--no-batch`, escaped imem
///                       faults);
///  * BatchedConverged — a lockstep lane that reconverged with the leader;
///  * BatchedInDiff    — a lockstep lane that finished as a sparse diff (and
///                       every lane of a group that failed twice);
///  * Evicted          — a lockstep lane evicted to its own run;
///  * ImemAnalytic     — a protected imem fault the code does not let escape,
///                       resolved from the golden run's fetch table with no
///                       engine run;
///  * Resumed          — its own engine run, started past cycle 0 from a
///                       golden snapshot (resil/cell.hpp).
enum class InjectionPath : std::uint8_t {
  Scalar,
  BatchedConverged,
  BatchedInDiff,
  Evicted,
  ImemAnalytic,
  Resumed,
};
constexpr int kNumInjectionPaths = 6;

constexpr const char* injection_path_name(InjectionPath p) {
  switch (p) {
    case InjectionPath::Scalar: return "scalar";
    case InjectionPath::BatchedConverged: return "batched-converged";
    case InjectionPath::BatchedInDiff: return "batched-in-diff";
    case InjectionPath::Evicted: return "evicted";
    case InjectionPath::ImemAnalytic: return "imem-analytic";
    case InjectionPath::Resumed: return "resumed";
  }
  return "?";
}

struct TargetTally {
  std::uint64_t injections = 0;
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t timeout = 0;
  std::uint64_t trap = 0;
  std::uint64_t err = 0;
  /// Masked runs whose final RF/memory image differed from golden.
  std::uint64_t latent = 0;
  /// Protected-machine outcomes (always zero on unprotected machines).
  std::uint64_t corrected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t detected = 0;

  /// Architectural vulnerability: the fraction of injections with any
  /// externally visible *uncontrolled* effect (SDC, hang, fail-closed
  /// trap). Corrected/Recovered runs end with the golden outcome and
  /// Detected is the safe detected-unrecoverable stop, so none of the
  /// protected classes count as vulnerable.
  std::uint64_t vulnerable() const { return sdc + timeout + trap; }
  void accumulate(const TargetTally& other);
};

/// Per-cell injection cycle budget. A fault can at most double the dynamic
/// path before it either halts, traps, or diverges into a hang; anything
/// past 2x golden (+ slack for short programs) is classified as Timeout.
/// A pure per-cell function of the golden cycle count — computed once per
/// cell, shared by every injection and every lane of a lockstep batch.
constexpr std::uint64_t timeout_budget(std::uint64_t golden_cycles) {
  return golden_cycles * 2 + 256;
}

/// First-divergence forensics of one analyzed injection (SDC or latent):
/// the fault's identity plus where golden and faulty replays first differ.
struct ForensicRecord {
  std::uint64_t injection = 0;  // injection index within the cell
  TargetKind target = TargetKind::Rf;
  Outcome outcome = Outcome::Sdc;
  bool latent = false;
  std::uint64_t fault_cycle = 0;
  DivergenceRecord divergence;
};

/// Aggregated protection/recovery activity of one protected cell, reduced
/// from the per-injection slots in index order (thread-count independent).
/// Exported as "protect.*" / "recovery.*" counters and, for protected
/// campaigns, rendered into the report's per-cell "protect" section.
struct ProtectStats {
  std::uint64_t rf_corrected = 0;
  std::uint64_t rf_detected = 0;
  std::uint64_t fu_detected = 0;
  std::uint64_t guard_corrected = 0;
  std::uint64_t imem_corrected = 0;
  std::uint64_t imem_detected = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t unrecoverable = 0;
  /// Total and worst-case detection-to-recovery latency over recovered
  /// runs: rollback penalty plus the re-executed cycles back to the
  /// detection point.
  std::uint64_t recovery_cycles = 0;
  std::uint64_t recovery_cycles_max = 0;

  bool any() const {
    return rf_corrected != 0 || rf_detected != 0 || fu_detected != 0 || guard_corrected != 0 ||
           imem_corrected != 0 || imem_detected != 0 || rollbacks != 0 || retries != 0 ||
           recovered != 0 || unrecoverable != 0;
  }
};

struct CellReport {
  std::string machine;
  std::string workload;
  /// False when the cell itself could not be prepared or its golden run
  /// failed; `error` holds the message, the tallies are empty, and the
  /// campaign renders the cell as ERR (and exits non-zero).
  bool ok = true;
  std::string error;
  std::uint64_t golden_cycles = 0;
  std::uint64_t imem_bits = 0;
  /// Per fault-target tallies, indexed by TargetKind.
  std::array<TargetTally, kNumTargetKinds> targets{};

  /// Lockstep batching statistics (zero on the scalar `--no-batch` path).
  /// Exported as "resil.batch.*" counters; deliberately NOT part of the
  /// report table/JSON, which batching must reproduce byte-for-byte.
  std::uint64_t batch_lanes = 0;
  std::uint64_t batch_divergences = 0;
  std::uint64_t batch_evictions = 0;
  /// Injections per InjectionPath. Exported as "resil.path.*" counters and,
  /// like the batch statistics, not part of the report table/JSON.
  std::array<std::uint64_t, kNumInjectionPaths> paths{};
  /// Golden-prefix cycles the Resumed runs skipped, and the bytes the
  /// cell's golden snapshots held ("resil.resume.cycles_skipped",
  /// "resil.snapshot.bytes"; registry only, like `paths`).
  std::uint64_t resume_cycles_skipped = 0;
  std::uint64_t snapshot_bytes = 0;

  /// First-divergence forensics (CampaignOptions::forensics): one record
  /// per analyzed SDC/latent injection, in injection-index order, bounded
  /// by the replay budget. Candidates past the budget are only counted.
  std::vector<ForensicRecord> forensics;
  std::uint64_t forensics_candidates = 0;
  std::uint64_t forensics_skipped = 0;

  /// True when the cell's machine declares any protection (a "+profile"
  /// variant); gates the protect/recovery report sections and counters.
  bool protected_machine = false;
  ProtectStats protect;

  TargetTally total() const;
};

struct CampaignOptions {
  std::uint64_t seed = 0x7715c5eedull;
  int injections_per_cell = 1000;
  int threads = 0;      // <= 0: hardware concurrency
  bool serial = false;  // plain loop, no thread pool (determinism reference)
  std::vector<std::string> machines = {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2"};
  std::vector<std::string> workloads = {"blowfish", "sha"};
  /// Batched lockstep execution (sim/lockstep.hpp) for the non-imem fault
  /// targets of unprotected cells; instruction-memory faults never batch.
  /// The report is byte-identical either way — `batch = false` is the
  /// `--no-batch` escape hatch and the equivalence-test reference.
  bool batch = true;
  /// Lanes per lockstep batch, 1..sim::kMaxLanes (64). All lanes of a batch
  /// share one fault-free leader run.
  int batch_lanes = 64;
  /// Compile each cell through the two-phase profile-guided superblock
  /// pipeline (opt/superblock.hpp) before injecting: a phase-1 profiling
  /// run feeds trace formation, and the trace schedule is adopted only when
  /// it is no slower than the baseline (the driver's per-cell fallback).
  /// Campaigns then measure the resilience of the code the `--superblocks`
  /// harnesses actually ship.
  bool superblocks = false;
  /// First-divergence forensics: replay each SDC/latent-classified
  /// injection (up to the budget) golden-vs-faulty with paired commit
  /// recorders and report the first divergent cycle and state element.
  bool forensics = false;
  /// Forensic replays per cell; <= 0 selects the automatic budget
  /// max(1, injections_per_cell / 64), which keeps the two hardened
  /// replays per analyzed injection within ~5% of campaign throughput.
  int forensics_budget = 0;
  /// Adjacent double-bit upset fraction in permille (FaultPlan): 0 keeps
  /// the historical all-single-bit plan bit-identical.
  int double_bit_permille = 0;
  /// Override the machine's Protection::retry_budget /
  /// checkpoint_interval for every protected cell; <= 0 keeps each
  /// machine's declared value.
  int retry_budget_override = 0;
  int checkpoint_override = 0;
  /// Cooperative cancellation (SIGINT/SIGTERM in table_resilience): polled
  /// at cell boundaries; when it becomes non-zero the campaign stops after
  /// the current cell and the report is marked truncated.
  const volatile std::sig_atomic_t* cancel = nullptr;
  /// Per-cell wall-clock watchdog; <= 0 disables. An expired cell stops
  /// injecting (remaining injections never run), and either aborts the
  /// campaign (throws) or — with keep_going — degrades to a structured ERR
  /// cell so the rest of the grid still runs.
  double cell_timeout_seconds = 0.0;
  bool keep_going = false;
  /// Optional metrics sink: "resil.<target>.<outcome>" and "resil.path.*"
  /// counters plus "resil.cells.run"/"resil.cells.err", merged once per
  /// cell; with forensics on, also "forensics.*"; for protected cells, also
  /// "protect.*" / "recovery.*".
  obs::Registry* registry = nullptr;

  /// Effective forensic replay budget per cell.
  int effective_forensics_budget() const {
    if (forensics_budget > 0) return forensics_budget;
    const int autob = injections_per_cell / 64;
    return autob > 0 ? autob : 1;
  }
};

struct CampaignReport {
  std::uint64_t seed = 0;
  int injections_per_cell = 0;
  /// Forensics enabled for this campaign: gates the report's per-cell
  /// "forensics" sections (absent otherwise, so forensics-off reports stay
  /// byte-identical to earlier schema revisions).
  bool forensics = false;
  /// Any machine in the campaign declares protection: gates the protected
  /// outcome columns/keys (corrected/recovered/detected) and the per-cell
  /// "protect" sections, so unprotected campaigns render byte-identically
  /// to earlier schema revisions.
  bool protection = false;
  /// The campaign was cancelled (CampaignOptions::cancel) before every cell
  /// ran: the report holds the completed prefix and renders a
  /// "truncated": true marker (the key is absent otherwise).
  bool truncated = false;
  std::vector<CellReport> cells;  // machine-major, in option order

  bool all_ok() const;
  /// Total infrastructure failures: failed cells count all their
  /// injections, plus per-injection Err outcomes in healthy cells.
  std::uint64_t infra_failures() const;
};

/// Run the campaign. Cells execute sequentially; each cell's injections fan
/// out over a support::ThreadPool (unless options.serial). Throws
/// ttsc::Error only for configuration mistakes (unknown machine/workload
/// name, non-positive injection count) — cell failures degrade to ERR
/// entries instead.
CampaignReport run_campaign(const CampaignOptions& options);

/// AVF-style text table (the paper-artifact stdout of table_resilience).
std::string render_resilience(const CampaignReport& report);

/// Human-readable first-divergence table (stdout section of
/// `table_resilience --forensics`; empty string when forensics was off).
std::string render_forensics(const CampaignReport& report);

/// Protection-efficiency table: every protected machine paired with its
/// unprotected base (same base name, same workload) with ΔAVF
/// (percentage-point vulnerability reduction), the fpga model's LUT/fmax
/// overhead for the protection hardware, the resulting ΔAVF-per-kLUT
/// figure of merit, and the measured recovery-cycle overhead. Empty string
/// when the campaign had no protected machine.
std::string render_protection_efficiency(const CampaignReport& report);

/// Machine-readable report, schema "ttsc-resil-report" v1. The top-level
/// "machines" array is keyed by each element's "name", so
/// report::diff_reports / bench report_diff compare campaigns
/// order-insensitively.
std::string render_resil_report_json(const CampaignReport& report);
void write_resil_report(const std::string& path, const CampaignReport& report);

}  // namespace ttsc::resil
