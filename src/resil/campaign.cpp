#include "resil/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>

#include "fpga/model.hpp"
#include "mach/configs.hpp"
#include "obs/json.hpp"
#include "report/driver.hpp"
#include "report/module_cache.hpp"
#include "resil/cell.hpp"
#include "resil/inject.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace ttsc::resil {

namespace {

const workloads::Workload& workload_by_name(const std::string& name) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    if (w.name == name) return w;
  }
  throw Error("resil: unknown workload " + name);
}

Outcome classify(const PreparedCell& cell, const sim::ExecResult& r, const ir::Memory& mem,
                 bool& latent) {
  switch (r.status) {
    case sim::ExecStatus::Trapped: return Outcome::Trap;
    case sim::ExecStatus::TimedOut: return Outcome::Timeout;
    case sim::ExecStatus::Ok: break;
  }
  const std::uint64_t checksum =
      report::workload_output_checksum(cell.module, *cell.workload, mem);
  if (r.ret != cell.golden.ret || checksum != cell.golden_checksum) return Outcome::Sdc;
  latent = r.rf_state != cell.golden.rf_state || r.guard_state != cell.golden.guard_state ||
           !(mem == cell.golden_mem);
  return Outcome::Masked;
}

/// Index-addressed injection outcome: the reduction reads slots in order,
/// so tallies are thread-count and lane-grouping independent.
struct Slot {
  TargetKind target = TargetKind::Rf;
  Outcome outcome = Outcome::Err;
  bool latent = false;
  InjectionPath path = InjectionPath::Scalar;
  /// Per-injection protection/recovery activity (protected machines only) —
  /// reduced into CellReport::protect in index order.
  ProtectStats prot{};
  /// The golden cycle a standalone run resumed at (0: from cycle 0).
  std::uint64_t resumed_at = 0;
};

/// A standalone run of `spec`, from its resume point, on `image`; counted
/// under InjectionPath::Resumed when it started past cycle 0.
sim::ExecResult run_standalone_into(const PreparedCell& cell, const FaultSpec& spec,
                                    sim::ProtectState* prot, std::uint64_t budget,
                                    ir::Memory& image, Slot& s) {
  StandaloneRun run = run_standalone(cell, spec, prot, budget, image);
  s.resumed_at = run.resumed_at;
  if (run.resumed_at > 0) s.path = InjectionPath::Resumed;
  return std::move(run.result);
}

void run_injection(const PreparedCell& cell, const FaultSpec& spec, std::uint64_t budget,
                   ir::Memory& image, Slot& s) {
  const sim::ExecResult r = run_standalone_into(cell, spec, nullptr, budget, image, s);
  s.outcome = classify(cell, r, image, s.latent);
}

/// Decide what the imem code does with the corrupted codeword(s) and poison
/// the fetch path accordingly. Returns true when the corruption escapes the
/// code entirely and the *mutated* program must actually run (no code, or a
/// parity-even flip confined to one codeword).
bool poison_imem(mach::Protection::Code code, std::uint8_t width, std::uint32_t pc0,
                 std::uint32_t pc1, sim::ProtectState& prot) {
  switch (code) {
    case mach::Protection::Code::None:
      return true;
    case mach::Protection::Code::Parity:
      // An adjacent pair inside one codeword flips two bits: even parity —
      // the classic escape. Split across codewords each word has an odd
      // flip, so both are detectable.
      if (width >= 2 && pc0 == pc1) return true;
      prot.poison_imem_detectable(pc0);
      if (width >= 2) prot.poison_imem_detectable(pc1);
      return false;
    case mach::Protection::Code::SecDed:
      // Double flip in one codeword: detected-uncorrectable. Split across
      // codewords each is a single-bit flip: both scrub on fetch.
      if (width >= 2 && pc0 == pc1) {
        prot.poison_imem_detectable(pc0);
        return false;
      }
      prot.poison_imem_correctable(pc0);
      if (width >= 2) prot.poison_imem_correctable(pc1);
      return false;
  }
  return true;
}

/// Analytic checkpoint-rollback resolution of a detected fault.
///
/// Sound because a protected faulty run never architecturally diverges from
/// golden *before* the detection trap: the only divergent state is the
/// poisoned element itself, and every consumption of it goes through a
/// read-site check (sim/protect.hpp) that fires before the value is used.
/// So the checkpoint at cycle c_k = floor(c_d / K) * K is clean exactly
/// when the fault landed at or after c_k (imem corruption is persistent —
/// re-execution refetches the same corrupted codeword, so it is never
/// clean), and a rollback from a clean checkpoint deterministically
/// re-executes the golden run from c_k.
Outcome resolve_detection(const FaultSpec& spec, const mach::Protection& cfg,
                          std::uint64_t detect_cycle, ProtectStats& stats) {
  if (!cfg.rollback) {
    // Fail-stop DUE: detected, reported, no recovery hardware.
    return Outcome::Detected;
  }
  const std::uint64_t interval = cfg.checkpoint_interval > 0 ? cfg.checkpoint_interval : 1;
  const std::uint64_t checkpoint = (detect_cycle / interval) * interval;
  const bool clean = spec.target != TargetKind::Imem && spec.state.cycle >= checkpoint;
  const std::uint64_t replay_cycles = detect_cycle - checkpoint + cfg.rollback_penalty;
  if (clean) {
    ++stats.rollbacks;
    ++stats.recovered;
    stats.recovery_cycles += replay_cycles;
    if (replay_cycles > stats.recovery_cycles_max) stats.recovery_cycles_max = replay_cycles;
    return Outcome::Recovered;
  }
  // The corruption predates the checkpoint (or lives in imem): every
  // re-execution detects again at the same cycle until the retry budget
  // runs out, then the core degrades to a detected-unrecoverable stop.
  const std::uint64_t retries =
      cfg.retry_budget > 0 ? static_cast<std::uint64_t>(cfg.retry_budget) : 0;
  stats.rollbacks += retries;
  stats.retries += retries;
  ++stats.unrecoverable;
  return Outcome::Detected;
}

/// The protected run of the *pristine* program with imem poisons at `pc0`
/// and `pc1` (equal for a one-codeword fault), resolved from the golden
/// run's fetch table instead of simulated. Exact: only
/// ProtectState::check_imem_fetch acts on an imem poison, and until it
/// detects, the run executes exactly the golden run. So each poisoned
/// codeword is checked first at its golden first fetch, in that order; a
/// correctable one scrubs there (later fetches, and a repeated pc, are
/// clean) and a detectable one traps there. Returns the ProtectionDetected
/// trap cycle, or nullopt when the run completes like golden.
std::optional<std::uint64_t> resolve_imem_fetches(const sim::FetchTable& fetches,
                                                  std::uint32_t pc0, std::uint32_t pc1,
                                                  sim::ProtectState& prot) {
  if (fetches.first_fetch(pc1) < fetches.first_fetch(pc0)) std::swap(pc0, pc1);
  for (const std::uint32_t pc : {pc0, pc1}) {
    if (!fetches.fetched(pc)) break;  // never fetched, and neither is a later pc
    if (prot.check_imem_fetch(pc) == sim::ProtectState::ImemAction::Detected) {
      return fetches.first_fetch(pc);
    }
  }
  return std::nullopt;
}

/// run_injection for a protected machine, into `s`: the same hardened
/// simulators with a sim::ProtectState attached, plus campaign-side imem
/// codeword decisions and analytic checkpoint-rollback resolution of
/// detections.
void run_protected_injection(const PreparedCell& cell, const FaultSpec& spec,
                             std::uint64_t budget, const mach::Protection& cfg,
                             ir::Memory& image, Slot& s) {
  sim::ProtectState prot(cfg);
  std::optional<std::uint64_t> detect_cycle;  // of a ProtectionDetected trap

  // Imem faults: locate the corrupted codeword(s) and let the declared code
  // decide. An escape runs the mutated program. A correctable or detectable
  // poison leaves the pristine program, whose run the golden fetch table
  // resolves without an engine: never-fetched corruption stays masked
  // exactly like the unprotected model.
  if (spec.target == TargetKind::Imem) {
    const auto [pc0, pc1] = cell.engine.visit([&](const auto& program) {
      const std::uint32_t first = imem_instr_of_bit(program, spec.imem_bit);
      return std::pair{first, spec.imem_width >= 2
                                  ? imem_instr_of_bit(program, spec.imem_bit + 1)
                                  : first};
    });
    if (!poison_imem(cfg.imem, spec.imem_width, pc0, pc1, prot)) {
      s.path = InjectionPath::ImemAnalytic;
      s.outcome = Outcome::Masked;  // unless detected: the golden run itself
      detect_cycle = resolve_imem_fetches(cell.fetches, pc0, pc1, prot);
    }
  }
  if (s.path == InjectionPath::Scalar) {
    const sim::ExecResult r = run_standalone_into(cell, spec, &prot, budget, image, s);
    if (r.status == sim::ExecStatus::Trapped &&
        r.trap.reason == sim::TrapReason::ProtectionDetected) {
      detect_cycle = r.trap.cycle;
    } else {
      s.outcome = classify(cell, r, image, s.latent);
    }
  }

  s.prot.rf_corrected = prot.rf_corrected;
  s.prot.rf_detected = prot.rf_detected;
  s.prot.fu_detected = prot.fu_detected;
  s.prot.guard_corrected = prot.guard_corrected;
  s.prot.imem_corrected = prot.imem_corrected;
  s.prot.imem_detected = prot.imem_detected;
  if (detect_cycle) {
    s.outcome = resolve_detection(spec, cfg, *detect_cycle, s.prot);
  } else if (s.outcome == Outcome::Masked && !s.latent && prot.corrections() > 0) {
    s.outcome = Outcome::Corrected;
  }
}

/// One forensic replay pair: the fault-free and the faulted run, both
/// hardened and predecoded exactly like run_injection, each with a
/// CommitRecorder attached from the fault cycle (cycle 0 for imem faults,
/// which corrupt the program before it starts). Faults apply at the top of
/// their cycle, before that cycle's commits, so starting the window at the
/// fault cycle loses nothing (see resil/forensics.hpp).
DivergenceRecord run_forensic_replay(const PreparedCell& cell, const FaultSpec& spec,
                                     std::uint64_t budget) {
  ForensicsWindow window;
  window.start_cycle = spec.target == TargetKind::Imem ? 0 : spec.state.cycle;
  CommitRecorder golden_rec(window);
  CommitRecorder faulty_rec(window);

  // Bounded replay: nothing after the window end can change the verdict, so
  // cap the simulation one cycle past it (the slack lets an immediate
  // post-window commit mark truncation naturally). A replay cut off at the
  // cap was still committing — mark it truncated so an identical prefix
  // reads "beyond window", never "no divergence". This cap is what keeps a
  // forensic analysis a small fixed multiple of one injection instead of
  // two full program runs.
  const std::uint64_t replay_budget =
      std::min(budget, window.start_cycle + window.window_cycles + 1);
  const auto replay = [&](const sim::Engine& engine, sim::SimOptions opts, CommitRecorder& rec) {
    ir::Memory mem = cell.initial_mem;
    opts.observer = &rec;
    if (engine.run(mem, opts, replay_budget).status == sim::ExecStatus::TimedOut) {
      rec.mark_truncated();
    }
  };
  sim::SimOptions golden_opts;
  golden_opts.harden = true;
  replay(cell.engine, golden_opts, golden_rec);
  sim::FaultSet fs;
  replay(spec.target == TargetKind::Imem ? mutated_engine(cell, spec) : cell.engine,
         injection_options(spec, fs), faulty_rec);
  return first_divergence(golden_rec, faulty_rec);
}

/// Output checksum of a lockstep lane's image without materializing it:
/// report::workload_output_checksum with each global's region checksummed
/// through the lane's sparse delta over the leader image.
std::uint64_t delta_output_checksum(const PreparedCell& cell, const ir::Memory& leader_mem,
                                    const sim::MemDelta& delta) {
  const ir::DataLayout layout = cell.module.layout();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& name : cell.workload->output_globals) {
    const ir::Global* g = cell.module.find_global(name);
    TTSC_ASSERT(g != nullptr, "workload output global missing: " + name);
    h ^= sim::checksum_with_delta(leader_mem, delta, layout.address_of(name),
                                  static_cast<std::uint32_t>(g->size));
    h *= 0x100000001b3ull;
  }
  return h;
}

/// classify() for a lockstep lane. Equivalent to running the scalar path's
/// classify on the lane's materialized result/memory, but without paying
/// for a full memory image per lane: `leader_mem` is the fault-free final
/// image (== cell.golden_mem), so "lane memory differs from golden" is
/// exactly "delta non-empty".
Outcome classify_lane(const PreparedCell& cell, const sim::LaneOutcome& lo,
                      const ir::Memory& leader_mem, bool& latent) {
  latent = false;
  if (lo.evicted) return classify(cell, lo.result, *lo.mem, latent);
  if (lo.converged) return Outcome::Masked;  // bit-identical to golden throughout
  switch (lo.result.status) {
    case sim::ExecStatus::Trapped: return Outcome::Trap;
    case sim::ExecStatus::TimedOut: return Outcome::Timeout;
    case sim::ExecStatus::Ok: break;
  }
  const std::uint64_t checksum = delta_output_checksum(cell, leader_mem, lo.delta);
  if (lo.result.ret != cell.golden.ret || checksum != cell.golden_checksum) {
    return Outcome::Sdc;
  }
  latent = lo.result.rf_state != cell.golden.rf_state ||
           lo.result.guard_state != cell.golden.guard_state || !lo.delta.empty();
  return Outcome::Masked;
}

void accumulate(ProtectStats& into, const ProtectStats& s) {
  into.rf_corrected += s.rf_corrected;
  into.rf_detected += s.rf_detected;
  into.fu_detected += s.fu_detected;
  into.guard_corrected += s.guard_corrected;
  into.imem_corrected += s.imem_corrected;
  into.imem_detected += s.imem_detected;
  into.rollbacks += s.rollbacks;
  into.retries += s.retries;
  into.recovered += s.recovered;
  into.unrecoverable += s.unrecoverable;
  into.recovery_cycles += s.recovery_cycles;
  if (s.recovery_cycles_max > into.recovery_cycles_max) {
    into.recovery_cycles_max = s.recovery_cycles_max;
  }
}

/// Per-cell watchdog expiry (CampaignOptions::cell_timeout_seconds).
/// Distinct from Error so run_campaign can honor keep_going for watchdog
/// hits specifically while configuration errors still abort.
struct CellTimeoutError : Error {
  using Error::Error;
};

struct BatchStats {
  std::uint64_t lanes = 0;
  std::uint64_t divergences = 0;
  std::uint64_t evictions = 0;
};

/// Run one lockstep lane group (state faults only — `idxs` indexes into the
/// cell's pre-sampled spec table) and classify each lane into its slot.
/// Throws only on infrastructure failure (the caller retries, then records
/// Err for the whole group).
BatchStats run_lane_group(const PreparedCell& cell, const std::vector<FaultSpec>& specs,
                          const std::vector<std::size_t>& idxs, std::size_t begin,
                          std::size_t count, std::uint64_t budget, std::vector<Slot>& slots) {
  TTSC_ASSERT(budget == timeout_budget(cell.golden.cycles),
              "lockstep lanes in one batch must share the cell's timeout budget");
  std::vector<sim::FaultSet> lane_faults(count);
  for (std::size_t k = 0; k < count; ++k) {
    const FaultSpec& spec = specs[idxs[begin + k]];
    TTSC_ASSERT(spec.target != TargetKind::Imem, "imem faults are never batchable");
    lane_faults[k].faults.push_back(spec.state);
  }
  const sim::BatchResult br =
      cell.engine.run_batch(cell.initial_mem, lane_faults, budget, &cell.golden, &cell.golden_mem);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = idxs[begin + k];
    const sim::LaneOutcome& lane = br.lanes[k];
    Slot s;
    s.target = specs[i].target;
    s.outcome = classify_lane(cell, lane, br.leader_mem, s.latent);
    s.path = lane.evicted     ? InjectionPath::Evicted
             : lane.converged ? InjectionPath::BatchedConverged
                              : InjectionPath::BatchedInDiff;
    slots[i] = s;
  }
  return BatchStats{count, br.divergences, br.evictions};
}

void export_cell_metrics(obs::Registry* registry, const CellReport& cr) {
  if (registry == nullptr) return;
  // One shard, one merge per cell (the obs::Registry concurrency contract).
  obs::Registry shard;
  for (int t = 0; t < kNumTargetKinds; ++t) {
    const TargetTally& tt = cr.targets[static_cast<std::size_t>(t)];
    if (tt.injections == 0) continue;
    const char* tn = target_kind_name(static_cast<TargetKind>(t));
    shard.add(format("resil.%s.injections", tn), tt.injections);
    shard.add(format("resil.%s.masked", tn), tt.masked);
    shard.add(format("resil.%s.sdc", tn), tt.sdc);
    shard.add(format("resil.%s.timeout", tn), tt.timeout);
    shard.add(format("resil.%s.trap", tn), tt.trap);
    shard.add(format("resil.%s.err", tn), tt.err);
    shard.add(format("resil.%s.latent", tn), tt.latent);
    if (cr.protected_machine) {
      shard.add(format("resil.%s.corrected", tn), tt.corrected);
      shard.add(format("resil.%s.recovered", tn), tt.recovered);
      shard.add(format("resil.%s.detected", tn), tt.detected);
    }
  }
  if (cr.protected_machine) {
    shard.add("protect.rf.corrected", cr.protect.rf_corrected);
    shard.add("protect.rf.detected", cr.protect.rf_detected);
    shard.add("protect.fu.detected", cr.protect.fu_detected);
    shard.add("protect.guard.corrected", cr.protect.guard_corrected);
    shard.add("protect.imem.corrected", cr.protect.imem_corrected);
    shard.add("protect.imem.detected", cr.protect.imem_detected);
    shard.add("recovery.rollbacks", cr.protect.rollbacks);
    shard.add("recovery.retries", cr.protect.retries);
    shard.add("recovery.recovered", cr.protect.recovered);
    shard.add("recovery.unrecoverable", cr.protect.unrecoverable);
    shard.add("recovery.cycles", cr.protect.recovery_cycles);
  }
  for (int p = 0; p < kNumInjectionPaths; ++p) {
    shard.add(format("resil.path.%s", injection_path_name(static_cast<InjectionPath>(p))),
              cr.paths[static_cast<std::size_t>(p)]);
  }
  shard.add("resil.resume.cycles_skipped", cr.resume_cycles_skipped);
  shard.add("resil.snapshot.bytes", cr.snapshot_bytes);
  if (cr.batch_lanes != 0) {
    shard.add("resil.batch.lanes", cr.batch_lanes);
    shard.add("resil.batch.divergences", cr.batch_divergences);
    shard.add("resil.batch.evictions", cr.batch_evictions);
  }
  if (cr.forensics_candidates != 0) {
    std::uint64_t diverged = 0, beyond = 0;
    for (const ForensicRecord& r : cr.forensics) {
      if (r.divergence.found) ++diverged;
      if (r.divergence.beyond_window) ++beyond;
    }
    shard.add("forensics.candidates", cr.forensics_candidates);
    shard.add("forensics.analyzed", cr.forensics.size());
    shard.add("forensics.replays", cr.forensics.size() * 2);  // golden + faulty
    shard.add("forensics.diverged", diverged);
    shard.add("forensics.beyond_window", beyond);
    shard.add("forensics.skipped_budget", cr.forensics_skipped);
  }
  shard.add("resil.cells.run");
  if (!cr.ok) shard.add("resil.cells.err");
  registry->merge(shard);
}

}  // namespace

void TargetTally::accumulate(const TargetTally& other) {
  injections += other.injections;
  masked += other.masked;
  sdc += other.sdc;
  timeout += other.timeout;
  trap += other.trap;
  err += other.err;
  latent += other.latent;
  corrected += other.corrected;
  recovered += other.recovered;
  detected += other.detected;
}

TargetTally CellReport::total() const {
  TargetTally t;
  for (const TargetTally& tt : targets) t.accumulate(tt);
  return t;
}

bool CampaignReport::all_ok() const {
  for (const CellReport& c : cells) {
    if (!c.ok || c.total().err != 0) return false;
  }
  return true;
}

std::uint64_t CampaignReport::infra_failures() const {
  std::uint64_t n = 0;
  for (const CellReport& c : cells) {
    if (!c.ok) {
      n += static_cast<std::uint64_t>(injections_per_cell);
    } else {
      n += c.total().err;
    }
  }
  return n;
}

CampaignReport run_campaign(const CampaignOptions& options) {
  if (options.injections_per_cell <= 0) {
    throw Error("resil: injections_per_cell must be positive");
  }
  if (options.batch && (options.batch_lanes < 1 || options.batch_lanes > sim::kMaxLanes)) {
    throw Error(format("resil: batch_lanes must be in 1..%d", sim::kMaxLanes));
  }
  // Configuration errors (unknown names) throw up front; anything that
  // fails later degrades to an ERR cell.
  std::vector<const workloads::Workload*> cell_workloads;
  for (const std::string& name : options.workloads) {
    cell_workloads.push_back(&workload_by_name(name));
  }
  CampaignReport report;
  for (const std::string& name : options.machines) {
    // Configuration validation doubles as the protection-schema gate: one
    // protected machine anywhere flips the whole report into the extended
    // (corrected/recovered/detected) form.
    report.protection = report.protection || mach::machine_by_name(name).protect.any();
  }

  report.seed = options.seed;
  report.injections_per_cell = options.injections_per_cell;
  report.forensics = options.forensics;

  std::optional<support::ThreadPool> pool;
  if (!options.serial) pool.emplace(options.threads);
  // One memory image per pool worker (one for a serial campaign), reused
  // by every standalone run: resetting it copies the few pages a run wrote
  // instead of the whole image.
  std::vector<std::optional<ir::Memory>> images(pool ? static_cast<std::size_t>(pool->size()) : 1);
  auto image_for = [&](const PreparedCell& cell) -> ir::Memory& {
    const int worker = pool ? support::ThreadPool::current_worker_id() : 0;
    TTSC_ASSERT(worker >= 0 && static_cast<std::size_t>(worker) < images.size(),
                "standalone injection run outside the campaign's workers");
    std::optional<ir::Memory>& image = images[static_cast<std::size_t>(worker)];
    if (!image || image->size() != cell.initial_mem.size()) image.emplace(cell.initial_mem);
    return *image;
  };
  // Each workload's front end and optimizer run once per campaign.
  report::ModuleCache modules;

  for (const std::string& machine_name : options.machines) {
    for (const workloads::Workload* w : cell_workloads) {
      if (options.cancel != nullptr && *options.cancel != 0) {
        // Cooperative cancellation (SIGINT/SIGTERM): stop at the cell
        // boundary and flush what completed as a truncated report.
        report.truncated = true;
        return report;
      }
      CellReport cr;
      cr.machine = machine_name;
      cr.workload = w->name;
      try {
        const PreparedCell cell =
            prepare_cell(machine_name, *w, modules.get(*w), options.superblocks);
        cr.golden_cycles = cell.golden.cycles;
        cr.imem_bits = cell.imem_bits;
        cr.snapshot_bytes = cell.snapshot_bytes();
        mach::Protection prot_cfg = cell.machine().protect;
        if (options.retry_budget_override > 0) prot_cfg.retry_budget = options.retry_budget_override;
        if (options.checkpoint_override > 0) {
          prot_cfg.checkpoint_interval = static_cast<std::uint32_t>(options.checkpoint_override);
        }
        cr.protected_machine = prot_cfg.any();
        const FaultPlan plan(cell.machine(), cell.machine().model == mach::Model::Tta,
                             cell.imem_bits, cell.golden.cycles, options.double_bit_permille);
        const std::uint64_t cell_seed =
            mix_seed(options.seed, hash_name(machine_name + "/" + w->name));

        const std::uint64_t budget = timeout_budget(cell.golden.cycles);

        // Per-cell wall-clock watchdog. Checked at the top of every work
        // item; once tripped the remaining items record Err without running
        // and the cell degrades to a structured error after the loop.
        const bool watchdog_on = options.cell_timeout_seconds > 0.0;
        const auto cell_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(watchdog_on ? options.cell_timeout_seconds : 0.0));
        std::atomic<bool> cell_expired{false};
        auto expired = [&]() -> bool {
          if (!watchdog_on) return false;
          if (cell_expired.load(std::memory_order_relaxed)) return true;
          if (std::chrono::steady_clock::now() >= cell_deadline) {
            cell_expired.store(true, std::memory_order_relaxed);
            return true;
          }
          return false;
        };

        // Pre-sample every injection by index: the spec stream is a pure
        // function of (seed, cell, index) regardless of batching, thread
        // count or lane grouping.
        const std::size_t n = static_cast<std::size_t>(options.injections_per_cell);
        std::vector<FaultSpec> specs(n);
        for (std::size_t i = 0; i < n; ++i) specs[i] = plan.sample(mix_seed(cell_seed, i));

        // Index-addressed result table: the reduction below reads it in
        // order, so tallies are thread-count independent.
        std::vector<Slot> slots(n);

        // Retry-once-then-Err wrapper shared by both execution paths. The
        // fault model itself never throws — simulators fail closed — so a
        // throw is an infrastructure failure.
        auto attempt_twice = [](auto&& work, auto&& on_err) {
          for (int attempt = 0; attempt < 2; ++attempt) {
            try {
              work();
              return;
            } catch (const std::exception&) {
            }
          }
          on_err();
        };

        auto scalar_injection = [&](std::size_t i) {
          if (expired()) {
            slots[i] = Slot{specs[i].target, Outcome::Err, false};
            return;
          }
          Slot s;
          s.target = specs[i].target;
          if (cr.protected_machine) {
            attempt_twice(
                [&] {
                  // Retry hygiene: a second attempt must not inherit the
                  // first attempt's partial protection stats.
                  s = Slot{specs[i].target};
                  run_protected_injection(cell, specs[i], budget, prot_cfg, image_for(cell), s);
                },
                [&] { s = Slot{specs[i].target, Outcome::Err, false}; });
          } else {
            attempt_twice(
                [&] {
                  s = Slot{specs[i].target};
                  run_injection(cell, specs[i], budget, image_for(cell), s);
                },
                [&] { s = Slot{specs[i].target, Outcome::Err, false}; });
          }
          slots[i] = s;
        };

        // Protected cells never batch: each injection owns a private
        // sim::ProtectState (thread safety) and detection traps are per-lane
        // control flow the lockstep batcher does not model. Their imem
        // faults mostly resolve without an engine run (resolve_imem_fetches).
        // The unprotected report is unaffected.
        const bool use_batch = options.batch && !cr.protected_machine;
        if (!use_batch) {
          auto body = [&](std::size_t i) { scalar_injection(i); };
          if (options.serial) {
            for (std::size_t i = 0; i < n; ++i) body(i);
          } else {
            support::parallel_for(*pool, n, body);
          }
        } else {
          // Partition by index order: state faults (rf / fu-result / guard)
          // pack into lockstep lane groups; imem faults mutate the program
          // itself, so they stay on the per-injection scalar path.
          std::vector<std::size_t> state_idx;
          std::vector<std::size_t> imem_idx;
          for (std::size_t i = 0; i < n; ++i) {
            (specs[i].target == TargetKind::Imem ? imem_idx : state_idx).push_back(i);
          }
          // Group lanes by fault cycle: a batch whose faults all land early
          // can settle (or evict) early and take the leader's settled exit,
          // instead of every batch carrying one late fault to the end. Lane
          // results are grouping-invariant, so the report is unchanged; the
          // stable sort keeps the grouping deterministic.
          std::stable_sort(state_idx.begin(), state_idx.end(),
                           [&](std::size_t a, std::size_t b) {
                             return specs[a].state.cycle < specs[b].state.cycle;
                           });
          const std::size_t lanes = static_cast<std::size_t>(options.batch_lanes);
          const std::size_t num_groups = (state_idx.size() + lanes - 1) / lanes;
          std::vector<BatchStats> group_stats(num_groups);
          auto body = [&](std::size_t item) {
            if (item < num_groups) {
              const std::size_t begin = item * lanes;
              const std::size_t count = std::min(lanes, state_idx.size() - begin);
              if (expired()) {
                for (std::size_t k = 0; k < count; ++k) {
                  const std::size_t i = state_idx[begin + k];
                  slots[i] = Slot{specs[i].target, Outcome::Err, false};
                }
                return;
              }
              attempt_twice(
                  [&] {
                    group_stats[item] =
                        run_lane_group(cell, specs, state_idx, begin, count, budget, slots);
                  },
                  [&] {
                    group_stats[item] = BatchStats{};
                    for (std::size_t k = 0; k < count; ++k) {
                      const std::size_t i = state_idx[begin + k];
                      slots[i] = Slot{specs[i].target, Outcome::Err, false,
                                      InjectionPath::BatchedInDiff};
                    }
                  });
            } else {
              scalar_injection(imem_idx[item - num_groups]);
            }
          };
          const std::size_t items = num_groups + imem_idx.size();
          if (options.serial) {
            for (std::size_t item = 0; item < items; ++item) body(item);
          } else {
            support::parallel_for(*pool, items, body);
          }
          for (const BatchStats& gs : group_stats) {
            cr.batch_lanes += gs.lanes;
            cr.batch_divergences += gs.divergences;
            cr.batch_evictions += gs.evictions;
          }
        }

        if (cell_expired.load(std::memory_order_relaxed)) {
          throw CellTimeoutError(
              format("cell watchdog expired after %.1fs (%s/%s)", options.cell_timeout_seconds,
                     machine_name.c_str(), w->name.c_str()));
        }

        for (const Slot& s : slots) {
          TargetTally& tt = cr.targets[static_cast<std::size_t>(s.target)];
          ++tt.injections;
          ++cr.paths[static_cast<std::size_t>(s.path)];
          cr.resume_cycles_skipped += s.resumed_at;
          switch (s.outcome) {
            case Outcome::Masked:
              ++tt.masked;
              if (s.latent) ++tt.latent;
              break;
            case Outcome::Corrected: ++tt.corrected; break;
            case Outcome::Recovered: ++tt.recovered; break;
            case Outcome::Detected: ++tt.detected; break;
            case Outcome::Sdc: ++tt.sdc; break;
            case Outcome::Timeout: ++tt.timeout; break;
            case Outcome::Trap: ++tt.trap; break;
            case Outcome::Err: ++tt.err; break;
          }
          accumulate(cr.protect, s.prot);
        }

        if (options.forensics) {
          // First-divergence pass: serially replay the SDC/latent slots in
          // injection-index order (deterministic regardless of thread count)
          // up to the replay budget. Candidates past the budget are counted
          // but not replayed, bounding the pass at 2*budget hardened runs.
          const int fbudget = options.effective_forensics_budget();
          for (std::size_t i = 0; i < n; ++i) {
            const Slot& s = slots[i];
            if (s.outcome != Outcome::Sdc && !(s.outcome == Outcome::Masked && s.latent)) {
              continue;
            }
            ++cr.forensics_candidates;
            if (cr.forensics.size() >= static_cast<std::size_t>(fbudget)) {
              ++cr.forensics_skipped;
              continue;
            }
            ForensicRecord rec;
            rec.injection = i;
            rec.target = s.target;
            rec.outcome = s.outcome;
            rec.latent = s.latent;
            rec.fault_cycle =
                specs[i].target == TargetKind::Imem ? 0 : specs[i].state.cycle;
            attempt_twice(
                [&] {
                  rec.divergence = run_forensic_replay(cell, specs[i], budget);
                },
                [&] { rec.divergence = DivergenceRecord{}; });
            cr.forensics.push_back(rec);
          }
        }
      } catch (const CellTimeoutError& e) {
        // Watchdog expiry aborts the campaign by default; --keep-going
        // degrades it to a structured ERR cell so the rest of the grid runs.
        if (!options.keep_going) throw;
        cr.ok = false;
        cr.error = e.what();
      } catch (const std::exception& e) {
        cr.ok = false;
        cr.error = e.what();
      }
      export_cell_metrics(options.registry, cr);
      report.cells.push_back(std::move(cr));
    }
  }
  return report;
}

std::string render_resilience(const CampaignReport& report) {
  if (!report.protection) {
    // Unprotected campaigns keep the historical table byte-for-byte.
    std::string out = format(
        "SEU resilience (AVF-style): %d single-bit injections per cell, seed 0x%llx.\n"
        "Targets: rf = register-file bits, fu-result = TTA result/bypass registers,\n"
        "guard = predicate registers, imem = instruction encodings (through the\n"
        "decoder). vuln%% = (sdc + timeout + trap) / injections.\n\n",
        report.injections_per_cell, static_cast<unsigned long long>(report.seed));
    out += format("%-10s %-9s %-10s %8s %8s %8s %8s %8s %8s %7s\n", "machine", "workload",
                  "target", "inj", "masked", "sdc", "timeout", "trap", "err", "vuln%");
    auto row = [&](const CellReport& c, const char* name, const TargetTally& t, bool lead) {
      const double vuln =
          t.injections == 0 ? 0.0
                            : 100.0 * static_cast<double>(t.vulnerable()) /
                                  static_cast<double>(t.injections);
      out += format("%-10s %-9s %-10s %8llu %8llu %8llu %8llu %8llu %8llu %7.1f\n",
                    lead ? c.machine.c_str() : "", lead ? c.workload.c_str() : "", name,
                    static_cast<unsigned long long>(t.injections),
                    static_cast<unsigned long long>(t.masked),
                    static_cast<unsigned long long>(t.sdc),
                    static_cast<unsigned long long>(t.timeout),
                    static_cast<unsigned long long>(t.trap),
                    static_cast<unsigned long long>(t.err), vuln);
    };
    for (const CellReport& c : report.cells) {
      if (!c.ok) {
        out += format("%-10s %-9s ERR: %s\n", c.machine.c_str(), c.workload.c_str(),
                      c.error.c_str());
        continue;
      }
      bool lead = true;
      for (int t = 0; t < kNumTargetKinds; ++t) {
        const TargetTally& tt = c.targets[static_cast<std::size_t>(t)];
        if (tt.injections == 0) continue;
        row(c, target_kind_name(static_cast<TargetKind>(t)), tt, lead);
        lead = false;
      }
      row(c, "total", c.total(), false);
    }
    if (report.truncated) out += "\n(campaign truncated by cancellation — partial report)\n";
    return out;
  }

  // Protected variant: wider machine column ("+profile" suffixes) and the
  // three protection outcome columns. corr/recov end with the golden
  // outcome; detect is the safe detected-unrecoverable stop — none count
  // as vulnerable.
  std::string out = format(
      "SEU resilience (AVF-style): %d injections per cell, seed 0x%llx.\n"
      "Targets: rf = register-file bits, fu-result = TTA result/bypass registers,\n"
      "guard = predicate registers, imem = instruction encodings (through the\n"
      "decoder). corr = code-corrected, recov = rollback-recovered, detect =\n"
      "detected-unrecoverable stop. vuln%% = (sdc + timeout + trap) / injections.\n\n",
      report.injections_per_cell, static_cast<unsigned long long>(report.seed));
  out += format("%-16s %-9s %-10s %7s %7s %7s %7s %7s %7s %7s %6s %5s %7s\n", "machine",
                "workload", "target", "inj", "masked", "corr", "recov", "detect", "sdc",
                "timeout", "trap", "err", "vuln%");
  auto row = [&](const CellReport& c, const char* name, const TargetTally& t, bool lead) {
    const double vuln =
        t.injections == 0 ? 0.0
                          : 100.0 * static_cast<double>(t.vulnerable()) /
                                static_cast<double>(t.injections);
    out += format("%-16s %-9s %-10s %7llu %7llu %7llu %7llu %7llu %7llu %7llu %6llu %5llu %7.1f\n",
                  lead ? c.machine.c_str() : "", lead ? c.workload.c_str() : "", name,
                  static_cast<unsigned long long>(t.injections),
                  static_cast<unsigned long long>(t.masked),
                  static_cast<unsigned long long>(t.corrected),
                  static_cast<unsigned long long>(t.recovered),
                  static_cast<unsigned long long>(t.detected),
                  static_cast<unsigned long long>(t.sdc),
                  static_cast<unsigned long long>(t.timeout),
                  static_cast<unsigned long long>(t.trap),
                  static_cast<unsigned long long>(t.err), vuln);
  };
  for (const CellReport& c : report.cells) {
    if (!c.ok) {
      out += format("%-16s %-9s ERR: %s\n", c.machine.c_str(), c.workload.c_str(),
                    c.error.c_str());
      continue;
    }
    bool lead = true;
    for (int t = 0; t < kNumTargetKinds; ++t) {
      const TargetTally& tt = c.targets[static_cast<std::size_t>(t)];
      if (tt.injections == 0) continue;
      row(c, target_kind_name(static_cast<TargetKind>(t)), tt, lead);
      lead = false;
    }
    row(c, "total", c.total(), false);
  }
  if (report.truncated) out += "\n(campaign truncated by cancellation — partial report)\n";
  return out;
}

std::string render_protection_efficiency(const CampaignReport& report) {
  if (!report.protection) return {};
  std::string out =
      "Protection efficiency: each protected machine against its unprotected\n"
      "base (same name before '+', same workload). d-avf = vulnerability drop in\n"
      "percentage points; lut+ = protection hardware (fpga model); the figure of\n"
      "merit is d-avf per 1000 extra LUTs. recov-avg/max = detection-to-restore\n"
      "latency in cycles over rollback-recovered injections.\n\n";
  out += format("%-16s %-9s %7s %7s %7s %7s %7s %9s %9s %9s\n", "machine", "workload", "lut+",
                "fmax-d%", "base-v%", "vuln%", "d-avf", "davf/kLUT", "recov-avg", "recov-max");
  auto vuln_pct = [](const TargetTally& t) {
    return t.injections == 0 ? 0.0
                             : 100.0 * static_cast<double>(t.vulnerable()) /
                                   static_cast<double>(t.injections);
  };
  for (const CellReport& c : report.cells) {
    if (!c.ok || !c.protected_machine) continue;
    const std::size_t plus = c.machine.find('+');
    const std::string base_name = plus == std::string::npos ? c.machine : c.machine.substr(0, plus);
    const CellReport* base = nullptr;
    for (const CellReport& b : report.cells) {
      if (b.ok && !b.protected_machine && b.machine == base_name && b.workload == c.workload) {
        base = &b;
        break;
      }
    }
    const mach::Machine m = mach::machine_by_name(c.machine);
    const mach::Machine bm = mach::machine_by_name(base_name);
    const fpga::AreaReport area = fpga::estimate_area(m);
    const double fmax = fpga::estimate_timing(m).fmax_mhz;
    const double base_fmax = fpga::estimate_timing(bm).fmax_mhz;
    const double fmax_drop = base_fmax > 0.0 ? 100.0 * (base_fmax - fmax) / base_fmax : 0.0;
    const double vuln = vuln_pct(c.total());
    const double recov_avg =
        c.protect.recovered > 0 ? static_cast<double>(c.protect.recovery_cycles) /
                                      static_cast<double>(c.protect.recovered)
                                : 0.0;
    if (base == nullptr) {
      out += format("%-16s %-9s %7d %7.1f %7s %7.1f %7s %9s %9.1f %9llu\n", c.machine.c_str(),
                    c.workload.c_str(), area.protect_lut, fmax_drop, "-", vuln, "-", "-",
                    recov_avg, static_cast<unsigned long long>(c.protect.recovery_cycles_max));
      continue;
    }
    const double base_vuln = vuln_pct(base->total());
    const double davf = base_vuln - vuln;
    const double davf_per_klut =
        area.protect_lut > 0 ? davf / (static_cast<double>(area.protect_lut) / 1000.0) : 0.0;
    out += format("%-16s %-9s %7d %7.1f %7.1f %7.1f %7.2f %9.2f %9.1f %9llu\n", c.machine.c_str(),
                  c.workload.c_str(), area.protect_lut, fmax_drop, base_vuln, vuln, davf,
                  davf_per_klut, recov_avg,
                  static_cast<unsigned long long>(c.protect.recovery_cycles_max));
  }
  return out;
}

std::string render_forensics(const CampaignReport& report) {
  if (!report.forensics) return {};
  std::string out =
      "First-divergence forensics: SDC/latent injections replayed golden-vs-\n"
      "faulty with paired commit recorders (budgeted per cell). cycle = first\n"
      "architecturally divergent commit; elem = diverging state element\n"
      "(pc / rf cell / guard / memory byte / early halt).\n\n";
  out += format("%-10s %-9s %6s %-9s %-7s %10s %-6s %-14s %-10s %-10s\n", "machine", "workload",
                "inj", "target", "outcome", "cycle", "elem", "coord", "golden", "faulty");
  auto coord_text = [](const DivergenceRecord& d) -> std::string {
    switch (d.element) {
      case DivergedElement::RfCell: return format("rf%d[%d]", d.unit, d.index);
      case DivergedElement::Guard: return format("g%d", d.unit);
      case DivergedElement::MemByte: return format("@0x%x", d.addr);
      case DivergedElement::Pc:
      case DivergedElement::Halt: return "-";
    }
    return "-";
  };
  for (const CellReport& c : report.cells) {
    if (!c.ok) continue;
    for (const ForensicRecord& r : c.forensics) {
      const DivergenceRecord& d = r.divergence;
      if (d.found) {
        out += format("%-10s %-9s %6llu %-9s %-7s %10llu %-6s %-14s 0x%08x 0x%08x\n",
                      c.machine.c_str(), c.workload.c_str(),
                      static_cast<unsigned long long>(r.injection), target_kind_name(r.target),
                      outcome_name(r.outcome), static_cast<unsigned long long>(d.cycle),
                      diverged_element_name(d.element), coord_text(d).c_str(), d.golden_value,
                      d.faulty_value);
      } else {
        out += format("%-10s %-9s %6llu %-9s %-7s %10s %-6s %-14s %-10s %-10s\n",
                      c.machine.c_str(), c.workload.c_str(),
                      static_cast<unsigned long long>(r.injection), target_kind_name(r.target),
                      outcome_name(r.outcome), "-", d.beyond_window ? "beyond" : "none", "-", "-",
                      "-");
      }
    }
    if (c.forensics_skipped != 0) {
      out += format("%-10s %-9s   (%llu more candidate(s) past the replay budget)\n",
                    c.machine.c_str(), c.workload.c_str(),
                    static_cast<unsigned long long>(c.forensics_skipped));
    }
  }
  return out;
}

namespace {

void write_tally(obs::JsonWriter& w, const TargetTally& t, bool protection) {
  w.begin_object();
  w.key("injections");
  w.value(t.injections);
  w.key("masked");
  w.value(t.masked);
  // Protection outcome keys only in protected campaigns: unprotected
  // reports stay byte-identical to earlier schema revisions.
  if (protection) {
    w.key("corrected");
    w.value(t.corrected);
    w.key("recovered");
    w.value(t.recovered);
    w.key("detected");
    w.value(t.detected);
  }
  w.key("sdc");
  w.value(t.sdc);
  w.key("timeout");
  w.value(t.timeout);
  w.key("trap");
  w.value(t.trap);
  w.key("err");
  w.value(t.err);
  w.key("latent");
  w.value(t.latent);
  w.end_object();
}

}  // namespace

std::string render_resil_report_json(const CampaignReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ttsc-resil-report");
  w.key("version");
  w.value(std::uint64_t{1});
  w.key("seed");
  w.value(report.seed);
  w.key("injections_per_cell");
  w.value(report.injections_per_cell);
  // Both markers appear only when set, keeping unprotected / completed
  // reports byte-identical to earlier schema revisions.
  if (report.protection) {
    w.key("protection");
    w.value(true);
  }
  if (report.truncated) {
    w.key("truncated");
    w.value(true);
  }
  // "machines" keyed by "name", like the run report, so report_diff
  // compares campaigns machine-by-machine, order-insensitively.
  w.key("machines");
  w.begin_array();
  std::vector<std::string> machine_order;
  for (const CellReport& c : report.cells) {
    bool seen = false;
    for (const std::string& m : machine_order) seen = seen || m == c.machine;
    if (!seen) machine_order.push_back(c.machine);
  }
  for (const std::string& machine : machine_order) {
    w.begin_object();
    w.key("name");
    w.value(machine);
    w.key("cells");
    w.begin_object();
    for (const CellReport& c : report.cells) {
      if (c.machine != machine) continue;
      w.key(c.workload);
      w.begin_object();
      if (!c.ok) {
        w.key("error");
        w.value(c.error);
        w.end_object();
        continue;
      }
      w.key("golden_cycles");
      w.value(c.golden_cycles);
      w.key("imem_bits");
      w.value(c.imem_bits);
      w.key("targets");
      w.begin_object();
      for (int t = 0; t < kNumTargetKinds; ++t) {
        const TargetTally& tt = c.targets[static_cast<std::size_t>(t)];
        if (tt.injections == 0) continue;
        w.key(target_kind_name(static_cast<TargetKind>(t)));
        write_tally(w, tt, report.protection);
      }
      w.end_object();
      w.key("total");
      write_tally(w, c.total(), report.protection);
      if (c.protected_machine) {
        w.key("protect");
        w.begin_object();
        w.key("rf_corrected");
        w.value(c.protect.rf_corrected);
        w.key("rf_detected");
        w.value(c.protect.rf_detected);
        w.key("fu_detected");
        w.value(c.protect.fu_detected);
        w.key("guard_corrected");
        w.value(c.protect.guard_corrected);
        w.key("imem_corrected");
        w.value(c.protect.imem_corrected);
        w.key("imem_detected");
        w.value(c.protect.imem_detected);
        w.key("rollbacks");
        w.value(c.protect.rollbacks);
        w.key("retries");
        w.value(c.protect.retries);
        w.key("recovered");
        w.value(c.protect.recovered);
        w.key("unrecoverable");
        w.value(c.protect.unrecoverable);
        w.key("recovery_cycles");
        w.value(c.protect.recovery_cycles);
        w.key("recovery_cycles_max");
        w.value(c.protect.recovery_cycles_max);
        w.end_object();
      }
      // Per-cell forensics only when the campaign ran with forensics on:
      // forensics-off reports stay byte-identical to the pre-forensics
      // schema (the existing resil_smoke.json golden depends on it).
      if (report.forensics) {
        w.key("forensics");
        w.begin_object();
        w.key("candidates");
        w.value(c.forensics_candidates);
        w.key("analyzed");
        w.value(static_cast<std::uint64_t>(c.forensics.size()));
        w.key("skipped_budget");
        w.value(c.forensics_skipped);
        w.key("records");
        w.begin_array();
        for (const ForensicRecord& r : c.forensics) {
          const DivergenceRecord& d = r.divergence;
          w.begin_object();
          w.key("injection");
          w.value(r.injection);
          w.key("target");
          w.value(target_kind_name(r.target));
          w.key("outcome");
          w.value(outcome_name(r.outcome));
          w.key("latent");
          w.value(r.latent);
          w.key("fault_cycle");
          w.value(r.fault_cycle);
          w.key("found");
          w.value(d.found);
          w.key("beyond_window");
          w.value(d.beyond_window);
          if (d.found) {
            w.key("cycle");
            w.value(d.cycle);
            w.key("element");
            w.value(diverged_element_name(d.element));
            switch (d.element) {
              case DivergedElement::RfCell:
                w.key("rf");
                w.value(d.unit);
                w.key("reg");
                w.value(d.index);
                break;
              case DivergedElement::Guard:
                w.key("guard");
                w.value(d.unit);
                break;
              case DivergedElement::MemByte:
                w.key("addr");
                w.value(std::uint64_t{d.addr});
                break;
              case DivergedElement::Pc:
              case DivergedElement::Halt:
                break;
            }
            w.key("golden_value");
            w.value(std::uint64_t{d.golden_value});
            w.key("faulty_value");
            w.value(std::uint64_t{d.faulty_value});
          }
          w.key("compared_events");
          w.value(d.compared_events);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take() + "\n";
}

void write_resil_report(const std::string& path, const CampaignReport& report) {
  const std::string text = render_resil_report_json(report);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text) || (out.close(), !out)) {
    throw Error("cannot write resilience report: " + path);
  }
}

}  // namespace ttsc::resil
