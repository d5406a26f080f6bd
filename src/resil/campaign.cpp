// run_campaign: per cell, plan → route → run → reduce.
//
//  * plan   — sample every injection's fault by index, and route each one
//             once: a lane of a lockstep group, a standalone run, or a
//             repeat of an earlier imem draw of the same bits. Lane groups
//             and standalone injections form one work list.
//  * run    — execute the work list into an index-addressed slot table: one
//             parallel_for (inline without a pool, under --serial), one
//             watchdog check and one retry-then-Err site per work item.
//             Execution refines each route into the InjectionPath that
//             served it.
//  * reduce — fill the repeats and tally the slots into the CellReport in
//             index order, so the report is thread-count and
//             lane-grouping independent.
//
// Forensic replays and the metrics export follow reduce; the text and JSON
// renderings live in resil/report.cpp. Cells run one at a time, in option
// order, with a one-cell look-ahead: while the pool runs cell k's work
// list, the calling thread prepares and plans cell k+1.
#include "resil/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "mach/configs.hpp"
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

/// How the plan sends an injection (see InjectionPath for how each route
/// refines into paths).
enum class Route : std::uint8_t { Lane, Standalone, Repeat };

/// One cell's injections, sampled and routed, and the work list that runs
/// them: the lane groups, then the standalone injections.
struct CellPlan {
  std::vector<FaultSpec> specs;
  std::vector<Route> routes;
  /// A repeat's earlier injection flipping the same bits; otherwise the
  /// injection itself.
  std::vector<std::size_t> first_draw;
  /// The injections of every work item back to back: the lanes, stably
  /// sorted by fault cycle, then the standalone injections in index order.
  std::vector<std::size_t> order;
  /// Work item k runs order[items[k].first, items[k].second): up to
  /// batch_lanes lanes, or one standalone injection.
  std::vector<std::pair<std::size_t, std::size_t>> items;

  /// The injections of work item `k`.
  std::span<const std::size_t> injections(std::size_t k) const {
    return {order.data() + items[k].first, order.data() + items[k].second};
  }
};

/// Sample the cell's injections and route each once. With `batch` off (the
/// `--no-batch` path, and every protected cell: each injection owns a
/// private sim::ProtectState, and detection traps are per-lane control flow
/// the lockstep batcher does not model) the plan has no lane groups.
CellPlan plan_cell(const PreparedCell& cell, const CampaignOptions& options,
                   std::uint64_t cell_seed, bool batch) {
  const FaultPlan faults(cell.machine(), cell.machine().model == mach::Model::Tta, cell.imem_bits,
                         cell.golden.cycles, options.double_bit_permille);
  const std::size_t n = static_cast<std::size_t>(options.injections_per_cell);
  CellPlan plan;
  plan.specs.resize(n);
  plan.routes.resize(n);
  plan.first_draw.resize(n);
  // An imem fault's run is a pure function of the bits it flips: each
  // (bit, width) draw runs once, at its first index.
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::size_t> imem_draws;
  std::vector<std::size_t> standalone;
  for (std::size_t i = 0; i < n; ++i) {
    // The spec stream is a pure function of (seed, cell, index) regardless
    // of batching, thread count or lane grouping.
    const FaultSpec& spec = plan.specs[i] = faults.sample(mix_seed(cell_seed, i));
    plan.first_draw[i] = i;
    if (spec.target != TargetKind::Imem) {
      plan.routes[i] = batch ? Route::Lane : Route::Standalone;
    } else {
      plan.first_draw[i] = imem_draws.try_emplace({spec.imem_bit, spec.imem_width}, i).first->second;
      plan.routes[i] = plan.first_draw[i] == i ? Route::Standalone : Route::Repeat;
    }
    if (plan.routes[i] == Route::Lane) plan.order.push_back(i);
    if (plan.routes[i] == Route::Standalone) standalone.push_back(i);
  }
  // Group lanes by fault cycle: a batch whose faults all land early can
  // settle (or evict) early and take the leader's settled exit, instead of
  // every batch carrying one late fault to the end. Lane results are
  // grouping-invariant, so the report is unchanged; the stable sort keeps
  // the grouping deterministic.
  std::stable_sort(plan.order.begin(), plan.order.end(), [&](std::size_t a, std::size_t b) {
    return plan.specs[a].state.cycle < plan.specs[b].state.cycle;
  });
  const std::size_t lanes = plan.order.size();
  const auto group = static_cast<std::size_t>(options.batch_lanes);
  for (std::size_t begin = 0; begin < lanes; begin += group) {
    plan.items.emplace_back(begin, std::min(begin + group, lanes));
  }
  for (const std::size_t i : standalone) {
    plan.items.emplace_back(plan.order.size(), plan.order.size() + 1);
    plan.order.push_back(i);
  }
  return plan;
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

/// The outcome of a run that ended as `r` on image `mem` — or, for a
/// lockstep lane that finished as a sparse diff, on the leader's final
/// image `mem` overlaid with `delta`. The leader's final image is the
/// golden one, so such a lane's memory differs from golden exactly when
/// its delta is non-empty.
Outcome classify(const PreparedCell& cell, const sim::ExecResult& r, const ir::Memory& mem,
                 const sim::MemDelta* delta, bool& latent) {
  switch (r.status) {
    case sim::ExecStatus::Trapped: return Outcome::Trap;
    case sim::ExecStatus::TimedOut: return Outcome::Timeout;
    case sim::ExecStatus::Ok: break;
  }
  const std::uint64_t checksum =
      delta != nullptr ? delta_output_checksum(cell, mem, *delta)
                       : report::workload_output_checksum(cell.module, *cell.workload, mem);
  if (r.ret != cell.golden.ret || checksum != cell.golden_checksum) return Outcome::Sdc;
  latent = r.rf_state != cell.golden.rf_state || r.guard_state != cell.golden.guard_state ||
           (delta != nullptr ? !delta->empty() : !(mem == cell.golden_mem));
  return Outcome::Masked;
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

/// One standalone injection: the hardened run of `spec` from its resume
/// point on `image`, classified. On a protected cell (`cfg` given) the run
/// carries a sim::ProtectState; an imem fault the code does not let escape
/// resolves from the golden fetch table with no engine run (never-fetched
/// corruption stays masked exactly like the unprotected model), and a
/// detection resolves through analytic checkpoint rollback. Unprotected
/// runs attach no ProtectState, so they execute the Harden loops.
Slot run_standalone_injection(const PreparedCell& cell, const FaultSpec& spec,
                              const mach::Protection* cfg, ir::Memory& image) {
  Slot s{spec.target};
  std::optional<sim::ProtectState> prot;
  if (cfg != nullptr) prot.emplace(*cfg);
  std::optional<std::uint64_t> detect_cycle;  // of a ProtectionDetected trap
  if (prot && spec.target == TargetKind::Imem) {
    const auto [pc0, pc1] = cell.engine.visit([&](const auto& program) {
      const std::uint32_t first = imem_instr_of_bit(program, spec.imem_bit);
      return std::pair{first, spec.imem_width >= 2
                                  ? imem_instr_of_bit(program, spec.imem_bit + 1)
                                  : first};
    });
    if (!poison_imem(cfg->imem, spec.imem_width, pc0, pc1, *prot)) {
      s.path = InjectionPath::ImemAnalytic;
      s.outcome = Outcome::Masked;  // unless detected: the golden run itself
      detect_cycle = resolve_imem_fetches(cell.fetches, pc0, pc1, *prot);
    }
  }
  if (s.path == InjectionPath::Scalar) {
    const StandaloneRun run = run_standalone(cell, spec, prot ? &*prot : nullptr,
                                             timeout_budget(cell.golden.cycles), image);
    s.resumed_at = run.resumed_at;
    if (run.resumed_at > 0) s.path = InjectionPath::Resumed;
    const sim::ExecResult& r = run.result;
    if (prot && r.status == sim::ExecStatus::Trapped &&
        r.trap.reason == sim::TrapReason::ProtectionDetected) {
      detect_cycle = r.trap.cycle;
    } else {
      s.outcome = classify(cell, r, image, nullptr, s.latent);
    }
  }
  if (!prot) return s;
  s.prot.rf_corrected = prot->rf_corrected;
  s.prot.rf_detected = prot->rf_detected;
  s.prot.fu_detected = prot->fu_detected;
  s.prot.guard_corrected = prot->guard_corrected;
  s.prot.imem_corrected = prot->imem_corrected;
  s.prot.imem_detected = prot->imem_detected;
  if (detect_cycle) {
    s.outcome = resolve_detection(spec, *cfg, *detect_cycle, s.prot);
  } else if (s.outcome == Outcome::Masked && !s.latent && prot->corrections() > 0) {
    s.outcome = Outcome::Corrected;
  }
  return s;
}

/// Run work item `item` of `plan` — one lockstep lane group, or one
/// standalone injection — on `image`, the worker's reused image, and fill
/// its injections' slots. Evicted lanes are restored into `image` and
/// classified like standalone runs. Throws only on infrastructure failure.
void run_item(const PreparedCell& cell, const CellPlan& plan, std::size_t item,
              const mach::Protection* cfg, ir::Memory& image, std::vector<Slot>& slots) {
  const std::span<const std::size_t> idxs = plan.injections(item);
  if (plan.routes[idxs[0]] == Route::Standalone) {
    slots[idxs[0]] = run_standalone_injection(cell, plan.specs[idxs[0]], cfg, image);
    return;
  }
  std::vector<sim::FaultSet> lane_faults(idxs.size());
  for (std::size_t k = 0; k < idxs.size(); ++k) {
    lane_faults[k].faults.push_back(plan.specs[idxs[k]].state);
  }
  const sim::BatchResult br =
      cell.engine.run_batch(cell.initial_mem, lane_faults, timeout_budget(cell.golden.cycles),
                            image, &cell.golden, &cell.golden_mem);
  for (std::size_t k = 0; k < idxs.size(); ++k) {
    const sim::LaneOutcome& lane = br.lanes[k];
    Slot s{plan.specs[idxs[k]].target};
    if (lane.evicted) {
      s.path = InjectionPath::Evicted;
      br.lane_image(k, image);
      s.outcome = classify(cell, lane.result, image, nullptr, s.latent);
    } else if (lane.converged) {
      s.path = InjectionPath::BatchedConverged;
      s.outcome = Outcome::Masked;  // bit-identical to golden throughout
    } else {
      s.path = InjectionPath::BatchedInDiff;
      s.outcome = classify(cell, lane.result, br.leader_mem, &lane.delta, s.latent);
    }
    slots[idxs[k]] = s;
  }
}

/// Run `work`, retrying once; false when both attempts threw. The fault
/// model itself never throws — simulators fail closed — so a throw is an
/// infrastructure failure.
template <typename Work>
bool attempt_twice(Work&& work) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      work();
      return true;
    } catch (const std::exception&) {
    }
  }
  return false;
}

/// Fill each repeat from its first draw and tally the slots into `cr`, in
/// index order.
void reduce(const CellPlan& plan, std::vector<Slot>& slots, CellReport& cr) {
  // Indexed by Outcome.
  static constexpr std::uint64_t TargetTally::*kOutcomeCounts[kNumOutcomes] = {
      &TargetTally::masked,   &TargetTally::corrected, &TargetTally::recovered,
      &TargetTally::detected, &TargetTally::sdc,       &TargetTally::timeout,
      &TargetTally::trap,     &TargetTally::err};
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& s = slots[i];
    if (plan.routes[i] == Route::Repeat) {
      s = slots[plan.first_draw[i]];
      if (s.path != InjectionPath::ImemAnalytic) s.path = InjectionPath::Repeated;
      s.resumed_at = 0;
    }
    TargetTally& tt = cr.targets[static_cast<std::size_t>(s.target)];
    ++tt.injections;
    ++(tt.*kOutcomeCounts[static_cast<std::size_t>(s.outcome)]);
    if (s.outcome == Outcome::Masked && s.latent) ++tt.latent;
    cr.protect.accumulate(s.prot);
    ++cr.paths[static_cast<std::size_t>(s.path)];
    cr.resume_cycles_skipped += s.resumed_at;
    // A lane group that failed twice ran no lanes.
    if (plan.routes[i] == Route::Lane && s.outcome != Outcome::Err) ++cr.batch_lanes;
    if (s.path == InjectionPath::Evicted) ++cr.batch_evictions;
  }
}

/// One forensic replay pair: the fault-free and the faulted run, both
/// hardened and predecoded exactly like a standalone injection, each with a
/// CommitRecorder attached from the fault cycle (cycle 0 for imem faults,
/// which corrupt the program before it starts). Faults apply at the top of
/// their cycle, before that cycle's commits, so starting the window at the
/// fault cycle loses nothing (see resil/forensics.hpp).
DivergenceRecord run_forensic_replay(const PreparedCell& cell, const FaultSpec& spec) {
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
  const std::uint64_t replay_budget = std::min(timeout_budget(cell.golden.cycles),
                                               window.start_cycle + window.window_cycles + 1);
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

/// First-divergence pass: serially replay the SDC/latent slots in
/// injection-index order (deterministic regardless of thread count) up to
/// the replay budget. Candidates past the budget are counted but not
/// replayed, bounding the pass at 2*budget hardened runs.
void replay_forensics(const PreparedCell& cell, const CellPlan& plan,
                      const std::vector<Slot>& slots, int budget, CellReport& cr) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    if (s.outcome != Outcome::Sdc && !(s.outcome == Outcome::Masked && s.latent)) continue;
    ++cr.forensics_candidates;
    if (cr.forensics.size() >= static_cast<std::size_t>(budget)) {
      ++cr.forensics_skipped;
      continue;
    }
    const FaultSpec& spec = plan.specs[i];
    ForensicRecord rec;
    rec.injection = i;
    rec.target = s.target;
    rec.outcome = s.outcome;
    rec.latent = s.latent;
    rec.fault_cycle = spec.target == TargetKind::Imem ? 0 : spec.state.cycle;
    if (!attempt_twice([&] { rec.divergence = run_forensic_replay(cell, spec); })) {
      rec.divergence = DivergenceRecord{};
    }
    cr.forensics.push_back(rec);
  }
}

/// The cell's CampaignOptions::registry counters, in one shard and one merge
/// per cell (the obs::Registry concurrency contract).
void export_cell_metrics(obs::Registry& registry, const CellReport& cr) {
  obs::Registry shard;
  for (int t = 0; t < kNumTargetKinds; ++t) {
    const TargetTally& tt = cr.targets[static_cast<std::size_t>(t)];
    if (tt.injections == 0) continue;
    const char* tn = target_kind_name(static_cast<TargetKind>(t));
    for (const TallyField& f : kTallyFields) {
      if (!f.protection || cr.protected_machine) {
        shard.add(format("resil.%s.%s", tn, f.key), tt.*f.count);
      }
    }
  }
  if (cr.protected_machine) {
    for (const ProtectField& f : kProtectFields) {
      if (f.metric != nullptr) shard.add(f.metric, cr.protect.*f.value);
    }
  }
  for (int p = 0; p < kNumInjectionPaths; ++p) {
    shard.add(format("resil.path.%s", injection_path_name(static_cast<InjectionPath>(p))),
              cr.paths[static_cast<std::size_t>(p)]);
  }
  shard.add("resil.resume.cycles_skipped", cr.resume_cycles_skipped);
  shard.add("resil.snapshot.bytes", cr.snapshot_bytes);
  if (cr.batch_lanes != 0) {
    shard.add("resil.batch.lanes", cr.batch_lanes);
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
  registry.merge(shard);
}

/// Per-cell watchdog expiry (CampaignOptions::cell_timeout_seconds).
/// Distinct from Error so run_campaign can honor keep_going for watchdog
/// hits specifically while configuration errors still abort.
struct CellTimeoutError : Error {
  using Error::Error;
};

/// A cell prepared and planned ahead of its run: its golden run, the
/// protection it runs under and its plan, or in `error` what preparing or
/// planning threw, which the cell's own try rethrows. `cell` is set once
/// prepare succeeded, even when the plan then threw.
struct StagedCell {
  std::optional<PreparedCell> cell;
  mach::Protection prot_cfg;
  CellPlan plan;
  std::exception_ptr error;
};

StagedCell stage_cell(const CampaignOptions& options, const std::string& machine_name,
                      const workloads::Workload& w, report::ModuleCache& modules) {
  StagedCell staged;
  try {
    const PreparedCell& cell = staged.cell.emplace(
        prepare_cell(machine_name, w, modules.get(w), options.superblocks));
    mach::Protection& prot_cfg = staged.prot_cfg = cell.machine().protect;
    if (options.retry_budget_override > 0) prot_cfg.retry_budget = options.retry_budget_override;
    if (options.checkpoint_override > 0) {
      prot_cfg.checkpoint_interval = static_cast<std::uint32_t>(options.checkpoint_override);
    }
    staged.plan = plan_cell(cell, options,
                            mix_seed(options.seed, hash_name(machine_name + "/" + w.name)),
                            options.batch && !prot_cfg.any());
  } catch (...) {
    staged.error = std::current_exception();
  }
  return staged;
}

}  // namespace

CampaignReport run_campaign(const CampaignOptions& options) {
  if (options.injections_per_cell <= 0) {
    throw Error("resil: injections_per_cell must be positive");
  }
  if (options.batch && (options.batch_lanes < 1 || options.batch_lanes > sim::kMaxLanes)) {
    throw Error(format("resil: batch_lanes must be in 1..%d", sim::kMaxLanes));
  }
  if (options.double_bit_permille < 0 || options.double_bit_permille > 1000) {
    throw Error("resil: double_bit_permille must be in 0..1000");
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
  // by every standalone run and every evicted lane's run and
  // classification: resetting it copies the few pages a run wrote instead
  // of the whole image.
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
  std::vector<std::pair<const std::string*, const workloads::Workload*>> cells;
  for (const std::string& machine_name : options.machines) {
    for (const workloads::Workload* w : cell_workloads) cells.emplace_back(&machine_name, w);
  }
  auto stage = [&](std::size_t k) {
    return stage_cell(options, *cells[k].first, *cells[k].second, modules);
  };
  const auto cancelled = [&] { return options.cancel != nullptr && *options.cancel != 0; };
  // Cell k+1, staged on the calling thread while the pool runs cell k.
  std::optional<StagedCell> ahead;

  for (std::size_t k = 0; k < cells.size(); ++k) {
    if (cancelled()) {
      // Cooperative cancellation (SIGINT/SIGTERM): stop at the cell
      // boundary and flush what completed as a truncated report.
      report.truncated = true;
      return report;
    }
    const std::string& machine_name = *cells[k].first;
    const workloads::Workload& w = *cells[k].second;
    CellReport cr;
    cr.machine = machine_name;
    cr.workload = w.name;
    StagedCell staged = ahead ? std::move(*ahead) : stage(k);
    ahead.reset();
    try {
      if (staged.cell) {
        cr.golden_cycles = staged.cell->golden.cycles;
        cr.imem_bits = staged.cell->imem_bits;
        cr.snapshot_bytes = staged.cell->snapshot_bytes();
        cr.protected_machine = staged.prot_cfg.any();
      }
      if (staged.error) std::rethrow_exception(staged.error);
      const PreparedCell& cell = *staged.cell;
      const CellPlan& plan = staged.plan;

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

      std::vector<Slot> slots(plan.specs.size());
      const mach::Protection* cfg = cr.protected_machine ? &staged.prot_cfg : nullptr;
      auto run = [&](std::size_t item) {
        if (!expired() &&
            attempt_twice([&] { run_item(cell, plan, item, cfg, image_for(cell), slots); })) {
          return;
        }
        for (const std::size_t i : plan.injections(item)) {
          slots[i] = Slot{plan.specs[i].target, Outcome::Err, false,
                          plan.routes[i] == Route::Lane ? InjectionPath::BatchedInDiff
                                                        : InjectionPath::Scalar};
        }
      };
      // The calling thread would only wait for the pool: it stages the next
      // cell meanwhile, after the last item under --serial (see
      // run_campaign in campaign.hpp for why not on a worker).
      auto stage_next = [&] {
        if (k + 1 < cells.size() && !cancelled()) ahead = stage(k + 1);
      };
      support::parallel_for(pool ? &*pool : nullptr, plan.items.size(), run, stage_next);
      if (cell_expired.load(std::memory_order_relaxed)) {
        throw CellTimeoutError(format("cell watchdog expired after %.1fs (%s/%s)",
                                      options.cell_timeout_seconds, machine_name.c_str(),
                                      w.name.c_str()));
      }

      reduce(plan, slots, cr);
      if (options.forensics) {
        replay_forensics(cell, plan, slots, options.effective_forensics_budget(), cr);
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
    if (options.registry != nullptr) export_cell_metrics(*options.registry, cr);
    report.cells.push_back(std::move(cr));
  }
  return report;
}

}  // namespace ttsc::resil
