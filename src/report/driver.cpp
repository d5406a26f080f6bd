#include "report/driver.hpp"

#include <chrono>
#include <mutex>
#include <optional>

#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "ir/verify.hpp"
#include "obs/trace.hpp"
#include "opt/passes.hpp"
#include "scalar/scalar.hpp"
#include "support/strings.hpp"
#include "tta/binary.hpp"
#include "vliw/vliw.hpp"

namespace ttsc::report {

using workloads::Workload;

ir::Memory make_loaded_memory(const ir::Module& module, std::size_t size) {
  ir::Memory mem(size);
  const ir::DataLayout layout = module.layout();
  for (const ir::Global& g : module.globals()) {
    if (!g.init.empty()) mem.write_block(layout.address_of(g.name), g.init);
  }
  return mem;
}

std::uint64_t workload_output_checksum(const ir::Module& module, const Workload& workload,
                                       const ir::Memory& mem) {
  const ir::DataLayout layout = module.layout();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& name : workload.output_globals) {
    const ir::Global* g = module.find_global(name);
    TTSC_ASSERT(g != nullptr, "workload output global missing: " + name);
    h ^= mem.checksum(layout.address_of(name), g->size);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::uint64_t output_checksum(const ir::Module& module, const Workload& workload,
                              const ir::Memory& mem) {
  return workload_output_checksum(module, workload, mem);
}

/// One pipeline stage, measured once: the stage's trace span (its name and
/// lazy args) and the StageSeconds field `seconds`, written when the scope
/// closes.
class StageScope {
 public:
  template <typename F>
  StageScope(const char* name, double& seconds, F&& args)
      : seconds_(seconds), span_(name, std::forward<F>(args)) {}
  ~StageScope() {
    seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  double& seconds_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  obs::Span span_;
};

/// Per-RF spill breakdown -> "regalloc.spills.rf<i>" counters.
void record_regalloc_metrics(obs::Registry* cell, const codegen::LowerResult& lowered) {
  if (cell == nullptr) return;
  cell->add("regalloc.spill_instrs", static_cast<std::uint64_t>(lowered.spills_inserted));
  cell->add("regalloc.values_spilled", static_cast<std::uint64_t>(lowered.values_spilled));
  for (std::size_t rf = 0; rf < lowered.spilled_per_rf.size(); ++rf) {
    if (lowered.spilled_per_rf[rf] != 0) {
      cell->add(format("regalloc.spills.rf%zu", rf),
                static_cast<std::uint64_t>(lowered.spilled_per_rf[rf]));
    }
  }
}

/// Move-slot / NOP density of a TTA program: filled bus slots (a wide
/// immediate fills its extension slot too) against instrs * buses capacity.
void record_tta_density(obs::Registry* cell, const tta::TtaProgram& prog,
                        const mach::Machine& machine) {
  if (cell == nullptr) return;
  std::uint64_t filled = 0;
  for (const tta::TtaInstruction& in : prog.instrs) {
    filled += in.moves.size();
    for (const tta::Move& mv : in.moves) {
      if (mv.long_imm) ++filled;
    }
  }
  const std::uint64_t capacity = prog.instrs.size() * machine.buses.size();
  cell->add("tta.schedule.slots_filled", filled);
  cell->add("tta.schedule.slot_capacity", capacity);
  cell->add("tta.schedule.nop_slots", capacity - filled);
}

}  // namespace

GoldenOutcome run_golden(const Workload& workload) {
  // Workloads are deterministic; memoize (the driver cross-checks every
  // machine run against the golden outcome). The cache is shared by every
  // thread of a parallel sweep; a workload interpreted concurrently by two
  // threads is computed twice but stored consistently.
  static std::mutex cache_mutex;
  static std::map<std::string, GoldenOutcome> cache;
  {
    std::lock_guard<std::mutex> lock(cache_mutex);
    auto it = cache.find(workload.name);
    if (it != cache.end()) return it->second;
  }
  ir::Module module;
  workload.build(module);
  ir::verify(module);
  ir::Interpreter interp(module);
  const ir::Interpreter::Result r = interp.run(workloads::entry_point(), {});
  GoldenOutcome out;
  out.ret = r.value;
  out.instrs_executed = r.instrs_executed;
  out.output_checksum = output_checksum(module, workload, interp.memory());
  std::lock_guard<std::mutex> lock(cache_mutex);
  cache[workload.name] = out;
  return out;
}

ir::Module build_optimized(const Workload& workload, support::StageSeconds* build_times,
                           obs::Registry* metrics) {
  support::StageSeconds times;
  ir::Module module;
  {
    StageScope stage("frontend", times.frontend,
                     [&] { return obs::SpanArgs{{"workload", workload.name}}; });
    workload.build(module);
    ir::verify(module);
  }
  {
    StageScope stage("opt", times.opt,
                     [] { return obs::SpanArgs{{"root", workloads::entry_point()}}; });
    opt::optimize(module, workloads::entry_point(), {}, metrics);
  }
  if (build_times != nullptr) *build_times = times;
  return module;
}

Backend compile_backend(const ir::Module& optimized, const Workload& workload,
                        const mach::Machine& machine, const tta::TtaOptions& tta_options,
                        obs::Registry* metrics, const opt::ProfileData* profile,
                        const opt::SuperblockOptions& sb_options) {
  const auto stage_args = [&] {
    return obs::SpanArgs{{"machine", machine.name}, {"workload", workload.name}};
  };
  RunOutcome out;
  out.machine = machine.name;
  out.workload = workload.name;

  // Backend-specific IR preparation on a copy of the shared optimized
  // module: the scalar model legalizes RISC operand constraints.
  // (opt::if_convert is deliberately NOT applied: without hardware
  // predication the 4-op select expansion costs more than the branch it
  // removes on every machine here — see bench/ablation_tta_freedoms.)
  std::optional<StageScope> stage;
  stage.emplace("regalloc", out.stage_seconds.regalloc, stage_args);
  ir::Module module = optimized;
  ir::Function& entry = module.function(workloads::entry_point());
  if (machine.model == mach::Model::Tta && machine.has_guards()) {
    // Guarded TTAs predicate short conditionals: if-convert to Select ops,
    // which the scheduler lowers to guarded moves (one conditional
    // transport per merged value instead of 4-op mask arithmetic).
    opt::if_convert_selects(entry);
  } else {
    codegen::expand_selects(entry);
  }

  // Profile-guided superblock formation: the phase-2 module has gone
  // through exactly the transforms the profiled phase-1 module did, so the
  // profile's block ids refer to this function's current blocks.
  opt::SuperblockPlan plan;
  if (profile != nullptr) plan = opt::form_superblocks(entry, *profile, sb_options);
  const opt::SuperblockPlan* sched_plan = plan.formed > 0 ? &plan : nullptr;

  if (machine.model == mach::Model::Scalar) codegen::legalize_scalar_operands(entry);
  const codegen::LowerResult lowered = codegen::lower(module, workloads::entry_point(), machine);
  out.spills = lowered.spills_inserted;
  stage.reset();
  record_regalloc_metrics(metrics, lowered);

  // The one per-model step: schedule or emit, with the model's static facts
  // and scheduler counters. Predecoding (the engine) follows in its own
  // stage.
  stage.emplace("schedule", out.stage_seconds.schedule, stage_args);
  std::optional<sim::Engine> engine;
  const auto predecode = [&](auto program) {
    stage.emplace("predecode", out.stage_seconds.predecode, stage_args);
    engine.emplace(machine, std::move(program));
    stage.reset();
  };
  switch (machine.model) {
    case mach::Model::Scalar: {
      scalar::ScalarProgram prog = scalar::emit_scalar(lowered.func);
      out.instruction_bits = scalar::ScalarProgram::kInstrBits;
      out.instruction_count = prog.code_words(machine.scalar);
      out.image_bits = prog.image_bits(machine.scalar);
      obs::add(metrics, "scalar.emit.words", out.instruction_count);
      predecode(std::move(prog));
      break;
    }
    case mach::Model::Vliw: {
      vliw::ScheduleStats stats;
      vliw::VliwProgram prog = vliw::schedule_vliw(lowered.func, machine, &stats, sched_plan);
      out.instruction_bits = vliw::instruction_bits(machine);
      out.instruction_count = prog.num_bundles();
      out.image_bits = vliw::image_bits(prog, machine);
      const std::uint64_t capacity = stats.bundles * static_cast<std::uint64_t>(prog.num_slots);
      obs::add(metrics, "vliw.schedule.bundles", stats.bundles);
      obs::add(metrics, "vliw.schedule.ops", stats.ops);
      obs::add(metrics, "vliw.schedule.slot_capacity", capacity);
      obs::add(metrics, "vliw.schedule.nop_slots", capacity - stats.ops);
      obs::add(metrics, "vliw.schedule.fail.rf_read_port", stats.fail_rf_read_port);
      obs::add(metrics, "vliw.schedule.fail.rf_write_port", stats.fail_rf_write_port);
      obs::add(metrics, "vliw.schedule.fail.no_slot", stats.fail_no_slot);
      obs::add(metrics, "vliw.schedule.fail.wide_imm", stats.fail_wide_imm);
      predecode(std::move(prog));
      break;
    }
    case mach::Model::Tta: {
      tta::TtaScheduleStats stats;
      tta::TtaProgram prog =
          tta::schedule_tta(lowered.func, machine, tta_options, &stats, sched_plan);
      out.instruction_bits = tta::instruction_bits(machine);
      out.instruction_count = prog.instrs.size();
      // Image size from the real binary encoder (instruction stream plus
      // the literal pool holding wide constants and far branch targets).
      out.image_bits = tta::encode_program(prog, machine).image_bits();
      out.moves = stats.moves;
      out.bypassed_operands = stats.bypassed_operands;
      out.eliminated_result_moves = stats.eliminated_result_moves;
      out.shared_operands = stats.shared_operands;
      if (profile != nullptr) {
        obs::add(metrics, "sched.superblock.cross_block_bypass",
                 stats.superblock_cross_block_bypass);
      }
      obs::add(metrics, "tta.schedule.instructions", stats.instructions);
      obs::add(metrics, "tta.schedule.moves", stats.moves);
      obs::add(metrics, "tta.schedule.bypassed_operands", stats.bypassed_operands);
      obs::add(metrics, "tta.schedule.eliminated_result_moves", stats.eliminated_result_moves);
      obs::add(metrics, "tta.schedule.shared_operands", stats.shared_operands);
      obs::add(metrics, "tta.schedule.guarded_selects", stats.guarded_selects);
      obs::add(metrics, "tta.schedule.fail.no_bus", stats.fail_no_bus);
      obs::add(metrics, "tta.schedule.fail.long_imm", stats.fail_long_imm);
      obs::add(metrics, "tta.schedule.fail.rf_read_port", stats.fail_rf_read_port);
      obs::add(metrics, "tta.schedule.fail.rf_write_port", stats.fail_rf_write_port);
      record_tta_density(metrics, prog, machine);
      predecode(std::move(prog));
      break;
    }
  }
  return Backend{std::move(module), std::move(*engine), std::move(plan), std::move(out)};
}

namespace {

/// One full backend compile + simulate of `optimized` on `machine`. When
/// `profile` is given, superblocks are formed along it and the TTA/VLIW
/// schedulers consume the resulting plan; `plan_out` receives the
/// formation plan.
RunOutcome compile_cell(const ir::Module& optimized, const Workload& workload,
                        const mach::Machine& machine, const tta::TtaOptions& tta_options,
                        const sim::SimOptions& sim_options, obs::Registry* metrics,
                        const opt::ProfileData* profile, const opt::SuperblockOptions& sb_options,
                        opt::SuperblockPlan* plan_out) {
  obs::Span cell_span("cell", [&] {
    return obs::SpanArgs{{"machine", machine.name}, {"workload", workload.name}};
  });
  // Cell-local metric shard: every counter below accumulates here and is
  // merged into the shared registry exactly once at cell end (see the
  // obs::Registry concurrency contract).
  obs::Registry cell_metrics;
  Backend backend = compile_backend(optimized, workload, machine, tta_options, &cell_metrics,
                                    profile, sb_options);
  if (plan_out != nullptr) *plan_out = backend.plan;
  RunOutcome out = std::move(backend.outcome);

  // Observer plumbing: optionally attach a per-run utilization collector,
  // teeing with a caller-provided observer when both are requested.
  sim::SimOptions sim_opts = sim_options;
  std::unique_ptr<sim::UtilizationCollector> util;
  sim::TeeObserver tee(nullptr, nullptr);
  if (sim_opts.collect_utilization) {
    util = std::make_unique<sim::UtilizationCollector>(machine);
    if (sim_opts.observer != nullptr) {
      tee = sim::TeeObserver(sim_opts.observer, util.get());
      sim_opts.observer = &tee;
    } else {
      sim_opts.observer = util.get();
    }
  }

  // Cycle-attribution profiler, from the scheduled program's static
  // profile. Collection uses the counts mode (sim::ProfileCounts — two
  // array increments per cycle, no observer dispatch); the profile is
  // derived from the counts after the run, byte-identical to the
  // event-driven prof::CycleProfiler (differentially tested in
  // tests/property_test.cpp).
  std::unique_ptr<prof::StaticProfile> static_prof;
  sim::ProfileCounts prof_counts;
  if (sim_opts.collect_profile) {
    static_prof = std::make_unique<prof::StaticProfile>(backend.engine.visit(
        [&](const auto& program) { return prof::build_static_profile(program, machine); }));
    prof_counts = prof::make_profile_counts(*static_prof);
    sim_opts.profile = &prof_counts;
  }

  ir::Memory mem = make_loaded_memory(backend.module);
  sim::ExecResult r;
  {
    StageScope stage("simulate", out.stage_seconds.simulate, [&] {
      return obs::SpanArgs{{"machine", machine.name}, {"workload", workload.name}};
    });
    r = backend.engine.run(mem, sim_opts);
  }
  const char* model = mach::model_name(machine.model);
  switch (r.status) {
    case sim::ExecStatus::Ok: break;
    case sim::ExecStatus::TimedOut:
      throw Error(format("%s simulation exceeded cycle limit", model));
    case sim::ExecStatus::Trapped: {
      // TTA traps name the move's bus, VLIW traps the slot's FU; scalar
      // traps have no unit (-1).
      const std::string unit =
          r.trap.unit < 0
              ? std::string()
              : format("%s %d, ", machine.model == mach::Model::Tta ? "bus" : "unit", r.trap.unit);
      throw Error(format("%s simulation trapped: %s (%sdetail %u) at cycle %llu", model,
                         sim::trap_reason_name(r.trap.reason), unit.c_str(), r.trap.detail,
                         static_cast<unsigned long long>(r.trap.cycle)));
    }
  }
  out.cycles = r.cycles;
  out.ret = r.ret;
  out.output_checksum = output_checksum(backend.module, workload, mem);
  if (util != nullptr) {
    util->add_cycles(out.cycles);
    out.utilization = util->report();
    out.utilization->export_to(cell_metrics, "sim.");
  }
  if (static_prof != nullptr) {
    // Only Ok runs reach this point (timeouts and traps throw above).
    out.profile =
        prof::derive_profile(*static_prof, prof_counts, out.cycles, sim::ExecStatus::Ok);
    out.profile->export_to(cell_metrics, "prof.");
  }
  out.metrics = cell_metrics.counters();
  if (metrics != nullptr) {
    metrics->merge(cell_metrics);
    metrics->observe("cell.cycles", out.cycles);
    metrics->add("cells.run");
  }

  // Cross-check against the golden model.
  const GoldenOutcome golden = run_golden(workload);
  if (golden.ret != out.ret || golden.output_checksum != out.output_checksum) {
    throw Error(format(
        "backend result diverges from reference: %s on %s (ret %u vs %u, checksum %llx vs %llx)",
        workload.name.c_str(), machine.name.c_str(), out.ret, golden.ret,
        static_cast<unsigned long long>(out.output_checksum),
        static_cast<unsigned long long>(golden.output_checksum)));
  }
  return out;
}

}  // namespace

RunOutcome compile_and_run_prebuilt(const ir::Module& optimized, const Workload& workload,
                                    const mach::Machine& machine,
                                    const tta::TtaOptions& tta_options,
                                    const sim::SimOptions& sim_options,
                                    obs::Registry* metrics,
                                    const opt::SuperblockOptions* superblocks) {
  if (superblocks == nullptr || !superblocks->superblocks) {
    return compile_cell(optimized, workload, machine, tta_options, sim_options, metrics, nullptr,
                        {}, nullptr);
  }

  // Phase 1: the ordinary schedule, run with a block-frequency collector
  // attached (tee'd with any caller observer). Its outcome doubles as the
  // baseline the superblock schedule must beat.
  sim::ProfileCollector collector;
  sim::SimOptions phase1 = sim_options;
  sim::TeeObserver tee(sim_options.observer, &collector);
  phase1.observer = sim_options.observer != nullptr ? static_cast<sim::ExecObserver*>(&tee)
                                                    : static_cast<sim::ExecObserver*>(&collector);
  RunOutcome base =
      compile_cell(optimized, workload, machine, tta_options, phase1, nullptr, nullptr, {}, nullptr);

  // Phase 2: recompile along the measured edge biases and rerun.
  const opt::ProfileData profile = opt::ProfileData::from_collector(collector);
  opt::SuperblockPlan plan;
  RunOutcome sb = compile_cell(optimized, workload, machine, tta_options, sim_options, nullptr,
                               &profile, *superblocks, &plan);

  // Empirical per-cell fallback: adopt the superblock schedule only when it
  // is no worse than the baseline, so no cell can ever regress (a cold-path
  // tail duplicate could otherwise outweigh the hot-path win).
  const bool adopt = sb.cycles <= base.cycles;
  const std::uint64_t base_cycles = base.cycles;
  // The cell ran both phases, so its stage times cover both.
  support::StageSeconds stage_seconds = base.stage_seconds;
  stage_seconds += sb.stage_seconds;
  RunOutcome out = adopt ? std::move(sb) : std::move(base);
  out.baseline_cycles = base_cycles;
  out.stage_seconds = stage_seconds;
  out.superblocks_applied = adopt && plan.formed > 0;
  out.metrics["sched.superblock.formed"] = adopt ? plan.formed : 0;
  out.metrics["sched.superblock.tail_dup_instrs"] = adopt ? plan.tail_dup_instrs : 0;
  // The cross-block counter only exists on adopted TTA cells; pin it to
  // zero everywhere else so superblock sweeps report a stable counter set.
  out.metrics.try_emplace("sched.superblock.cross_block_bypass", 0);
  if (!adopt) out.metrics["sched.superblock.cross_block_bypass"] = 0;
  if (metrics != nullptr) {
    // Merge only the adopted cell's counters (one merge per cell, as the
    // registry contract requires — the discarded phase never lands).
    obs::Registry cell;
    for (const auto& [name, value] : out.metrics) cell.add(name, value);
    metrics->merge(cell);
    metrics->observe("cell.cycles", out.cycles);
    metrics->add("cells.run");
  }
  return out;
}

RunOutcome compile_and_run(const Workload& workload, const mach::Machine& machine,
                           const tta::TtaOptions& tta_options) {
  const ir::Module optimized = build_optimized(workload);
  return compile_and_run_prebuilt(optimized, workload, machine, tta_options);
}

sim::ExecResult replay_with_observer(const Workload& workload, const mach::Machine& machine,
                                     sim::ExecObserver* observer) {
  // The standard pipeline, minus the report plumbing and the golden
  // cross-check: the replayed run's own status IS the result.
  const Backend backend = compile_backend(build_optimized(workload), workload, machine);
  ir::Memory mem = make_loaded_memory(backend.module);
  return backend.engine.run(mem, {.observer = observer});
}

}  // namespace ttsc::report
