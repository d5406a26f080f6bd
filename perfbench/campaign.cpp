// Workloads "campaign" and "campaign-protected": the default
// resil::run_campaign cells (mblaze-3, m-vliw-2, m-tta-2, g-tta-2 x
// blowfish, sha) with the seed from the command line.
//
// "campaign" is batched, 1000 single-bit injections per cell; re-simulating
// instruction-memory (imem) faults dominates it. "campaign-protected" runs
// the same cells as <machine>+full, 250 injections per cell: every
// injection is one full hardened, protected engine run, with no lockstep and
// no imem re-predecode, so lockstep and predecode changes must show no
// change there.
//
// The traced mirror re-does a campaign through public calls only and must
// reproduce run_campaign's tallies exactly, per cell.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "layers.hpp"
#include "mach/configs.hpp"
#include "report/driver.hpp"
#include "resil/campaign.hpp"
#include "resil/inject.hpp"
#include "sim/protect.hpp"
#include "support/strings.hpp"

namespace ttsc::perf {
namespace {

/// Injections per cell of the warm-up campaign run by setup().
constexpr int kWarmupInjections = 32;

const workloads::Workload& workload_named(const std::string& name) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    if (w.name == name) return w;
  }
  throw Error("unknown workload " + name);
}

/// FNV-1a over a byte string (the campaign report digest).
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Engine-run outcome buckets the cross-check compares: a returning run, a
/// timeout, a fail-closed trap, or a protection-detection trap.
enum Bucket { kOk, kTimeout, kTrap, kDetect, kNumBuckets };

template <typename Result>
Bucket bucket_of(const Result& r) {
  switch (r.status) {
    case sim::ExecStatus::Ok: return kOk;
    case sim::ExecStatus::TimedOut: return kTimeout;
    case sim::ExecStatus::Trapped: break;
  }
  return r.trap.reason == sim::TrapReason::ProtectionDetected ? kDetect : kTrap;
}

/// What the mirror did in one cell: the figures cross-checked against the
/// campaign's CellReport, plus per-layer work counts.
struct CellWork {
  std::uint64_t golden_cycles = 0;
  std::uint64_t imem_bits = 0;
  std::uint64_t imem[kNumBuckets] = {0, 0, 0, 0};  // runs per bucket, imem faults
  std::uint64_t state_runs = 0;                    // lockstep lanes or protected runs
  std::uint64_t evictions = 0;
  std::uint64_t detections = 0;
  std::uint64_t corrections = 0;
};

/// Mirror-wide per-layer totals.
struct Totals {
  EngineTally engine;
  std::uint64_t ir_instrs = 0;
  std::uint64_t spills = 0;
  std::uint64_t imem_injections = 0;
  std::uint64_t imem_cycles[kNumBuckets] = {0, 0, 0, 0};
  double imem_run_s = 0.0;
  std::uint64_t lanes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t protected_cycles = 0;
  std::uint64_t detections = 0;
  std::uint64_t corrections = 0;
};

class Campaign final : public Workload {
 public:
  Campaign(const Config& config, bool protected_cells)
      : seed_(config.seed),
        threads_(config.threads),
        protected_(protected_cells),
        injections_(config.injections > 0 ? config.injections : (protected_cells ? 250 : 1000)) {
    const resil::CampaignOptions defaults;
    workloads_ = defaults.workloads;
    for (const std::string& m : defaults.machines) {
      machines_.push_back(protected_cells ? m + "+full" : m);
    }
  }

  void setup(Spans& spans) override {
    {
      auto span = spans.scope("ir.interp_s");
      for (const std::string& name : workloads_) report::run_golden(workload_named(name));
    }
    resil::CampaignOptions warmup = options();
    warmup.injections_per_cell = std::min(injections_, kWarmupInjections);
    resil::run_campaign(warmup);
  }

  Rep rep() override {
    const auto t0 = Clock::now();
    resil::CampaignReport report = resil::run_campaign(options());
    Rep r;
    r.seconds = since(t0);

    const std::string json = resil::render_resil_report_json(report);
    r.attempted = report.cells.size() * static_cast<std::uint64_t>(injections_);
    r.failed = report.infra_failures();
    for (const resil::CellReport& c : report.cells) {
      if (!c.ok) r.errors.push_back(format("campaign %s/%s: %s", c.machine.c_str(),
                                           c.workload.c_str(), c.error.c_str()));
    }
    if (report.cells.size() != machines_.size() * workloads_.size()) {
      r.failed = r.attempted;
      r.errors.push_back("campaign report is missing cells");
    }
    if (first_json_.empty()) {
      first_json_ = json;
    } else if (json != first_json_) {
      r.failed = r.attempted;
      r.errors.push_back("campaign report JSON differs from the first rep's");
    }

    r.work["cells"] = report.cells.size();
    r.work["injections"] = r.attempted;
    r.work["report_digest"] = fnv1a(json);
    r.work["image_bits"] = table_image_bits();
    for (const resil::CellReport& c : report.cells) {
      r.work["target_cycles"] += c.golden_cycles;
      r.work["imem_bits"] += c.imem_bits;
      for (int t = 0; t < resil::kNumTargetKinds; ++t) {
        const resil::TargetTally& tt = c.targets[static_cast<std::size_t>(t)];
        const std::string p = std::string("tally.") +
                              resil::target_kind_name(static_cast<resil::TargetKind>(t)) + ".";
        r.work[p + "injections"] += tt.injections;
        r.work[p + "masked"] += tt.masked;
        r.work[p + "sdc"] += tt.sdc;
        r.work[p + "timeout"] += tt.timeout;
        r.work[p + "trap"] += tt.trap;
        r.work[p + "err"] += tt.err;
        r.work[p + "latent"] += tt.latent;
        if (protected_) {
          r.work[p + "corrected"] += tt.corrected;
          r.work[p + "recovered"] += tt.recovered;
          r.work[p + "detected"] += tt.detected;
        }
      }
    }
    report_ = std::move(report);
    return r;
  }

  Mirror mirror(Spans& spans) override {
    Mirror out;
    Totals totals;
    std::size_t index = 0;
    for (const std::string& machine_name : machines_) {
      for (const std::string& workload_name : workloads_) {
        const CellWork got =
            mirror_cell(machine_name, workload_named(workload_name), spans, totals, out.errors);
        cross_check(got, index++, machine_name + "/" + workload_name, out.errors);
      }
    }
    out.counts["opt.ir_instrs"] = totals.ir_instrs;
    out.counts["codegen.spills"] = totals.spills;
    out.counts["resil.imem.injections"] = totals.imem_injections;
    std::uint64_t imem_cycles = 0;
    for (const std::uint64_t c : totals.imem_cycles) imem_cycles += c;
    out.counts["resil.imem.cycles"] = imem_cycles;
    out.counts["resil.imem.cycles.ok"] = totals.imem_cycles[kOk];
    out.counts["resil.imem.cycles.timeout"] = totals.imem_cycles[kTimeout];
    out.counts["resil.imem.cycles.trap"] = totals.imem_cycles[kTrap];
    out.values["resil.imem.cycles_per_s"] =
        totals.imem_run_s > 0 ? static_cast<double>(imem_cycles) / totals.imem_run_s : 0.0;
    out.counts["sim.lockstep.lanes"] = totals.lanes;
    out.counts["sim.lockstep.evictions"] = totals.evictions;
    out.values["sim.lockstep.eviction_ratio"] =
        totals.lanes > 0 ? static_cast<double>(totals.evictions) / static_cast<double>(totals.lanes)
                         : 0.0;
    out.counts["resil.protected.cycles"] = totals.protected_cycles;
    out.counts["resil.protected.detections"] = totals.detections;
    out.counts["resil.protected.corrections"] = totals.corrections;
    totals.engine.export_to(out);
    return out;
  }

  std::map<std::string, double> extras(double rep_s) const override {
    const double injections =
        static_cast<double>(machines_.size() * workloads_.size()) * injections_;
    return {{"injections_per_s", injections / rep_s}};
  }

 private:
  resil::CampaignOptions options() const {
    resil::CampaignOptions o;
    o.seed = seed_;
    o.injections_per_cell = injections_;
    o.threads = threads_;
    o.machines = machines_;
    o.workloads = workloads_;
    return o;
  }

  /// Table II program image bits of the campaign cells, from the real
  /// encoders (the campaign's imem_bits count its modelled fault surface
  /// instead). Computed once, outside any timed section.
  std::uint64_t table_image_bits() {
    if (image_bits_ == 0) {
      Spans off(false);
      for (const std::string& machine_name : machines_) {
        const mach::Machine machine = mach::machine_by_name(machine_name);
        for (const std::string& name : workloads_) {
          const ir::Module optimized = build_module(workload_named(name), off);
          image_bits_ += compile(optimized, machine, off, /*table_stats=*/true).image_bits;
        }
      }
    }
    return image_bits_;
  }

  /// One campaign cell through public calls: resil::prepare_cell's compile
  /// and golden run, the fault plan, then every injection.
  CellWork mirror_cell(const std::string& machine_name, const workloads::Workload& w, Spans& spans,
                       Totals& totals, std::vector<std::string>& errors) {
    auto cell = spans.scope("resil.cell");
    const mach::Machine machine = mach::machine_by_name(machine_name);
    auto prepare = spans.scope("resil.prepare_s");
    const ir::Module optimized = build_module(w, spans);
    totals.ir_instrs += optimized.function(workloads::entry_point()).num_instrs();
    const Compiled c = compile(optimized, machine, spans, /*table_stats=*/false);
    totals.spills += static_cast<std::uint64_t>(c.spills);
    CellWork cw;
    c.visit([&](const auto& program) {
      cw = mirror_injections(program, c, machine, w, prepare, spans, totals, errors);
    });
    return cw;
  }

  template <typename Program>
  CellWork mirror_injections(const Program& program, const Compiled& c,
                             const mach::Machine& machine, const workloads::Workload& w, Spans::Scope& prepare, Spans& spans,
                             Totals& totals, std::vector<std::string>& errors) {
    using E = Engine<Program>;
    CellWork cw;
    cw.imem_bits = resil::imem_bits(program);
    const ir::Memory initial = report::make_loaded_memory(c.module);
    std::shared_ptr<const typename E::Pre> pre;
    {
      auto span = spans.scope("sim.predecode_s");
      pre = predecode(program, machine);
    }
    ir::Memory golden_mem = initial;
    typename E::Result golden;
    {
      auto span = spans.scope(E::kRunSpan);
      golden = run_engine(program, machine, pre, golden_mem, {});
      totals.engine.add(E::kModel, golden.cycles, span.close());
    }
    const report::GoldenOutcome interp = report::run_golden(w);
    if (golden.status != sim::ExecStatus::Ok || golden.ret != interp.ret ||
        report::workload_output_checksum(c.module, w, golden_mem) != interp.output_checksum) {
      errors.push_back(format("mirror %s/%s: golden run differs from the IR interpreter",
                              machine.name.c_str(), w.name.c_str()));
    }
    cw.golden_cycles = golden.cycles;
    prepare.close();

    const std::size_t n = static_cast<std::size_t>(injections_);
    std::vector<resil::FaultSpec> specs(n);
    std::vector<std::size_t> state_idx;
    std::vector<std::size_t> imem_idx;
    {
      auto span = spans.scope("resil.plan_s");
      const resil::FaultPlan plan(machine, machine.model == mach::Model::Tta, cw.imem_bits,
                                  golden.cycles);
      const std::uint64_t cell_seed =
          resil::mix_seed(seed_, resil::hash_name(machine.name + "/" + w.name));
      for (std::size_t i = 0; i < n; ++i) {
        specs[i] = plan.sample(resil::mix_seed(cell_seed, i));
        (specs[i].target == resil::TargetKind::Imem ? imem_idx : state_idx).push_back(i);
      }
      // run_campaign's lane grouping: state faults sorted by fault cycle.
      std::stable_sort(state_idx.begin(), state_idx.end(), [&](std::size_t a, std::size_t b) {
        return specs[a].state.cycle < specs[b].state.cycle;
      });
    }
    const std::uint64_t budget = resil::timeout_budget(golden.cycles);
    sim::SimOptions hardened;
    hardened.harden = true;

    if (protected_) {
      for (std::size_t i = 0; i < n; ++i) {
        const resil::FaultSpec& spec = specs[i];
        const bool imem = spec.target == resil::TargetKind::Imem;
        auto span = spans.scope(imem ? "resil.protected.imem_s" : "resil.protected.state_s");
        sim::ProtectState prot(machine.protect);
        sim::SimOptions opts = hardened;
        opts.protect = &prot;
        sim::FaultSet faults;
        ir::Memory mem = initial;
        typename E::Result r;
        if (!imem) {
          faults.faults.push_back(spec.state);
          opts.faults = &faults;
          r = run_engine(program, machine, pre, mem, opts, budget);
        } else if (poison_imem(program, spec, prot)) {
          const Program mutated = resil::flip_bit(program, spec.imem_bit);
          r = run_engine(mutated, machine, predecode(mutated, machine), mem, opts, budget);
        } else {
          r = run_engine(program, machine, pre, mem, opts, budget);
        }
        totals.engine.add(E::kModel, r.cycles, span.close());
        totals.protected_cycles += r.cycles;
        if (imem) {
          ++cw.imem[bucket_of(r)];
        } else {
          ++cw.state_runs;
        }
        cw.detections += prot.detections();
        cw.corrections += prot.corrections();
      }
      totals.detections += cw.detections;
      totals.corrections += cw.corrections;
      return cw;
    }

    for (std::size_t begin = 0; begin < state_idx.size(); begin += sim::kMaxLanes) {
      const std::size_t count =
          std::min<std::size_t>(sim::kMaxLanes, state_idx.size() - begin);
      std::vector<sim::FaultSet> lane_faults(count);
      for (std::size_t k = 0; k < count; ++k) {
        lane_faults[k].faults.push_back(specs[state_idx[begin + k]].state);
      }
      auto span = spans.scope("sim.lockstep_s");
      const auto batch =
          E::batch(program, machine, pre, initial, lane_faults, budget, &golden, &golden_mem);
      cw.state_runs += count;
      cw.evictions += batch.evictions;
    }
    totals.lanes += cw.state_runs;
    totals.evictions += cw.evictions;

    for (const std::size_t i : imem_idx) {
      std::optional<Program> mutated;
      {
        auto span = spans.scope("resil.imem.flip_s");
        mutated.emplace(resil::flip_bit(program, specs[i].imem_bit));
      }
      std::shared_ptr<const typename E::Pre> mutated_pre;
      {
        auto span = spans.scope("resil.imem.predecode_s");
        mutated_pre = predecode(*mutated, machine);
      }
      auto span = spans.scope("resil.imem.run_s");
      ir::Memory mem = initial;
      const typename E::Result r =
          run_engine(*mutated, machine, std::move(mutated_pre), mem, hardened, budget);
      const double seconds = span.close();
      totals.engine.add(E::kModel, r.cycles, seconds);
      totals.imem_run_s += seconds;
      const Bucket b = bucket_of(r);
      ++cw.imem[b];
      totals.imem_cycles[b] += r.cycles;
    }
    totals.imem_injections += imem_idx.size();
    return cw;
  }

  /// run_campaign's imem codeword decision for a single-bit flip: poison
  /// the fetch of the corrupted instruction, or report that the flip
  /// escapes the code and the mutated program must run.
  template <typename Program>
  static bool poison_imem(const Program& program, const resil::FaultSpec& spec,
                          sim::ProtectState& prot) {
    if (spec.imem_width != 1) throw Error("mirror: only single-bit imem faults are mirrored");
    const std::uint32_t pc = resil::imem_instr_of_bit(program, spec.imem_bit);
    switch (prot.cfg.imem) {
      case mach::Protection::Code::None: return true;
      case mach::Protection::Code::Parity: prot.poison_imem_detectable(pc); return false;
      case mach::Protection::Code::SecDed: prot.poison_imem_correctable(pc); return false;
    }
    return true;
  }

  void cross_check(const CellWork& got, std::size_t index, const std::string& cell,
                   std::vector<std::string>& errors) const {
    if (!report_ || index >= report_->cells.size() || !report_->cells[index].ok) {
      errors.push_back("mirror " + cell + ": no healthy campaign cell to compare with");
      return;
    }
    const resil::CellReport& c = report_->cells[index];
    const resil::TargetTally& imem = c.targets[static_cast<std::size_t>(resil::TargetKind::Imem)];
    std::uint64_t state_injections = 0;
    for (int t = 0; t < resil::kNumTargetKinds; ++t) {
      if (t != static_cast<int>(resil::TargetKind::Imem)) {
        state_injections += c.targets[static_cast<std::size_t>(t)].injections;
      }
    }
    const std::uint64_t detections = c.protect.rf_detected + c.protect.fu_detected +
                                     c.protect.imem_detected;
    const std::uint64_t corrections = c.protect.rf_corrected + c.protect.guard_corrected +
                                      c.protect.imem_corrected;
    const auto expect = [&](const char* what, std::uint64_t mirror, std::uint64_t campaign) {
      if (mirror != campaign) {
        errors.push_back(format("mirror %s: %s %llu, campaign %llu", cell.c_str(), what,
                                static_cast<unsigned long long>(mirror),
                                static_cast<unsigned long long>(campaign)));
      }
    };
    expect("golden cycles", got.golden_cycles, c.golden_cycles);
    expect("imem bits", got.imem_bits, c.imem_bits);
    expect("imem ok", got.imem[kOk], imem.masked + imem.sdc + imem.corrected);
    expect("imem timeout", got.imem[kTimeout], imem.timeout);
    expect("imem trap", got.imem[kTrap], imem.trap);
    expect("imem detected", got.imem[kDetect], imem.detected + imem.recovered);
    expect("state runs", got.state_runs, state_injections);
    if (!protected_) {
      expect("lockstep lanes", got.state_runs, c.batch_lanes);
      expect("lockstep evictions", got.evictions, c.batch_evictions);
    }
    expect("detections", got.detections, detections);
    expect("corrections", got.corrections, corrections);
  }

  std::uint64_t seed_;
  int threads_;
  bool protected_;
  int injections_;
  std::vector<std::string> machines_;
  std::vector<std::string> workloads_;
  std::uint64_t image_bits_ = 0;
  std::string first_json_;
  /// The last rep's report, which the mirror must reproduce.
  std::optional<resil::CampaignReport> report_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const Config& config, bool protected_cells) {
  return std::make_unique<Campaign>(config, protected_cells);
}

}  // namespace ttsc::perf
