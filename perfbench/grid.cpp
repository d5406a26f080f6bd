// Workload "grid": the paper's 13 machines x 8 workloads (Tables II-IV).
//
// A rep is one report::ParallelRunner sweep with a fresh module cache, so
// every rep pays the front end, optimizer, backend and simulator for all
// 104 cells. The inputs are fixed; the seed is ignored. The grid injects no
// faults, so it is the workload on which a campaign-only change must show
// no change.
#include <map>
#include <utility>

#include "bench.hpp"
#include "layers.hpp"
#include "mach/configs.hpp"
#include "report/parallel_runner.hpp"
#include "support/strings.hpp"

namespace ttsc::perf {
namespace {

struct CellFacts {
  std::uint64_t cycles = 0;
  std::uint64_t image_bits = 0;
};

class Grid final : public Workload {
 public:
  explicit Grid(const Config& config) : threads_(config.threads), machines_(mach::all_machines()) {}

  void setup(Spans& spans) override {
    {
      auto span = spans.scope("ir.interp_s");
      for (const workloads::Workload& w : workloads::all_workloads()) report::run_golden(w);
    }
    rep();  // warm-up sweep: first-use allocations land here, not in rep 1
  }

  Rep rep() override {
    report::ParallelRunner::Options options;
    options.threads = threads_;
    options.keep_going = true;
    const auto t0 = Clock::now();
    const report::Matrix matrix = [&] {
      report::ParallelRunner runner(options);
      return runner.run();
    }();
    Rep r;
    r.seconds = since(t0);

    std::uint64_t target_cycles = 0;
    std::uint64_t image_bits = 0;
    std::uint64_t model_cycles[3] = {0, 0, 0};
    for (const workloads::Workload& w : workloads::all_workloads()) {
      // Every cell of a workload reports the one shared module build.
      const report::RunOutcome& first = matrix.machines().front().by_workload.at(w.name);
      r.busy_s += first.stage_seconds.frontend + first.stage_seconds.opt;
    }
    for (const report::MachineResults& mr : matrix.machines()) {
      for (const workloads::Workload& w : workloads::all_workloads()) {
        const report::RunOutcome& out = mr.by_workload.at(w.name);
        ++r.attempted;
        const report::GoldenOutcome golden = report::run_golden(w);
        if (!out.ok || out.ret != golden.ret || out.output_checksum != golden.output_checksum) {
          ++r.failed;
          const char* why = out.ok ? "differs from the IR interpreter" : out.error.c_str();
          r.errors.push_back(
              format("grid %s/%s: %s", out.machine.c_str(), w.name.c_str(), why));
          continue;
        }
        target_cycles += out.cycles;
        image_bits += out.image_bits;
        model_cycles[static_cast<int>(mr.machine.model)] += out.cycles;
        const support::StageSeconds& st = out.stage_seconds;
        const double cell_s = st.regalloc + st.schedule + st.predecode + st.simulate;
        r.busy_s += cell_s;
        if (cell_s > r.cell_s_max) r.cell_s_max = cell_s;
        cells_[{mr.machine.name, w.name}] = CellFacts{out.cycles, out.image_bits};
      }
    }
    r.work["cells"] = r.attempted;
    r.work["target_cycles"] = target_cycles;
    r.work["image_bits"] = image_bits;
    for (int m = 0; m < 3; ++m) r.work[std::string("cycles.") + kModelNames[m]] = model_cycles[m];
    target_cycles_ = target_cycles;
    return r;
  }

  Mirror mirror(Spans& spans) override {
    Mirror out;
    EngineTally engine;
    std::uint64_t ir_instrs = 0;
    std::uint64_t spills = 0;
    for (const workloads::Workload& w : workloads::all_workloads()) {
      const ir::Module optimized = build_module(w, spans);
      ir_instrs += optimized.function(workloads::entry_point()).num_instrs();
      const report::GoldenOutcome golden = report::run_golden(w);
      for (const mach::Machine& machine : machines_) {
        auto cell = spans.scope("report.cell_s");
        const Compiled c = compile(optimized, machine, spans, /*table_stats=*/true);
        spills += static_cast<std::uint64_t>(c.spills);
        ir::Memory mem = report::make_loaded_memory(c.module);
        sim::ExecStatus status = sim::ExecStatus::Ok;
        std::uint64_t cycles = 0;
        std::uint32_t ret = 0;
        c.visit([&](const auto& program) {
          using E = Engine<std::decay_t<decltype(program)>>;
          std::shared_ptr<const typename E::Pre> pre;
          {
            auto span = spans.scope("sim.predecode_s");
            pre = predecode(program, machine);
          }
          auto span = spans.scope(E::kRunSpan);
          const typename E::Result r = run_engine(program, machine, std::move(pre), mem, {});
          engine.add(E::kModel, r.cycles, span.close());
          status = r.status;
          cycles = r.cycles;
          ret = r.ret;
        });
        const std::uint64_t checksum = report::workload_output_checksum(c.module, w, mem);
        const auto it = cells_.find({machine.name, w.name});
        if (status != sim::ExecStatus::Ok || ret != golden.ret ||
            checksum != golden.output_checksum) {
          out.errors.push_back(format("mirror %s/%s: differs from the IR interpreter",
                                      machine.name.c_str(), w.name.c_str()));
        } else if (it == cells_.end() || it->second.cycles != cycles ||
                   it->second.image_bits != c.image_bits) {
          out.errors.push_back(format("mirror %s/%s: cycles or image bits differ from the sweep",
                                      machine.name.c_str(), w.name.c_str()));
        }
      }
    }
    out.counts["opt.ir_instrs"] = ir_instrs;
    out.counts["codegen.spills"] = spills;
    engine.export_to(out);
    return out;
  }

  std::map<std::string, double> extras(double rep_s) const override {
    return {{"sim_cycles_per_s", static_cast<double>(target_cycles_) / rep_s}};
  }

 private:
  int threads_;
  std::vector<mach::Machine> machines_;
  /// Per-cell results of the last rep, which the mirror must reproduce.
  std::map<std::pair<std::string, std::string>, CellFacts> cells_;
  std::uint64_t target_cycles_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_grid(const Config& config) { return std::make_unique<Grid>(config); }

}  // namespace ttsc::perf
