#include "report/experiments.hpp"

#include <algorithm>

#include "mach/configs.hpp"
#include "report/module_cache.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace ttsc::report {

namespace {

const std::vector<std::string> kOneIssue = {"mblaze-3", "mblaze-5", "m-tta-1"};
const std::vector<std::string> kTwoIssue = {"m-vliw-2", "p-vliw-2", "m-tta-2", "p-tta-2",
                                            "bm-tta-2"};
const std::vector<std::string> kThreeIssue = {"m-vliw-3", "p-vliw-3", "m-tta-3", "p-tta-3",
                                              "bm-tta-3"};

std::string header_row(const std::vector<std::string>& workloads) {
  std::string out = format("%-10s %-11s", "machine", "instr.width");
  for (const std::string& w : workloads) out += format(" %9s", w.c_str());
  return out + "\n";
}

}  // namespace

Matrix Matrix::run(const sim::SimOptions& sim_options, obs::Registry* metrics, bool keep_going,
                   const opt::SuperblockOptions* superblocks) {
  ModuleCache cache;
  return sweep(cache, nullptr, mach::all_machines(), workloads::all_workloads(), {}, sim_options,
               metrics, keep_going, superblocks);
}

Matrix Matrix::sweep(ModuleCache& cache, support::ThreadPool* pool,
                     const std::vector<mach::Machine>& machines,
                     const std::vector<workloads::Workload>& workloads,
                     const tta::TtaOptions& tta_options, const sim::SimOptions& sim_options,
                     obs::Registry* metrics, bool keep_going,
                     const opt::SuperblockOptions* superblocks) {
  Matrix m;
  for (const workloads::Workload& w : workloads) m.workload_names_.push_back(w.name);
  const std::size_t builds_before = cache.builds();
  sim::SimOptions sim = sim_options;
  sim.observer = nullptr;  // per-run state: never shared across cells

  const std::size_t cols = workloads.size();
  std::vector<RunOutcome> outcomes(machines.size() * cols);
  support::parallel_for(pool, outcomes.size(), [&](std::size_t i) {
    const mach::Machine& machine = machines[i / cols];
    const workloads::Workload& w = workloads[i % cols];
    try {
      support::StageSeconds build_times;
      const ir::Module& optimized = cache.get(w, &build_times, metrics);
      outcomes[i] =
          compile_and_run_prebuilt(optimized, w, machine, tta_options, sim, metrics, superblocks);
      outcomes[i].stage_seconds.frontend = build_times.frontend;
      outcomes[i].stage_seconds.opt = build_times.opt;
    } catch (const std::exception& e) {
      if (!keep_going) throw;
      RunOutcome& failed = outcomes[i];
      failed.machine = machine.name;
      failed.workload = w.name;
      failed.ok = false;
      failed.error = e.what();
    }
  });
  m.modules_built_ = cache.builds() - builds_before;

  // Deterministic reduction: machine-major, workloads in the given order.
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    MachineResults r;
    r.machine = machines[mi];
    r.area = fpga::estimate_area(machines[mi]);
    r.timing = fpga::estimate_timing(machines[mi]);
    for (std::size_t wi = 0; wi < cols; ++wi) {
      r.by_workload[workloads[wi].name] = std::move(outcomes[mi * cols + wi]);
    }
    m.machines_.push_back(std::move(r));
  }
  return m;
}

std::vector<const RunOutcome*> Matrix::failures() const {
  std::vector<const RunOutcome*> out;
  for (const MachineResults& r : machines_) {
    for (const std::string& w : workload_names_) {
      auto it = r.by_workload.find(w);
      if (it != r.by_workload.end() && !it->second.ok) out.push_back(&it->second);
    }
  }
  return out;
}

const MachineResults& Matrix::machine(const std::string& name) const {
  for (const MachineResults& r : machines_) {
    if (r.machine.name == name) return r;
  }
  throw Error("matrix: unknown machine " + name);
}

std::uint64_t Matrix::cycles(const std::string& machine_name,
                             const std::string& workload) const {
  return machine(machine_name).by_workload.at(workload).cycles;
}

double Matrix::runtime_us(const std::string& machine_name, const std::string& workload) const {
  const MachineResults& r = machine(machine_name);
  return static_cast<double>(r.by_workload.at(workload).cycles) / r.timing.fmax_mhz;
}

std::string render_table2_program_size(const Matrix& m) {
  std::string out =
      "TABLE II equivalent: instruction widths and total program image sizes,\n"
      "relative to MicroBlaze (1-issue group) and to m-vliw-2/3 (multi-issue groups).\n\n";

  auto group = [&](const std::vector<std::string>& names, const std::string& base,
                   const std::string& title) {
    out += title + "\n" + header_row(m.workload_names());
    const MachineResults& baseline = m.machine(base);
    for (const std::string& name : names) {
      const MachineResults& r = m.machine(name);
      const RunOutcome& first = r.by_workload.at(m.workload_names().front());
      const RunOutcome& base_first = baseline.by_workload.at(m.workload_names().front());
      std::string row;
      if (!first.ok || !base_first.ok) {
        row = format("%-10s %12s", name.c_str(), "ERR");
      } else {
        row = format("%-10s %3db (%.2fx)", name.c_str(), first.instruction_bits,
                     static_cast<double>(first.instruction_bits) / base_first.instruction_bits);
      }
      for (const std::string& w : m.workload_names()) {
        const RunOutcome& cell = r.by_workload.at(w);
        const RunOutcome& base_cell = baseline.by_workload.at(w);
        if (!cell.ok || (name != base && !base_cell.ok)) {
          row += format(" %9s ", "ERR");
          continue;
        }
        const double bits = static_cast<double>(cell.image_bits);
        if (name == base) {
          row += format(" %8.0fkb", bits / 1000.0);
        } else {
          row += format(" %8.2fx ", bits / static_cast<double>(base_cell.image_bits));
        }
      }
      out += row + "\n";
    }
    out += "\n";
  };

  group(kOneIssue, "mblaze-3", "-- 1-issue --");
  group(kTwoIssue, "m-vliw-2", "-- 2-issue --");
  group(kThreeIssue, "m-vliw-3", "-- 3-issue --");
  return out;
}

std::string render_table3_synthesis(const Matrix& m) {
  std::string out =
      "TABLE III equivalent: modelled FPGA resource usage and fmax\n"
      "(analytical Zynq Z7020 model; see DESIGN.md for the substitution).\n\n";
  out += format("%-10s %3s %3s %6s %8s %8s %8s %8s %8s %6s\n", "machine", "rdP", "wrP", "fmax",
                "coreLUT", "rfLUT", "lutRAM", "icLUT", "FF", "DSP");
  for (const MachineResults& r : m.machines()) {
    int read_ports = 0;
    int write_ports = 0;
    for (const mach::RegisterFile& rf : r.machine.rfs) {
      read_ports = std::max(read_ports, rf.read_ports);
      write_ports = std::max(write_ports, rf.write_ports);
    }
    out += format("%-10s %3d %3d %6.0f %8d %8d %8d %8d %8d %6d\n", r.machine.name.c_str(),
                  read_ports, write_ports, r.timing.fmax_mhz, r.area.core_lut, r.area.rf_lut,
                  r.area.rf_lut_as_ram, r.area.ic_lut, r.area.ff, r.area.dsp);
  }
  return out;
}

std::string render_table4_cycles(const Matrix& m) {
  std::string out =
      "TABLE IV equivalent: instruction cycle counts (absolute for the\n"
      "baselines, relative for the alternatives).\n\n";

  auto group = [&](const std::vector<std::string>& names, const std::string& base,
                   const std::string& title) {
    out += title + "\n";
    out += format("%-10s", "machine");
    for (const std::string& w : m.workload_names()) out += format(" %9s", w.c_str());
    out += "\n";
    const MachineResults& baseline = m.machine(base);
    for (const std::string& name : names) {
      const MachineResults& r = m.machine(name);
      out += format("%-10s", name.c_str());
      for (const std::string& w : m.workload_names()) {
        const RunOutcome& cell = r.by_workload.at(w);
        const RunOutcome& base_cell = baseline.by_workload.at(w);
        if (!cell.ok || (name != base && !base_cell.ok)) {
          out += format(" %9s", "ERR");
        } else if (name == base) {
          out += format(" %9llu", static_cast<unsigned long long>(cell.cycles));
        } else {
          out += format(" %8.2fx",
                        static_cast<double>(cell.cycles) / static_cast<double>(base_cell.cycles));
        }
      }
      out += "\n";
    }
    out += "\n";
  };

  group(kOneIssue, "mblaze-3", "-- 1-issue (baseline mblaze-3) --");
  group(kTwoIssue, "m-vliw-2", "-- 2-issue (baseline m-vliw-2) --");
  group(kThreeIssue, "m-vliw-3", "-- 3-issue (baseline m-vliw-3) --");
  return out;
}

std::string render_fig5_runtime(const Matrix& m) {
  std::string out =
      "FIG. 5 equivalent: execution times at modelled max clock frequency,\n"
      "normalized to mblaze-3 (1-issue) and m-vliw-2/3 (multi-issue).\n\n";

  auto group = [&](const std::vector<std::string>& names, const std::string& base,
                   const std::string& title) {
    out += title + "\n";
    out += format("%-10s", "machine");
    for (const std::string& w : m.workload_names()) out += format(" %9s", w.c_str());
    out += "\n";
    const MachineResults& baseline = m.machine(base);
    for (const std::string& name : names) {
      const MachineResults& r = m.machine(name);
      out += format("%-10s", name.c_str());
      for (const std::string& w : m.workload_names()) {
        if (!r.by_workload.at(w).ok || !baseline.by_workload.at(w).ok) {
          out += format(" %9s", "ERR");
        } else {
          out += format(" %9.2f", m.runtime_us(name, w) / m.runtime_us(base, w));
        }
      }
      out += "\n";
    }
    out += "\n";
  };

  group(kOneIssue, "mblaze-3", "-- 1-issue, normalized to mblaze-3 --");
  group(kTwoIssue, "m-vliw-2", "-- 2-issue, normalized to m-vliw-2 --");
  group(kThreeIssue, "m-vliw-3", "-- 3-issue, normalized to m-vliw-3 --");
  return out;
}

std::string render_fig6_efficiency(const Matrix& m) {
  std::string out =
      "FIG. 6 equivalent: slice utilization vs overall execution time\n"
      "(geometric mean over the benchmark suite, normalized to m-tta-1).\n\n";
  // Geomean runtime per machine. Machines with any failed cell are left out
  // of `geo` and render as ERR below (and are dropped from the scatter).
  std::map<std::string, double> geo;
  for (const MachineResults& r : m.machines()) {
    std::vector<double> times;
    bool ok = true;
    for (const std::string& w : m.workload_names()) {
      if (!r.by_workload.at(w).ok) {
        ok = false;
        break;
      }
      times.push_back(m.runtime_us(r.machine.name, w));
    }
    if (ok) geo[r.machine.name] = geomean(times);
  }
  const double base = geo.count("m-tta-1") != 0 ? geo.at("m-tta-1") : 1.0;
  out += format("%-10s %8s %12s\n", "machine", "slices", "rel.runtime");
  for (const MachineResults& r : m.machines()) {
    if (geo.count(r.machine.name) == 0) {
      out += format("%-10s %8d %12s\n", r.machine.name.c_str(), r.area.slices, "ERR");
    } else {
      out += format("%-10s %8d %12.3f\n", r.machine.name.c_str(), r.area.slices,
                    geo.at(r.machine.name) / base);
    }
  }

  // Coarse ASCII scatter so the "figure" reads as one.
  out += "\nscatter (x = slices, y = relative runtime):\n";
  constexpr int kW = 64;
  constexpr int kH = 16;
  int max_slices = 1;
  double max_rt = 0.0;
  for (const MachineResults& r : m.machines()) {
    if (geo.count(r.machine.name) == 0) continue;
    max_slices = std::max(max_slices, r.area.slices);
    max_rt = std::max(max_rt, geo.at(r.machine.name) / base);
  }
  if (max_rt <= 0.0) max_rt = 1.0;
  std::vector<std::string> grid(kH, std::string(kW, ' '));
  char label = 'a';
  std::string legend;
  for (const MachineResults& r : m.machines()) {
    if (geo.count(r.machine.name) == 0) continue;
    const int x = std::min(kW - 1, static_cast<int>(r.area.slices * (kW - 1.0) / max_slices));
    const int y = std::min(
        kH - 1, static_cast<int>(geo.at(r.machine.name) / base * (kH - 1.0) / max_rt));
    grid[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = label;
    legend += format("  %c = %s\n", label, r.machine.name.c_str());
    ++label;
  }
  for (const std::string& row : grid) out += "|" + row + "\n";
  out += "+" + std::string(kW, '-') + "\n" + legend;
  return out;
}

std::string render_ablation_tta_freedoms() {
  std::string out =
      "ABLATION A1: contribution of each TTA scheduling freedom (cycles,\n"
      "relative to all freedoms enabled) on the TTA machines.\n\n";
  const std::vector<std::string> machines = {"m-tta-1", "m-tta-2", "p-tta-2", "m-tta-3"};
  struct Variant {
    const char* name;
    tta::TtaOptions opt;
  };
  std::vector<Variant> variants;
  variants.push_back({"all-on", tta::TtaOptions{}});
  {
    tta::TtaOptions o;
    o.software_bypass = false;
    o.dead_result_elim = false;
    variants.push_back({"no-bypass", o});
  }
  {
    tta::TtaOptions o;
    o.dead_result_elim = false;
    variants.push_back({"no-dre", o});
  }
  {
    tta::TtaOptions o;
    o.operand_share = false;
    variants.push_back({"no-share", o});
  }
  {
    tta::TtaOptions o;
    o.early_control = false;
    variants.push_back({"late-ctrl", o});
  }
  {
    tta::TtaOptions o;
    o.software_bypass = false;
    o.dead_result_elim = false;
    o.operand_share = false;
    o.early_control = false;
    variants.push_back({"all-off", o});
  }

  ModuleCache cache;  // one build per workload across all machine/variant rows
  for (const std::string& mname : machines) {
    const mach::Machine machine = mach::machine_by_name(mname);
    out += "-- " + mname + " --\n";
    out += format("%-10s", "variant");
    for (const workloads::Workload& w : workloads::all_workloads()) {
      out += format(" %9s", w.name.c_str());
    }
    out += "\n";
    std::map<std::string, std::uint64_t> baseline;
    for (const Variant& v : variants) {
      out += format("%-10s", v.name);
      for (const workloads::Workload& w : workloads::all_workloads()) {
        const RunOutcome r =
            compile_and_run_prebuilt(cache.get(w), w, machine, v.opt);
        if (std::string(v.name) == "all-on") {
          baseline[w.name] = r.cycles;
          out += format(" %9llu", static_cast<unsigned long long>(r.cycles));
        } else {
          out += format(" %8.2fx",
                        static_cast<double>(r.cycles) / static_cast<double>(baseline[w.name]));
        }
      }
      out += "\n";
    }
    out += "\n";
  }
  return out;
}

std::string render_ablation_rf_partitioning(const Matrix& m) {
  std::string out =
      "ABLATION A2: register file partitioning (Section III-D) — RF port\n"
      "complexity vs serialization. Cycles, RF LUTs and fmax per machine.\n\n";
  out += format("%-10s %10s %8s %8s %10s\n", "machine", "geo.cycles", "rfLUT", "fmax",
                "geo.runtime");
  for (const MachineResults& r : m.machines()) {
    bool ok = true;
    for (const std::string& w : m.workload_names()) ok = ok && r.by_workload.at(w).ok;
    if (!ok) {
      out += format("%-10s %10s %8d %8.0f %10s\n", r.machine.name.c_str(), "ERR", r.area.rf_lut,
                    r.timing.fmax_mhz, "ERR");
      continue;
    }
    std::vector<double> cyc;
    std::vector<double> rt;
    for (const std::string& w : m.workload_names()) {
      cyc.push_back(static_cast<double>(m.cycles(r.machine.name, w)));
      rt.push_back(m.runtime_us(r.machine.name, w));
    }
    out += format("%-10s %10.0f %8d %8.0f %10.1f\n", r.machine.name.c_str(), geomean(cyc),
                  r.area.rf_lut, r.timing.fmax_mhz, geomean(rt));
  }
  return out;
}

}  // namespace ttsc::report
