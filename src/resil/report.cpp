// The campaign report's tallies and its renderings: the AVF,
// protection-efficiency and forensics text tables and the
// "ttsc-resil-report" JSON.
#include <algorithm>
#include <fstream>

#include "fpga/model.hpp"
#include "mach/configs.hpp"
#include "obs/json.hpp"
#include "resil/campaign.hpp"
#include "support/strings.hpp"

namespace ttsc::resil {

namespace {

void write_tally(obs::JsonWriter& w, const TargetTally& t, bool protection) {
  w.begin_object();
  // Protection outcome keys only in protected campaigns: unprotected
  // reports stay byte-identical to earlier schema revisions.
  for (const TallyField& f : kTallyFields) {
    if (f.protection && !protection) continue;
    w.key(f.key);
    w.value(t.*f.count);
  }
  w.end_object();
}

void write_forensics(obs::JsonWriter& w, const CellReport& c) {
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

}  // namespace

double TargetTally::vuln_pct() const {
  return injections == 0
             ? 0.0
             : 100.0 * static_cast<double>(vulnerable()) / static_cast<double>(injections);
}

void TargetTally::accumulate(const TargetTally& other) {
  for (const TallyField& f : kTallyFields) this->*f.count += other.*f.count;
}

bool ProtectStats::any() const {
  return std::any_of(std::begin(kProtectFields), std::end(kProtectFields),
                     [&](const ProtectField& f) { return this->*f.value != 0; });
}

void ProtectStats::accumulate(const ProtectStats& other) {
  for (const ProtectField& f : kProtectFields) {
    std::uint64_t& into = this->*f.value;
    into = f.metric != nullptr ? into + other.*f.value : std::max(into, other.*f.value);
  }
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

std::string render_resilience(const CampaignReport& report) {
  // Protected campaigns widen the machine column ("+profile" suffixes) and
  // add the three protection outcome columns. corr/recov end with the
  // golden outcome; detect is the safe detected-unrecoverable stop — none
  // count as vulnerable.
  const bool prot = report.protection;
  const int machine_width = prot ? 16 : 10;
  std::string out = format(
      "SEU resilience (AVF-style): %d %sinjections per cell, seed 0x%llx.\n"
      "Targets: rf = register-file bits, fu-result = TTA result/bypass registers,\n"
      "guard = predicate registers, imem = instruction encodings (through the\n"
      "decoder). %svuln%% = (sdc + timeout + trap) / injections.\n\n",
      report.injections_per_cell, prot ? "" : "single-bit ",
      static_cast<unsigned long long>(report.seed),
      prot ? "corr = code-corrected, recov = rollback-recovered, detect =\n"
             "detected-unrecoverable stop. "
           : "");
  const auto columns = [&](auto&& cell) {
    for (const TallyField& f : kTallyFields) {
      if (f.column != nullptr && (prot || !f.protection)) cell(f, prot ? f.protected_width : 8);
    }
  };
  out += format("%-*s %-9s %-10s", machine_width, "machine", "workload", "target");
  columns([&](const TallyField& f, int width) { out += format(" %*s", width, f.column); });
  out += format(" %7s\n", "vuln%");
  auto row = [&](const CellReport& c, const char* name, const TargetTally& t, bool lead) {
    out += format("%-*s %-9s %-10s", machine_width, lead ? c.machine.c_str() : "",
                  lead ? c.workload.c_str() : "", name);
    columns([&](const TallyField& f, int width) {
      out += format(" %*llu", width, static_cast<unsigned long long>(t.*f.count));
    });
    out += format(" %7.1f\n", t.vuln_pct());
  };
  for (const CellReport& c : report.cells) {
    if (!c.ok) {
      out += format("%-*s %-9s ERR: %s\n", machine_width, c.machine.c_str(), c.workload.c_str(),
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
    const double vuln = c.total().vuln_pct();
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
    const double base_vuln = base->total().vuln_pct();
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
        for (const ProtectField& f : kProtectFields) {
          w.key(f.key);
          w.value(c.protect.*f.value);
        }
        w.end_object();
      }
      // Per-cell forensics only when the campaign ran with forensics on:
      // forensics-off reports stay byte-identical to the pre-forensics
      // schema (the existing resil_smoke.json golden depends on it).
      if (report.forensics) {
        w.key("forensics");
        write_forensics(w, c);
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
