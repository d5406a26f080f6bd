#include "report/run_report.hpp"

#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "support/strings.hpp"

namespace ttsc::report {

namespace {

void write_cell(obs::JsonWriter& w, const RunOutcome& out) {
  w.begin_object();
  // Failed keep-going cells carry only the error; successful cells keep the
  // historical layout byte-for-byte (no "ok"/"error" keys), so existing
  // golden reports stay valid.
  if (!out.ok) {
    w.key("error");
    w.value(out.error);
    w.end_object();
    return;
  }
  w.key("cycles");
  w.value(out.cycles);
  w.key("instruction_count");
  w.value(out.instruction_count);
  w.key("instruction_bits");
  w.value(out.instruction_bits);
  w.key("image_bits");
  w.value(out.image_bits);
  w.key("spills");
  w.value(out.spills);
  w.key("moves");
  w.value(out.moves);
  w.key("bypassed_operands");
  w.value(out.bypassed_operands);
  w.key("eliminated_result_moves");
  w.value(out.eliminated_result_moves);
  w.key("shared_operands");
  w.value(out.shared_operands);
  w.key("output_checksum");
  w.value(format("%016llx", static_cast<unsigned long long>(out.output_checksum)));
  // Two-phase superblock cells report the phase-1 baseline for delta
  // analysis; ordinary cells keep the historical layout byte-for-byte.
  if (out.baseline_cycles != 0) {
    w.key("baseline_cycles");
    w.value(out.baseline_cycles);
    w.key("superblocks_applied");
    w.value(out.superblocks_applied);
  }
  // Profiled cells name their binding resource (the dominant stall cause);
  // unprofiled cells keep the historical layout byte-for-byte.
  if (out.profile.has_value()) {
    w.key("binding");
    w.value(prof::cause_name(out.profile->binding()));
  }
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, v] : out.metrics) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
  w.end_object();
}

void write_machine(obs::JsonWriter& w, const MachineResults& r,
                   const std::vector<std::string>& workload_names) {
  w.begin_object();
  w.key("name");
  w.value(r.machine.name);
  w.key("model");
  w.value(mach::model_name(r.machine.model));
  w.key("area");
  w.begin_object();
  w.key("slices");
  w.value(r.area.slices);
  w.key("core_lut");
  w.value(r.area.core_lut);
  w.key("rf_lut");
  w.value(r.area.rf_lut);
  w.key("rf_lut_as_ram");
  w.value(r.area.rf_lut_as_ram);
  w.key("ic_lut");
  w.value(r.area.ic_lut);
  w.key("fu_lut");
  w.value(r.area.fu_lut);
  w.key("control_lut");
  w.value(r.area.control_lut);
  w.key("ff");
  w.value(r.area.ff);
  w.key("dsp");
  w.value(r.area.dsp);
  w.end_object();
  w.key("timing");
  w.begin_object();
  w.key("critical_path_ns");
  w.value(r.timing.critical_path_ns);
  w.key("fmax_mhz");
  w.value(r.timing.fmax_mhz);
  w.end_object();
  w.key("cells");
  w.begin_object();
  // Suite order (not by_workload's map order) so the document layout is
  // stable even if the map type changes.
  for (const std::string& name : workload_names) {
    auto it = r.by_workload.find(name);
    if (it == r.by_workload.end()) continue;
    w.key(name);
    write_cell(w, it->second);
  }
  w.end_object();
  w.end_object();
}

std::string leaf_text(const obs::JsonValue& v) {
  switch (v.kind) {
    case obs::JsonValue::Kind::Null: return "null";
    case obs::JsonValue::Kind::Bool: return v.boolean ? "true" : "false";
    case obs::JsonValue::Kind::Number: return v.text;
    case obs::JsonValue::Kind::String: return v.text;
    default: return "?";
  }
}

void diff_values(const std::string& path, const obs::JsonValue* a, const obs::JsonValue* b,
                 std::vector<ReportDelta>& out);

void diff_objects(const std::string& path, const obs::JsonValue& a, const obs::JsonValue& b,
                  std::vector<ReportDelta>& out) {
  // Union of member names, in "before" order with "after"-only names
  // appended — member order differences alone are not reported.
  std::vector<std::string> names;
  for (const auto& [k, v] : a.members) names.push_back(k);
  for (const auto& [k, v] : b.members) {
    if (a.find(k) == nullptr) names.push_back(k);
  }
  for (const std::string& k : names) {
    diff_values(path.empty() ? k : path + "." + k, a.find(k), b.find(k), out);
  }
}

/// "machines" arrays are keyed by each element's "name" member so machine
/// reordering is not a semantic difference.
void diff_machine_arrays(const std::string& path, const obs::JsonValue& a,
                         const obs::JsonValue& b, std::vector<ReportDelta>& out) {
  auto by_name = [](const obs::JsonValue& arr) {
    std::vector<std::pair<std::string, const obs::JsonValue*>> entries;
    for (const obs::JsonValue& item : arr.items) {
      const obs::JsonValue* name = item.find("name");
      entries.emplace_back(name != nullptr && name->is_string() ? name->text : "?", &item);
    }
    return entries;
  };
  const auto lhs = by_name(a);
  const auto rhs = by_name(b);
  auto lookup = [](const auto& entries, const std::string& name) -> const obs::JsonValue* {
    for (const auto& [n, v] : entries) {
      if (n == name) return v;
    }
    return nullptr;
  };
  for (const auto& [name, v] : lhs) {
    diff_values(path + "." + name, v, lookup(rhs, name), out);
  }
  for (const auto& [name, v] : rhs) {
    if (lookup(lhs, name) == nullptr) diff_values(path + "." + name, nullptr, v, out);
  }
}

void diff_values(const std::string& path, const obs::JsonValue* a, const obs::JsonValue* b,
                 std::vector<ReportDelta>& out) {
  if (a == nullptr && b == nullptr) return;
  if (a == nullptr || b == nullptr || a->kind != b->kind) {
    out.push_back({path, a == nullptr ? "(absent)" : leaf_text(*a),
                   b == nullptr ? "(absent)" : leaf_text(*b)});
    return;
  }
  switch (a->kind) {
    case obs::JsonValue::Kind::Object:
      diff_objects(path, *a, *b, out);
      return;
    case obs::JsonValue::Kind::Array: {
      if (path == "machines") {
        diff_machine_arrays(path, *a, *b, out);
        return;
      }
      const std::size_t n = std::max(a->items.size(), b->items.size());
      for (std::size_t i = 0; i < n; ++i) {
        diff_values(format("%s[%zu]", path.c_str(), i),
                    i < a->items.size() ? &a->items[i] : nullptr,
                    i < b->items.size() ? &b->items[i] : nullptr, out);
      }
      return;
    }
    default:
      // Leaves compare by raw token text: exact for integers, and two
      // doubles rendered by the same %.10g writer only differ if the
      // values do.
      if (leaf_text(*a) != leaf_text(*b)) out.push_back({path, leaf_text(*a), leaf_text(*b)});
      return;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open report file: " + path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return text;
}

}  // namespace

std::string render_run_report(const Matrix& matrix, const obs::Registry* metrics) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ttsc-run-report");
  w.key("version");
  w.value(std::uint64_t{1});
  w.key("workloads");
  w.begin_array();
  for (const std::string& name : matrix.workload_names()) w.value(name);
  w.end_array();
  w.key("machines");
  w.begin_array();
  for (const MachineResults& r : matrix.machines()) {
    write_machine(w, r, matrix.workload_names());
  }
  w.end_array();
  if (metrics != nullptr) {
    w.key("metrics");
    metrics->write_json(w);
  }
  w.end_object();
  return w.take() + "\n";
}

void write_run_report(const std::string& path, const Matrix& matrix,
                      const obs::Registry* metrics) {
  const std::string text = render_run_report(matrix, metrics);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text) || (out.close(), !out)) {
    throw Error("cannot write run report: " + path);
  }
}

std::vector<ReportDelta> diff_reports(const obs::JsonValue& before, const obs::JsonValue& after) {
  std::vector<ReportDelta> out;
  diff_values("", &before, &after, out);
  return out;
}

bool diff_report_files(const std::string& before_path, const std::string& after_path,
                       std::string& out) {
  const obs::JsonValue before = obs::parse_json(read_file(before_path));
  const obs::JsonValue after = obs::parse_json(read_file(after_path));
  const std::vector<ReportDelta> deltas = diff_reports(before, after);
  if (deltas.empty()) {
    out = format("reports identical: %s == %s\n", before_path.c_str(), after_path.c_str());
    return true;
  }
  out = format("%zu difference(s) between %s and %s:\n", deltas.size(), before_path.c_str(),
               after_path.c_str());
  for (const ReportDelta& d : deltas) {
    out += format("  %-60s %s -> %s\n", d.path.c_str(), d.before.c_str(), d.after.c_str());
  }
  return false;
}

}  // namespace ttsc::report
