#include "report/profile_report.hpp"

#include <algorithm>
#include <fstream>

#include "obs/json.hpp"
#include "support/strings.hpp"

namespace ttsc::report {

namespace {

std::uint64_t cause_of(const prof::CellProfile& p, prof::Cause c) {
  return p.cause_cycles[static_cast<std::size_t>(c)];
}

/// Hottest blocks by attributed cycles (descending, block id breaks ties),
/// capped — the per-block hot list, not the full table.
constexpr std::size_t kHotBlocks = 8;

std::vector<std::uint32_t> hot_blocks(const prof::CellProfile& p) {
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t b = 0; b < p.num_blocks; ++b) {
    if (p.block_cycles(b) > 0) blocks.push_back(b);
  }
  std::sort(blocks.begin(), blocks.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t ca = p.block_cycles(a);
    const std::uint64_t cb = p.block_cycles(b);
    if (ca != cb) return ca > cb;
    return a < b;
  });
  if (blocks.size() > kHotBlocks) blocks.resize(kHotBlocks);
  return blocks;
}

/// The block's dominant non-Busy cause (enum order breaks ties); "busy"
/// when the block never stalled.
const char* block_top_cause(const prof::CellProfile& p, std::uint32_t b) {
  const std::size_t base = static_cast<std::size_t>(b) * prof::kNumCauses;
  std::size_t best = 0;
  std::uint64_t best_cycles = 0;
  for (std::size_t c = 1; c < prof::kNumCauses; ++c) {
    if (p.block_cause_cycles[base + c] > best_cycles) {
      best_cycles = p.block_cause_cycles[base + c];
      best = c;
    }
  }
  return prof::cause_name(static_cast<prof::Cause>(best));
}

void write_cell_profile(obs::JsonWriter& w, const prof::CellProfile& p) {
  using prof::Cause;
  w.begin_object();
  w.key("cycles");
  w.value(p.cycles);
  w.key("attributed");
  w.value(p.attributed());
  w.key("binding");
  w.value(prof::cause_name(p.binding()));

  // The flat nine-way partition.
  w.key("attribution");
  w.begin_object();
  for (std::size_t c = 0; c < prof::kNumCauses; ++c) {
    w.key(prof::cause_name(static_cast<Cause>(c)));
    w.value(p.cause_cycles[c]);
  }
  w.end_object();

  // The same cycles rolled up as a top-down tree (retiring vs stalled,
  // stalls grouped by the microarchitectural resource they charge).
  w.key("top_down");
  w.begin_object();
  w.key("retiring");
  w.value(cause_of(p, Cause::Busy));
  w.key("stalled");
  w.begin_object();
  w.key("dep");
  w.value(cause_of(p, Cause::Dep));
  w.key("fu_latency");
  w.value(cause_of(p, Cause::FuLatency));
  w.key("ports");
  w.begin_object();
  w.key("rf_read");
  w.value(cause_of(p, Cause::RfReadPort));
  w.key("rf_write");
  w.value(cause_of(p, Cause::RfWritePort));
  w.end_object();
  w.key("transport");
  w.begin_object();
  w.key("bus");
  w.value(cause_of(p, Cause::Bus));
  w.key("long_imm");
  w.value(cause_of(p, Cause::LongImm));
  w.end_object();
  w.key("control");
  w.begin_object();
  w.key("branch");
  w.value(cause_of(p, Cause::Branch));
  w.end_object();
  w.key("frontend");
  w.value(cause_of(p, Cause::Frontend));
  w.end_object();
  w.end_object();

  // Slot accounting: achieved fill vs the scheduler's static expectation.
  w.key("slots");
  w.begin_object();
  w.key("capacity");
  w.value(p.slot_capacity);
  w.key("useful");
  w.value(p.useful_slots);
  w.key("squashed");
  w.value(p.squashed_slots);
  w.key("imm_ext");
  w.value(p.imm_ext_slots);
  w.key("shadow_cycles");
  w.value(p.shadow_cycles);
  w.key("static_filled");
  w.value(p.static_slots_filled);
  w.key("static_capacity");
  w.value(p.static_slot_capacity);
  w.end_object();

  w.key("units");
  w.begin_object();
  w.key("fus");
  w.begin_object();
  if (!p.fu_triggers.empty() && p.fu_triggers[0] != 0) {
    w.key("core");
    w.value(p.fu_triggers[0]);
  }
  for (std::size_t f = 0; f + 1 < p.fu_triggers.size(); ++f) {
    w.key(p.fu_names[f]);
    w.value(p.fu_triggers[f + 1]);
  }
  w.end_object();
  w.key("buses");
  w.begin_object();
  for (std::size_t b = 0; b < p.bus_moves.size(); ++b) {
    w.key(p.bus_names[b]);
    w.begin_object();
    w.key("moves");
    w.value(p.bus_moves[b]);
    w.key("squashes");
    w.value(p.bus_squashes[b]);
    w.end_object();
  }
  w.end_object();
  w.key("rfs");
  w.begin_object();
  for (std::size_t r = 0; r < p.rf_reads.size(); ++r) {
    w.key(p.rf_names[r]);
    w.begin_object();
    w.key("reads");
    w.value(p.rf_reads[r]);
    w.key("writes");
    w.value(p.rf_writes[r]);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.key("hot_blocks");
  w.begin_array();
  for (std::uint32_t b : hot_blocks(p)) {
    w.begin_object();
    w.key("block");
    w.value(static_cast<std::uint64_t>(b));
    w.key("cycles");
    w.value(p.block_cycles(b));
    w.key("busy");
    w.value(p.block_cause_cycles[static_cast<std::size_t>(b) * prof::kNumCauses]);
    w.key("top_cause");
    w.value(block_top_cause(p, b));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string render_profile_report(const Matrix& matrix) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ttsc-profile-report");
  w.key("version");
  w.value(std::uint64_t{1});
  w.key("workloads");
  w.begin_array();
  for (const std::string& name : matrix.workload_names()) w.value(name);
  w.end_array();
  w.key("machines");
  w.begin_array();
  for (const MachineResults& r : matrix.machines()) {
    w.begin_object();
    w.key("name");
    w.value(r.machine.name);
    w.key("model");
    w.value(mach::model_name(r.machine.model));
    w.key("cells");
    w.begin_object();
    for (const std::string& name : matrix.workload_names()) {
      const auto it = r.by_workload.find(name);
      if (it == r.by_workload.end() || !it->second.ok || !it->second.profile.has_value()) continue;
      w.key(name);
      write_cell_profile(w, *it->second.profile);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take() + "\n";
}

void write_profile_report(const std::string& path, const Matrix& matrix) {
  const std::string text = render_profile_report(matrix);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text) || (out.close(), !out)) {
    throw Error("cannot write profile report: " + path);
  }
}

std::string render_profile_folded(const Matrix& matrix) {
  std::string out;
  for (const MachineResults& r : matrix.machines()) {
    for (const std::string& name : matrix.workload_names()) {
      const auto it = r.by_workload.find(name);
      if (it == r.by_workload.end() || !it->second.ok || !it->second.profile.has_value()) continue;
      const prof::CellProfile& p = *it->second.profile;
      for (std::uint32_t b = 0; b < p.num_blocks; ++b) {
        const std::size_t base = static_cast<std::size_t>(b) * prof::kNumCauses;
        for (std::size_t c = 0; c < prof::kNumCauses; ++c) {
          const std::uint64_t cycles = p.block_cause_cycles[base + c];
          if (cycles == 0) continue;
          out += format("%s;%s;block%u;%s %llu\n", r.machine.name.c_str(), name.c_str(), b,
                        prof::cause_name(static_cast<prof::Cause>(c)),
                        static_cast<unsigned long long>(cycles));
        }
      }
    }
  }
  return out;
}

void write_profile_folded(const std::string& path, const Matrix& matrix) {
  const std::string text = render_profile_folded(matrix);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << text) || (out.close(), !out)) {
    throw Error("cannot write folded profile: " + path);
  }
}

}  // namespace ttsc::report
