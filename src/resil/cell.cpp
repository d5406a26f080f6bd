#include "resil/cell.hpp"

#include <algorithm>
#include <optional>

#include "mach/configs.hpp"
#include "opt/profile.hpp"
#include "report/driver.hpp"
#include "resil/inject.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ttsc::resil {

namespace {

/// The backend compile of `optimized` for `machine` plus its fault-free
/// golden run, with `observer` (when given) and the fetch table attached,
/// split into segments of kSnapshotInterval cycles.
PreparedCell compile_golden(const ir::Module& optimized, const workloads::Workload& w,
                            const mach::Machine& machine, const opt::ProfileData* profile,
                            sim::ExecObserver* observer) {
  report::Backend backend = report::compile_backend(optimized, w, machine, {}, nullptr, profile,
                                                    {.superblocks = true});
  ir::Memory initial = report::make_loaded_memory(backend.module);
  ir::Memory mem = initial;
  sim::FetchTable fetches;
  sim::TeeObserver tee(observer, &fetches);
  sim::SimOptions opts;
  opts.observer = observer != nullptr ? static_cast<sim::ExecObserver*>(&tee) : &fetches;
  std::vector<sim::Snapshot> snapshots;
  sim::Segment seg =
      backend.engine.run(mem, opts, sim::Engine::kMaxCycles, kSnapshotInterval);
  while (const sim::Snapshot* snap = std::get_if<sim::Snapshot>(&seg)) {
    snapshots.push_back(std::move(*snap));
    const sim::Snapshot& last = snapshots.back();
    seg = backend.engine.resume(last, mem, opts, sim::Engine::kMaxCycles,
                                (last.cycle / kSnapshotInterval + 1) * kSnapshotInterval);
  }
  sim::ExecResult golden = std::get<sim::ExecResult>(std::move(seg));
  if (golden.status != sim::ExecStatus::Ok) {
    throw Error(format("golden run did not complete: %s", sim::exec_status_name(golden.status)));
  }
  const std::uint64_t checksum = report::workload_output_checksum(backend.module, w, mem);
  const std::uint64_t bits = backend.engine.visit([](const auto& p) { return imem_bits(p); });
  return PreparedCell{.workload = &w,
                      .module = std::move(backend.module),
                      .engine = std::move(backend.engine),
                      .golden = std::move(golden),
                      .golden_checksum = checksum,
                      .initial_mem = std::move(initial),
                      .golden_mem = std::move(mem),
                      .imem_bits = bits,
                      .fetches = std::move(fetches),
                      .snapshots = std::move(snapshots)};
}

}  // namespace

std::uint64_t PreparedCell::snapshot_bytes() const {
  if (snapshots.empty()) return 0;
  std::uint64_t bytes = snapshots.front().initial->byte_size();
  for (const sim::Snapshot& s : snapshots) bytes += s.bytes();
  return bytes;
}

PreparedCell prepare_cell(const std::string& machine_name, const workloads::Workload& w,
                          const ir::Module& optimized, bool superblocks) {
  const mach::Machine machine = mach::machine_by_name(machine_name);
  sim::ProfileCollector collector;
  PreparedCell cell =
      compile_golden(optimized, w, machine, nullptr, superblocks ? &collector : nullptr);
  if (!superblocks) return cell;
  const opt::ProfileData profile = opt::ProfileData::from_collector(collector);
  PreparedCell traced = compile_golden(optimized, w, machine, &profile, nullptr);
  return traced.golden.cycles <= cell.golden.cycles ? std::move(traced) : std::move(cell);
}

sim::Engine mutated_engine(const PreparedCell& cell, const FaultSpec& spec) {
  return cell.engine.visit([&](const auto& program) {
    auto mutated = flip_bit(program, spec.imem_bit);
    if (spec.imem_width >= 2) mutated = flip_bit(mutated, spec.imem_bit + 1);
    return cell.engine.with_program(std::move(mutated));
  });
}

sim::SimOptions injection_options(const FaultSpec& spec, sim::FaultSet& fs) {
  sim::SimOptions opts;
  opts.harden = true;
  if (spec.target != TargetKind::Imem) {
    fs.faults.push_back(spec.state);
    opts.faults = &fs;
  }
  return opts;
}

std::uint64_t divergent_cycle(const PreparedCell& cell, const FaultSpec& spec,
                              const sim::Engine* mutated) {
  if (spec.target != TargetKind::Imem) return spec.state.cycle;
  TTSC_ASSERT(mutated != nullptr, "an imem fault's divergent cycle needs its mutated engine");
  std::uint64_t first = sim::FetchTable::kNever;
  for (const std::uint32_t pc : cell.engine.differing_pcs(*mutated)) {
    first = std::min(first, cell.fetches.first_fetch(pc));
  }
  return first;
}

const sim::Snapshot* resume_point(const PreparedCell& cell, std::uint64_t cycle) {
  const auto after = std::upper_bound(
      cell.snapshots.begin(), cell.snapshots.end(), cycle,
      [](std::uint64_t c, const sim::Snapshot& s) { return c < s.cycle; });
  return after == cell.snapshots.begin() ? nullptr : &*std::prev(after);
}

StandaloneRun run_standalone(const PreparedCell& cell, const FaultSpec& spec,
                             sim::ProtectState* prot, std::uint64_t budget, ir::Memory& image) {
  sim::FaultSet fs;
  sim::SimOptions opts = injection_options(spec, fs);
  opts.protect = prot;
  std::optional<sim::Engine> mutated;
  if (spec.target == TargetKind::Imem) mutated.emplace(mutated_engine(cell, spec));
  const sim::Engine& engine = mutated ? *mutated : cell.engine;
  const sim::Snapshot* from =
      resume_point(cell, divergent_cycle(cell, spec, mutated ? &*mutated : nullptr));
  if (from == nullptr) {
    image.restore_from(cell.initial_mem);
    return {engine.run(image, opts, budget), 0};
  }
  return {std::get<sim::ExecResult>(engine.resume(*from, image, opts, budget)), from->cycle};
}

}  // namespace ttsc::resil
