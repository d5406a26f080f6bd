#include "sim/engine.hpp"

#include <algorithm>
#include <type_traits>

namespace ttsc::sim {

template <typename Program>
Engine::Engine(std::shared_ptr<const mach::Machine> machine, Program program)
    : machine_(std::move(machine)) {
  auto shared = std::make_shared<const Program>(std::move(program));
  using Predecoded = decltype(predecode(*shared, *machine_));
  auto predecoded = std::make_shared<const Predecoded>(predecode(*shared, *machine_));
  model_ = Model<Program, Predecoded>{std::move(shared), std::move(predecoded)};
}

template Engine::Engine(std::shared_ptr<const mach::Machine>, scalar::ScalarProgram);
template Engine::Engine(std::shared_ptr<const mach::Machine>, vliw::VliwProgram);
template Engine::Engine(std::shared_ptr<const mach::Machine>, tta::TtaProgram);

Segment Engine::segment(const Snapshot* from, ir::Memory& mem, const SimOptions& options,
                        std::uint64_t max_cycles, std::uint64_t stop_at) const {
  // A stopped run's snapshot carries its pages against the image the run
  // started from: taken here for a run from cycle 0, inherited on resume.
  std::shared_ptr<const ir::PageSet> initial;
  if (from != nullptr) {
    TTSC_ASSERT(from->initial != nullptr, "resume needs a snapshot taken by an Engine");
    mem.restore(*from->initial, from->pages);
    initial = from->initial;
  } else if (stop_at != kNoStop) {
    initial = std::make_shared<const ir::PageSet>(mem.written_pages());
  }
  Segment seg = std::visit(
      [&](const auto& m) {
        SimOf<std::decay_t<decltype(*m.program)>> sim(*m.program, *machine_, mem, options);
        sim.use_predecoded(m.predecoded);
        return sim.run(max_cycles, from, stop_at);
      },
      model_);
  if (Snapshot* snap = std::get_if<Snapshot>(&seg)) {
    snap->pages = mem.pages_differing_from(*initial);
    snap->initial = std::move(initial);
  }
  return seg;
}

ExecResult Engine::run(ir::Memory& mem, const SimOptions& options,
                       std::uint64_t max_cycles) const {
  return std::get<ExecResult>(segment(nullptr, mem, options, max_cycles, kNoStop));
}

Segment Engine::run(ir::Memory& mem, const SimOptions& options, std::uint64_t max_cycles,
                    std::uint64_t stop_at) const {
  return segment(nullptr, mem, options, max_cycles, stop_at);
}

Segment Engine::resume(const Snapshot& from, ir::Memory& mem, const SimOptions& options,
                       std::uint64_t max_cycles, std::uint64_t stop_at) const {
  return segment(&from, mem, options, max_cycles, stop_at);
}

namespace {

std::size_t units(const PredecodedScalar& p) { return p.instrs.size(); }
std::size_t units(const PredecodedVliw& p) { return p.num_bundles(); }
std::size_t units(const PredecodedTta& p) { return p.num_instrs(); }

/// Records [begin[pc], begin[pc + 1]) of two flat record arrays are equal.
template <typename Record>
bool same_slice(const std::vector<Record>& a, const std::vector<std::uint32_t>& a_begin,
                const std::vector<Record>& b, const std::vector<std::uint32_t>& b_begin,
                std::size_t pc) {
  return std::equal(a.begin() + a_begin[pc], a.begin() + a_begin[pc + 1], b.begin() + b_begin[pc],
                    b.begin() + b_begin[pc + 1]);
}

bool same_unit(const PredecodedScalar& a, const PredecodedScalar& b, std::size_t pc) {
  return a.instrs[pc] == b.instrs[pc];
}
bool same_unit(const PredecodedVliw& a, const PredecodedVliw& b, std::size_t pc) {
  return same_slice(a.ops, a.bundle_begin, b.ops, b.bundle_begin, pc);
}
bool same_unit(const PredecodedTta& a, const PredecodedTta& b, std::size_t pc) {
  return same_slice(a.moves, a.instr_begin, b.moves, b.instr_begin, pc);
}

}  // namespace

std::vector<std::uint32_t> Engine::differing_pcs(const Engine& other) const {
  return std::visit(
      [&](const auto& m) {
        const auto* o = std::get_if<std::decay_t<decltype(m)>>(&other.model_);
        TTSC_ASSERT(o != nullptr, "differing_pcs compares engines of one model");
        const auto& a = *m.predecoded;
        const auto& b = *o->predecoded;
        const std::size_t n = std::max(units(a), units(b));
        const bool same_length = units(a) == units(b);
        std::vector<std::uint32_t> out;
        for (std::size_t pc = 0; pc < n; ++pc) {
          if (!same_length || !same_unit(a, b, pc)) out.push_back(static_cast<std::uint32_t>(pc));
        }
        return out;
      },
      model_);
}

BatchResult Engine::run_batch(const ir::Memory& initial_mem, std::span<const FaultSet> lane_faults,
                              std::uint64_t max_cycles, ir::Memory& image,
                              const ExecResult* reference, const ir::Memory* reference_mem) const {
  return std::visit(
      [&](const auto& m) {
        return sim::run_batch(*m.program, *machine_, m.predecoded, initial_mem, lane_faults,
                              max_cycles, image, reference, reference_mem);
      },
      model_);
}

}  // namespace ttsc::sim
