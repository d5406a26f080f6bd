// One simulation entry point for all three machine models.
//
// An Engine holds one scheduled program of any model (scalar instruction
// stream, VLIW bundles or TTA move program) together with its predecoded
// form and the machine it runs on. All three are shared and immutable, so
// copying an Engine is cheap and a run costs one dispatch — no program is
// copied or predecoded again. Everything above the simulators (the
// experiment driver, the flight-recorder replay, the resilience campaign)
// runs programs through this one type; the few model-specific needs (imem
// fault bit walks, encoders, static profiles) reach the program through
// visit().
//
// A run can also stop at a cycle boundary and hand back its state as a
// sim::Snapshot, and a later run can resume from one (sim/snapshot.hpp):
// the resilience campaign splits each golden run into snapshots and starts
// an injection's run from the last one before its fault can matter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "sim/lockstep.hpp"
#include "sim/snapshot.hpp"

namespace ttsc::sim {

class Engine {
 public:
  /// Default cycle budget of a run.
  static constexpr std::uint64_t kMaxCycles = 2'000'000'000ull;

  /// Predecode `program` for `machine`; the engine keeps its own copy of
  /// both.
  template <typename Program>
  Engine(const mach::Machine& machine, Program program)
      : Engine(std::make_shared<const mach::Machine>(machine), std::move(program)) {}

  /// An engine for `program` on this engine's machine — e.g. a copy of this
  /// engine's program with an instruction-memory fault applied.
  template <typename Program>
  Engine with_program(Program program) const {
    return Engine(machine_, std::move(program));
  }

  const mach::Machine& machine() const { return *machine_; }

  /// One run on `mem` with the model's simulator over the predecoded
  /// program.
  ExecResult run(ir::Memory& mem, const SimOptions& options = {},
                 std::uint64_t max_cycles = kMaxCycles) const;

  /// run() that may stop early: a run still going at the first cycle
  /// boundary at or past `stop_at` stops there and returns its Snapshot
  /// (for scalar, the first instruction boundary); a run that ends first
  /// returns its ExecResult.
  Segment run(ir::Memory& mem, const SimOptions& options, std::uint64_t max_cycles,
              std::uint64_t stop_at) const;

  /// Continue the run `from` was taken of, on `mem` — any image of the
  /// snapshot's size, restored to the snapshot's image first — stopping
  /// like run() at `stop_at`. With the options of that run (the same fault
  /// set, a fresh observer or protection state) the resumed run equals the
  /// uninterrupted one from the snapshot on: result, memory and observer
  /// events.
  Segment resume(const Snapshot& from, ir::Memory& mem, const SimOptions& options,
                 std::uint64_t max_cycles, std::uint64_t stop_at = kNoStop) const;

  /// The instruction/bundle indices whose predecoded record differs from
  /// `other`'s, ascending; `other` runs the same model on the same machine
  /// (e.g. this engine's program with an instruction-memory fault). A run of
  /// `other` behaves exactly like this engine's until it fetches one of
  /// them. When the programs differ in length, every index counts.
  std::vector<std::uint32_t> differing_pcs(const Engine& other) const;

  /// One lockstep fault batch (sim/lockstep.hpp) over the predecoded
  /// program; evicted lanes run on `image`, any image of `initial_mem`'s
  /// size.
  BatchResult run_batch(const ir::Memory& initial_mem, std::span<const FaultSet> lane_faults,
                        std::uint64_t max_cycles, ir::Memory& image,
                        const ExecResult* reference = nullptr,
                        const ir::Memory* reference_mem = nullptr) const;

  /// f(program) with the scheduled program; f must return one type for all
  /// three program types.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit([&](const auto& m) -> decltype(auto) { return f(*m.program); }, model_);
  }

 private:
  /// run / resume: from cycle 0 (`from` null) or from `*from`.
  Segment segment(const Snapshot* from, ir::Memory& mem, const SimOptions& options,
                  std::uint64_t max_cycles, std::uint64_t stop_at) const;

  template <typename Program, typename Predecoded>
  struct Model {
    std::shared_ptr<const Program> program;
    std::shared_ptr<const Predecoded> predecoded;
  };

  template <typename Program>
  Engine(std::shared_ptr<const mach::Machine> machine, Program program);

  std::shared_ptr<const mach::Machine> machine_;
  std::variant<Model<scalar::ScalarProgram, PredecodedScalar>,
               Model<vliw::VliwProgram, PredecodedVliw>, Model<tta::TtaProgram, PredecodedTta>>
      model_;
};

}  // namespace ttsc::sim
