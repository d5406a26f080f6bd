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
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <variant>

#include "sim/lockstep.hpp"

namespace ttsc::sim {

class Engine {
 public:
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
                 std::uint64_t max_cycles = 2'000'000'000ull) const;

  /// One lockstep fault batch (sim/lockstep.hpp) over the predecoded program.
  BatchResult run_batch(const ir::Memory& initial_mem, std::span<const FaultSet> lane_faults,
                        std::uint64_t max_cycles, const ExecResult* reference = nullptr,
                        const ir::Memory* reference_mem = nullptr) const;

  /// f(program) with the scheduled program; f must return one type for all
  /// three program types.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit([&](const auto& m) -> decltype(auto) { return f(*m.program); }, model_);
  }

 private:
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
