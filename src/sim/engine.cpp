#include "sim/engine.hpp"

#include <type_traits>

namespace ttsc::sim {

namespace {

/// Per model: the simulator class and the lockstep batch entry point.
template <typename Program>
struct ModelOps;
template <>
struct ModelOps<scalar::ScalarProgram> {
  using Sim = scalar::ScalarSim;
  static constexpr auto batch = &run_scalar_batch;
};
template <>
struct ModelOps<vliw::VliwProgram> {
  using Sim = vliw::VliwSim;
  static constexpr auto batch = &run_vliw_batch;
};
template <>
struct ModelOps<tta::TtaProgram> {
  using Sim = tta::TtaSim;
  static constexpr auto batch = &run_tta_batch;
};

template <typename ModelT>
using OpsOf = ModelOps<std::decay_t<decltype(*std::declval<ModelT>().program)>>;

}  // namespace

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

ExecResult Engine::run(ir::Memory& mem, const SimOptions& options,
                       std::uint64_t max_cycles) const {
  return std::visit(
      [&](const auto& m) {
        typename OpsOf<decltype(m)>::Sim sim(*m.program, *machine_, mem, options);
        sim.use_predecoded(m.predecoded);
        return sim.run(max_cycles);
      },
      model_);
}

BatchResult Engine::run_batch(const ir::Memory& initial_mem, std::span<const FaultSet> lane_faults,
                              std::uint64_t max_cycles, const ExecResult* reference,
                              const ir::Memory* reference_mem) const {
  return std::visit(
      [&](const auto& m) {
        return OpsOf<decltype(m)>::batch(*m.program, *machine_, m.predecoded, initial_mem,
                                         lane_faults, max_cycles, reference, reference_mem);
      },
      model_);
}

}  // namespace ttsc::sim
