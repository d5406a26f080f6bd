// The toolchain's public per-layer calls, as the serial mirrors make them.
//
// build_module and compile are the bodies of report::build_optimized and
// of the backend half of report::compile_and_run_prebuilt (or
// resil::prepare_cell), split at layer boundaries so each call gets its own
// span. The Engine traits let the mirrors write one generic body for the
// three machine models.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "ir/module.hpp"
#include "mach/machine.hpp"
#include "scalar/scalar.hpp"
#include "sim/lockstep.hpp"
#include "sim/predecode.hpp"
#include "spans.hpp"
#include "tta/tta.hpp"
#include "vliw/vliw.hpp"
#include "workloads/workload.hpp"

namespace ttsc::perf {

/// The optimized module of `w`: front end + verify ("ir.build_s"), then the
/// optimizer ("opt.s").
ir::Module build_module(const workloads::Workload& w, Spans& spans);

/// One backend compile of `optimized` for `machine`.
struct Compiled {
  ir::Module module;  // the backend-prepared copy: memory layout, checksums
  int spills = 0;
  std::optional<tta::TtaProgram> tta;
  std::optional<vliw::VliwProgram> vliw;
  std::optional<scalar::ScalarProgram> scalar;
  /// Table II program image bits; set only with `table_stats`.
  std::uint64_t image_bits = 0;

  /// f(program) with the engaged program.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    if (tta) return f(*tta);
    if (vliw) return f(*vliw);
    return f(*scalar);
  }
};

/// Select expansion, scalar legalization and lowering/regalloc
/// ("codegen.lower_s"), then scheduling or emission ("tta.schedule_s",
/// "vliw.schedule_s", "scalar.emit_s"). `table_stats` collects scheduler
/// statistics and the Table II image size inside the schedule span, as the
/// grid sweep (report::compile_and_run_prebuilt) does; the campaign's
/// prepare step does neither.
Compiled compile(const ir::Module& optimized, const mach::Machine& machine, Spans& spans,
                 bool table_stats);

template <typename Program>
struct Engine;

template <>
struct Engine<tta::TtaProgram> {
  using Sim = tta::TtaSim;
  using Result = tta::ExecResult;
  using Pre = sim::PredecodedTta;
  static constexpr int kModel = 0;
  static constexpr const char* kRunSpan = "sim.run_s.tta";
  static sim::TtaBatchResult batch(const tta::TtaProgram& p, const mach::Machine& m,
                                   std::shared_ptr<const Pre> pre, const ir::Memory& mem,
                                   std::span<const sim::FaultSet> f, std::uint64_t budget,
                                   const Result* ref, const ir::Memory* ref_mem) {
    return sim::run_tta_batch(p, m, std::move(pre), mem, f, budget, ref, ref_mem);
  }
};

template <>
struct Engine<vliw::VliwProgram> {
  using Sim = vliw::VliwSim;
  using Result = vliw::ExecResult;
  using Pre = sim::PredecodedVliw;
  static constexpr int kModel = 1;
  static constexpr const char* kRunSpan = "sim.run_s.vliw";
  static sim::VliwBatchResult batch(const vliw::VliwProgram& p, const mach::Machine& m,
                                    std::shared_ptr<const Pre> pre, const ir::Memory& mem,
                                    std::span<const sim::FaultSet> f, std::uint64_t budget,
                                    const Result* ref, const ir::Memory* ref_mem) {
    return sim::run_vliw_batch(p, m, std::move(pre), mem, f, budget, ref, ref_mem);
  }
};

template <>
struct Engine<scalar::ScalarProgram> {
  using Sim = scalar::ScalarSim;
  using Result = scalar::ExecResult;
  using Pre = sim::PredecodedScalar;
  static constexpr int kModel = 2;
  static constexpr const char* kRunSpan = "sim.run_s.scalar";
  static sim::ScalarBatchResult batch(const scalar::ScalarProgram& p, const mach::Machine& m,
                                      std::shared_ptr<const Pre> pre, const ir::Memory& mem,
                                      std::span<const sim::FaultSet> f, std::uint64_t budget,
                                      const Result* ref, const ir::Memory* ref_mem) {
    return sim::run_scalar_batch(p, m, std::move(pre), mem, f, budget, ref, ref_mem);
  }
};

/// Metric-name suffix of each model, indexed by Engine<...>::kModel.
inline constexpr const char* kModelNames[3] = {"tta", "vliw", "scalar"};

/// The predecoded form of `program`, shared by every run of it.
template <typename Program>
std::shared_ptr<const typename Engine<Program>::Pre> predecode(const Program& program,
                                                               const mach::Machine& machine) {
  return std::make_shared<const typename Engine<Program>::Pre>(sim::predecode(program, machine));
}

/// One engine run over an already predecoded program.
template <typename Program>
typename Engine<Program>::Result run_engine(
    const Program& program, const mach::Machine& machine,
    std::shared_ptr<const typename Engine<Program>::Pre> pre, ir::Memory& mem,
    const sim::SimOptions& options, std::uint64_t budget = 2'000'000'000ull) {
  typename Engine<Program>::Sim s(program, machine, mem, options);
  s.use_predecoded(std::move(pre));
  return s.run(budget);
}

}  // namespace ttsc::perf
