// Shared fixtures for the resilience and lockstep test suites: hand-assembly
// helpers, hardened single-run harnesses, and the campaign-style golden-run
// cell construction — so campaign and lockstep tests build cells one way.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "codegen/minstr.hpp"
#include "mach/configs.hpp"
#include "opt/passes.hpp"
#include "report/driver.hpp"
#include "resil/campaign.hpp"
#include "scalar/scalar.hpp"
#include "sim/fault.hpp"
#include "sim/predecode.hpp"
#include "tta/tta.hpp"
#include "tta/verify.hpp"
#include "vliw/vliw.hpp"

#include "program_generator.hpp"

namespace ttsc::resil_util {

using codegen::MInstr;
using codegen::MOperand;
using tta::Move;
using tta::MoveDst;
using tta::MoveSrc;
using tta::TtaInstruction;
using tta::TtaProgram;

// ---------------------------------------------------------------------------
// Hand-assembly helpers (m-tta-1 layout: fu0 = lsu, fu1 = alu, fu2 = cu;
// rf0 = 32x32 — same idiom as sim_semantics_test.cpp).

struct Asm {
  TtaProgram prog;

  Asm() { prog.block_entry = {0}; }

  TtaInstruction& at(std::size_t pc) {
    if (prog.instrs.size() <= pc) prog.instrs.resize(pc + 1);
    return prog.instrs[pc];
  }
  Move& mv(std::size_t pc, int bus, MoveSrc src, MoveDst dst) {
    Move m;
    m.bus = bus;
    m.src = src;
    m.dst = dst;
    at(pc).moves.push_back(m);
    return at(pc).moves.back();
  }
  void ret(std::size_t pc, int bus_val, int bus_trig, MoveSrc value) {
    Move v;
    v.bus = bus_val;
    v.src = value;
    v.dst = MoveDst::fu_operand(2);
    at(pc).moves.push_back(v);
    Move t;
    t.bus = bus_trig;
    t.src = MoveSrc::immediate(0);
    t.dst = MoveDst::fu_trigger(2, ir::Opcode::Ret);
    t.is_control = true;
    at(pc).moves.push_back(t);
  }
};

// ---------------------------------------------------------------------------
// Hardened single-run harnesses over a fixed 64 KiB zero image. `final_mem`
// (optional) receives the halt-time memory image — the lockstep differential
// compares it against each lane's final image.

inline tta::ExecResult run_tta(const TtaProgram& prog, const mach::Machine& machine,
                               const sim::FaultSet* faults, bool fast_path,
                               ir::Memory* final_mem = nullptr) {
  ir::Memory mem(1 << 16);
  sim::SimOptions opts;
  opts.harden = true;
  opts.faults = faults;
  tta::TtaSim sim(prog, machine, mem, opts);
  const tta::ExecResult r = fast_path ? sim.run(100000) : sim.run_reference(100000);
  if (final_mem != nullptr) *final_mem = std::move(mem);
  return r;
}

inline scalar::ExecResult run_scalar(const scalar::ScalarProgram& prog,
                                     const mach::Machine& machine, bool fast_path,
                                     const sim::FaultSet* faults = nullptr,
                                     ir::Memory* final_mem = nullptr) {
  ir::Memory mem(1 << 16);
  sim::SimOptions opts;
  opts.harden = true;
  opts.faults = faults;
  scalar::ScalarSim sim(prog, machine, mem, opts);
  const scalar::ExecResult r = fast_path ? sim.run(100000) : sim.run_reference(100000);
  if (final_mem != nullptr) *final_mem = std::move(mem);
  return r;
}

inline vliw::ExecResult run_vliw(const vliw::VliwProgram& prog, const mach::Machine& machine,
                                 bool fast_path, const sim::FaultSet* faults = nullptr,
                                 ir::Memory* final_mem = nullptr) {
  ir::Memory mem(1 << 16);
  sim::SimOptions opts;
  opts.harden = true;
  opts.faults = faults;
  vliw::VliwSim sim(prog, machine, mem, opts);
  const vliw::ExecResult r = fast_path ? sim.run(100000) : sim.run_reference(100000);
  if (final_mem != nullptr) *final_mem = std::move(mem);
  return r;
}

inline MInstr minstr(ir::Opcode op, mach::PhysReg dst, std::vector<MOperand> srcs) {
  MInstr in;
  in.op = op;
  in.dst = dst;
  in.srcs = std::move(srcs);
  return in;
}

inline constexpr mach::PhysReg kNoDst{};

/// {MovI r1 <- 42 ; <corrupted> ; Ret r1}
inline scalar::ScalarProgram scalar_prog_with(MInstr corrupted) {
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(42)}));
  p.instrs.push_back(std::move(corrupted));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 1}}));
  return p;
}

/// m-vliw-2 (slot 0 = lsu+cu, slot 1 = alu): bundle of one op in `slot`.
inline vliw::VliwProgram vliw_prog_with(MInstr corrupted, int fu, int slot) {
  vliw::VliwProgram p;
  p.num_slots = 2;
  p.block_entry = {0};
  auto bundle_of = [&](MInstr in, int f, int s) {
    vliw::Bundle b;
    b.slots.resize(2);
    b.slots[static_cast<std::size_t>(s)] = vliw::SlotOp{std::move(in), f};
    return b;
  };
  p.bundles.push_back(bundle_of(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(42)}), 1, 1));
  p.bundles.push_back(bundle_of(std::move(corrupted), fu, slot));
  p.bundles.push_back(bundle_of(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 1}}), 2, 0));
  return p;
}

/// cycle0: rf0[3] <- 77 ; cycle3: ret rf0[3].
inline TtaProgram rf_return_program() {
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(77), MoveDst::rf_write(0, 3));
  a.at(2);  // empty instructions at pc 1..2
  a.ret(3, 0, 1, MoveSrc::rf_read(0, 3));
  return a.prog;
}

/// The two-cell campaign the determinism/equivalence tests run.
inline resil::CampaignOptions small_campaign() {
  resil::CampaignOptions opt;
  opt.machines = {"mblaze-3", "m-tta-1"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 48;
  opt.seed = 99;
  return opt;
}

// ---------------------------------------------------------------------------
// Campaign-style golden-run cell over the shared random-program corpus:
// the same compile pipeline resil's prepare_cell runs (select handling,
// scalar legalization, lowering, scheduling, predecoding) plus a hardened
// fault-free golden run on the predecoded fast path.

struct GeneratedCell {
  mach::Machine machine;
  ir::Module module;

  std::optional<scalar::ScalarProgram> scalar_prog;
  std::optional<vliw::VliwProgram> vliw_prog;
  std::optional<tta::TtaProgram> tta_prog;
  std::shared_ptr<const sim::PredecodedScalar> scalar_pre;
  std::shared_ptr<const sim::PredecodedVliw> vliw_pre;
  std::shared_ptr<const sim::PredecodedTta> tta_pre;

  /// Pristine loaded image (what every injected run starts from).
  ir::Memory initial_mem{0};
  /// Hardened fault-free golden run and its final memory image.
  scalar::ExecResult scalar_golden;
  vliw::ExecResult vliw_golden;
  tta::ExecResult tta_golden;
  ir::Memory golden_mem{0};
  std::uint64_t golden_cycles = 0;
  /// The per-cell injection cycle budget every lane shares.
  std::uint64_t budget = 0;
};

inline GeneratedCell make_generated_cell(std::uint64_t seed, const std::string& machine_name) {
  GeneratedCell cell;
  cell.machine = mach::machine_by_name(machine_name);
  propgen::ProgramGenerator gen(seed);
  cell.module = gen.generate();
  opt::optimize(cell.module, "main");
  ir::Function& entry = cell.module.function("main");
  if (cell.machine.model == mach::Model::Tta && cell.machine.has_guards()) {
    opt::if_convert_selects(entry);
  } else {
    codegen::expand_selects(entry);
  }
  if (cell.machine.model == mach::Model::Scalar) {
    codegen::legalize_scalar_operands(entry);
  }
  const codegen::LowerResult lowered = codegen::lower(cell.module, "main", cell.machine);

  cell.initial_mem = report::make_loaded_memory(cell.module);
  ir::Memory mem = cell.initial_mem;
  sim::SimOptions opts;
  opts.harden = true;
  switch (cell.machine.model) {
    case mach::Model::Scalar: {
      cell.scalar_prog = scalar::emit_scalar(lowered.func);
      cell.scalar_pre = std::make_shared<const sim::PredecodedScalar>(
          sim::predecode(*cell.scalar_prog, cell.machine));
      scalar::ScalarSim sim(*cell.scalar_prog, cell.machine, mem, opts);
      sim.use_predecoded(cell.scalar_pre);
      cell.scalar_golden = sim.run();
      cell.golden_cycles = cell.scalar_golden.cycles;
      break;
    }
    case mach::Model::Vliw: {
      cell.vliw_prog = vliw::schedule_vliw(lowered.func, cell.machine);
      cell.vliw_pre = std::make_shared<const sim::PredecodedVliw>(
          sim::predecode(*cell.vliw_prog, cell.machine));
      vliw::VliwSim sim(*cell.vliw_prog, cell.machine, mem, opts);
      sim.use_predecoded(cell.vliw_pre);
      cell.vliw_golden = sim.run();
      cell.golden_cycles = cell.vliw_golden.cycles;
      break;
    }
    case mach::Model::Tta: {
      cell.tta_prog = tta::schedule_tta(lowered.func, cell.machine);
      tta::verify_program(*cell.tta_prog, cell.machine);
      cell.tta_pre = std::make_shared<const sim::PredecodedTta>(
          sim::predecode(*cell.tta_prog, cell.machine));
      tta::TtaSim sim(*cell.tta_prog, cell.machine, mem, opts);
      sim.use_predecoded(cell.tta_pre);
      cell.tta_golden = sim.run();
      cell.golden_cycles = cell.tta_golden.cycles;
      break;
    }
  }
  cell.golden_mem = std::move(mem);
  cell.budget = resil::timeout_budget(cell.golden_cycles);
  return cell;
}

}  // namespace ttsc::resil_util
