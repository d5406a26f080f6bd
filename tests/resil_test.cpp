// Fault-injection layer: fail-closed (Trapped, never abort) simulator
// regressions on all three models and both execution paths, hand-placed
// single faults with hand-computed classifications, the instruction-memory
// bit-flip injector, fault-plan sampling bounds, and campaign determinism
// across thread counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mach/configs.hpp"
#include "obs/metrics.hpp"
#include "resil/campaign.hpp"
#include "resil/fault_plan.hpp"
#include "resil/inject.hpp"
#include "scalar/scalar.hpp"
#include "sim/fault.hpp"
#include "sim/lockstep.hpp"
#include "sim/protect.hpp"
#include "tta/tta.hpp"
#include "tta/verify.hpp"
#include "vliw/vliw.hpp"

#include "resil_util.hpp"

namespace ttsc {
namespace {

// Hand-assembly (Asm), hardened run harnesses and campaign fixtures are
// shared with the lockstep suite via tests/resil_util.hpp.
using namespace resil_util;

// ---------------------------------------------------------------------------
// Fail-closed regressions: a single corrupted field must produce
// ExecStatus::Trapped — never an assertion/abort — on the fast AND the
// reference path, with identical TrapInfo (the two paths are differential).

TEST(TrapSafety, ScalarInvalidOpcodeTrapsOnBothPaths) {
  const mach::Machine m = mach::make_mblaze3();
  const auto prog = scalar_prog_with(minstr(static_cast<ir::Opcode>(200), {0, 2}, {}));
  const auto fast = run_scalar(prog, m, true);
  const auto ref = run_scalar(prog, m, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::InvalidOpcode);
  EXPECT_EQ(ref.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap, ref.trap);
}

TEST(TrapSafety, ScalarRfIndexOutOfRangeTrapsOnBothPaths) {
  const mach::Machine m = mach::make_mblaze3();
  // Source register index 200 in a 32-register file.
  const auto prog = scalar_prog_with(minstr(
      ir::Opcode::Add, {0, 2}, {mach::PhysReg{0, 200}, MOperand::immediate(1)}));
  const auto fast = run_scalar(prog, m, true);
  const auto ref = run_scalar(prog, m, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::RfIndexOutOfRange);
  EXPECT_EQ(fast.trap.detail, 200u);
  EXPECT_EQ(ref.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap, ref.trap);
}

TEST(TrapSafety, VliwInvalidOpcodeTrapsOnBothPaths) {
  const mach::Machine m = mach::make_m_vliw_2();
  const auto prog = vliw_prog_with(minstr(static_cast<ir::Opcode>(250), {0, 2}, {}), 1, 1);
  const auto fast = run_vliw(prog, m, true);
  const auto ref = run_vliw(prog, m, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::InvalidOpcode);
  EXPECT_EQ(ref.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap, ref.trap);
}

TEST(TrapSafety, VliwRfIndexOutOfRangeTrapsOnBothPaths) {
  const mach::Machine m = mach::make_m_vliw_2();
  const auto prog = vliw_prog_with(
      minstr(ir::Opcode::Add, {0, 2}, {mach::PhysReg{0, 99}, MOperand::immediate(1)}), 1, 1);
  const auto fast = run_vliw(prog, m, true);
  const auto ref = run_vliw(prog, m, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::RfIndexOutOfRange);
  EXPECT_EQ(ref.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap, ref.trap);
}

TEST(TrapSafety, TtaInvalidOpcodeTrapsOnBothPaths) {
  const mach::Machine m = mach::make_m_tta_1();
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(5), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(7), MoveDst::fu_trigger(1, static_cast<ir::Opcode>(200)));
  a.ret(1, 0, 1, MoveSrc::fu_result(1));
  const auto fast = run_tta(a.prog, m, nullptr, true);
  const auto ref = run_tta(a.prog, m, nullptr, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::InvalidOpcode);
  EXPECT_EQ(ref.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap, ref.trap);
}

TEST(TrapSafety, TtaRfIndexOutOfRangeTrapsOnBothPaths) {
  const mach::Machine m = mach::make_m_tta_1();
  Asm a;
  a.mv(0, 0, MoveSrc::rf_read(0, 200), MoveDst::fu_operand(1));
  a.ret(1, 0, 1, MoveSrc::immediate(0));
  const auto fast = run_tta(a.prog, m, nullptr, true);
  const auto ref = run_tta(a.prog, m, nullptr, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::RfIndexOutOfRange);
  EXPECT_EQ(fast.trap.detail, 200u);
  EXPECT_EQ(ref.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap, ref.trap);
}

TEST(TrapSafety, UnsupportedOpcodeOnFuTraps) {
  // A valid ISA opcode triggered on an FU that does not implement it
  // (e.g. a load on the ALU) must also fail closed.
  const mach::Machine m = mach::make_m_tta_1();
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(0), MoveDst::fu_trigger(1, ir::Opcode::Ldw));
  a.ret(1, 0, 1, MoveSrc::immediate(0));
  const auto fast = run_tta(a.prog, m, nullptr, true);
  const auto ref = run_tta(a.prog, m, nullptr, false);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::InvalidOpcode);
  EXPECT_EQ(fast.trap, ref.trap);
}

// ---------------------------------------------------------------------------
// Hand-placed state faults with hand-computed classifications.

TEST(HandPlacedFault, RfBitFlipOnLiveRegisterIsSdc) {
  const mach::Machine m = mach::make_m_tta_1();
  const TtaProgram prog = rf_return_program();
  tta::verify_program(prog, m);
  // Flip bit 1 of rf0[3] at the top of cycle 2: well after the cycle-0
  // write committed, before the cycle-3 read. 77 ^ 2 = 79.
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::RfBit, 0, 3, 1});
  const auto fast = run_tta(prog, m, &fs, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast.ret, 79u);  // silent data corruption, hand-computed
  // Both paths observe the identical corrupted state from the flip on.
  const auto ref = run_tta(prog, m, &fs, false);
  EXPECT_EQ(fast, ref);
}

TEST(HandPlacedFault, RfBitFlipOnDeadRegisterIsMaskedButLatent) {
  const mach::Machine m = mach::make_m_tta_1();
  const TtaProgram prog = rf_return_program();
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::RfBit, 0, 9, 1});  // rf0[9]: never read
  const auto faulted = run_tta(prog, m, &fs, true);
  const auto golden = run_tta(prog, m, nullptr, true);
  ASSERT_EQ(faulted.status, sim::ExecStatus::Ok);
  EXPECT_EQ(faulted.ret, golden.ret);            // masked: output unchanged
  EXPECT_NE(faulted.rf_state, golden.rf_state);  // ...but latently corrupt
  EXPECT_EQ(faulted.rf_state[9], 2u);            // 0 ^ (1 << 1)
}

TEST(HandPlacedFault, FuResultBitFlipPropagatesToConsumer) {
  const mach::Machine m = mach::make_m_tta_1();
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(5), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(7), MoveDst::fu_trigger(1, ir::Opcode::Add));
  a.at(2);
  a.ret(3, 0, 1, MoveSrc::fu_result(1));
  tta::verify_program(a.prog, m);
  // 12 lands in alu.r at cycle 1; flip bit 0 at the top of cycle 2 -> 13.
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::FuResultBit, 1, 0, 0});
  const auto fast = run_tta(a.prog, m, &fs, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast.ret, 13u);
  EXPECT_EQ(fast, run_tta(a.prog, m, &fs, false));
}

TEST(HandPlacedFault, GuardBitFlipSquashesGuardedMove) {
  const mach::Machine m = mach::make_g_tta_2();
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(1), MoveDst::guard_write(0));
  a.at(2);
  a.mv(3, 0, MoveSrc::immediate(55), MoveDst::rf_write(0, 4)).guard = 0;
  a.ret(4, 0, 1, MoveSrc::rf_read(0, 4));
  tta::verify_program(a.prog, m);
  const auto golden = run_tta(a.prog, m, nullptr, true);
  ASSERT_EQ(golden.status, sim::ExecStatus::Ok);
  EXPECT_EQ(golden.ret, 55u);  // guard true: the guarded write executed
  // Flip guard 0 at the top of cycle 3, before the guarded move: squashed,
  // rf0[4] keeps its reset value 0.
  sim::FaultSet fs;
  fs.faults.push_back({3, sim::FaultKind::GuardBit, 0, 0, 0});
  const auto faulted = run_tta(a.prog, m, &fs, true);
  ASSERT_EQ(faulted.status, sim::ExecStatus::Ok);
  EXPECT_EQ(faulted.ret, 0u);
  EXPECT_EQ(faulted, run_tta(a.prog, m, &fs, false));
}

TEST(HandPlacedFault, FaultPastHaltCycleIsMasked) {
  const mach::Machine m = mach::make_m_tta_1();
  const TtaProgram prog = rf_return_program();
  sim::FaultSet fs;
  fs.faults.push_back({5000, sim::FaultKind::RfBit, 0, 3, 1});
  const auto faulted = run_tta(prog, m, &fs, true);
  EXPECT_EQ(faulted, run_tta(prog, m, nullptr, true));
}

TEST(HandPlacedFault, OutOfRangeFaultTargetIsIgnored) {
  // The sampler never emits these, but a FaultSet is caller data: an
  // out-of-range unit/index must be a no-op, not UB.
  const mach::Machine m = mach::make_m_tta_1();
  const TtaProgram prog = rf_return_program();
  sim::FaultSet fs;
  fs.faults.push_back({1, sim::FaultKind::RfBit, 7, 300, 1});
  fs.faults.push_back({1, sim::FaultKind::FuResultBit, 90, 0, 0});
  fs.faults.push_back({1, sim::FaultKind::GuardBit, 5, 0, 0});
  const auto faulted = run_tta(prog, m, &fs, true);
  EXPECT_EQ(faulted, run_tta(prog, m, nullptr, true));
}

// ---------------------------------------------------------------------------
// Instruction-memory injector: bit accounting and hand-computed flips.

TEST(Inject, ScalarBitLayoutHandComputed) {
  // {MovI r1 <- 42 ; Ret r1}: MovI = opcode(8) + dst rf(4) + dst idx(8) +
  // imm(32) = 52 bits; Ret = opcode(8) + src rf(4) + src idx(8) = 20 bits.
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(42)}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 1}}));
  ASSERT_EQ(resil::imem_bits(p), 72u);

  const mach::Machine m = mach::make_mblaze3();
  EXPECT_EQ(run_scalar(p, m, true).ret, 42u);

  // Bit 20 is imm bit 0 of the MovI: 42 ^ 1 = 43. A wrong-but-valid
  // encoding — the campaign classifies this as SDC.
  const auto sdc = resil::flip_bit(p, 20);
  const auto r_sdc = run_scalar(sdc, m, true);
  ASSERT_EQ(r_sdc.status, sim::ExecStatus::Ok);
  EXPECT_EQ(r_sdc.ret, 43u);

  // Bit 71 is src-index bit 7 of the Ret: register 1 -> 129, out of range
  // for the 32-register file -> the decoder fails closed.
  const auto trap = resil::flip_bit(p, 71);
  const auto r_trap = run_scalar(trap, m, true);
  ASSERT_EQ(r_trap.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(r_trap.trap.reason, sim::TrapReason::RfIndexOutOfRange);
  EXPECT_EQ(r_trap.trap.detail, 129u);
  EXPECT_EQ(r_trap.trap, run_scalar(trap, m, false).trap);
}

TEST(Inject, FlipIsInvolutive) {
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(42)}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 1}}));
  const mach::Machine m = mach::make_mblaze3();
  const auto golden = run_scalar(p, m, true);
  for (std::uint64_t bit = 0; bit < resil::imem_bits(p); ++bit) {
    const auto twice = resil::flip_bit(resil::flip_bit(p, bit), bit);
    EXPECT_EQ(resil::imem_bits(twice), resil::imem_bits(p));
    EXPECT_EQ(run_scalar(twice, m, true), golden) << "bit " << bit;
  }
}

// ---------------------------------------------------------------------------
// Every fast-loop instantiation agrees on corrupted programs. For every
// single-bit imem flip of a (machine, program) cell, four hardened runs end
// with the same ExecResult (status, trap, cycles, ret, RF/guard state) and
// the same final image: the plain run (check level Harden), the run with an
// inert sim::ProtectState (level Protect), the run with a no-op observer,
// and the reference loop. Every flip resolves to a structured status, never
// an abort.

/// The four runs of every single-bit flip of `program` from `initial`;
/// "" or the first disagreements and their count.
template <typename Sim, typename Program>
std::string sweep_imem_flips(const Program& program, const mach::Machine& machine,
                             const ir::Memory& initial, std::uint64_t budget) {
  static constexpr const char* kRuns[] = {"plain", "inert-protect", "observed", "reference"};
  const mach::Protection inert;  // every code None
  sim::ExecObserver noop;
  std::vector<ir::Memory> images(std::size(kRuns), initial);
  std::string err;
  std::uint64_t disagreements = 0;
  for (std::uint64_t bit = 0; bit < resil::imem_bits(program); ++bit) {
    const Program flipped = resil::flip_bit(program, bit);
    const auto pre = std::make_shared<const decltype(sim::predecode(flipped, machine))>(
        sim::predecode(flipped, machine));
    sim::ProtectState prot(inert);
    const sim::SimOptions options[] = {{.harden = true},
                                       {.harden = true, .protect = &prot},
                                       {.observer = &noop, .harden = true},
                                       {.harden = true}};
    std::vector<sim::ExecResult> results;
    for (std::size_t k = 0; k < std::size(kRuns); ++k) {
      images[k].restore_from(initial);
      Sim s(flipped, machine, images[k], options[k]);
      s.use_predecoded(pre);
      results.push_back(k + 1 < std::size(kRuns) ? s.run(budget) : s.run_reference(budget));
    }
    for (std::size_t k = 1; k < std::size(kRuns); ++k) {
      if (!(results[k] == results[0]) || !(images[k] == images[0])) {
        if (++disagreements > 8) continue;
        err += format("bit %llu: %s run (%s, cycle %llu) differs from plain (%s, cycle %llu)\n",
                      static_cast<unsigned long long>(bit), kRuns[k],
                      sim::exec_status_name(results[k].status),
                      static_cast<unsigned long long>(results[k].cycles),
                      sim::exec_status_name(results[0].status),
                      static_cast<unsigned long long>(results[0].cycles));
      }
    }
  }
  if (disagreements > 0) {
    err += format("%llu disagreements over %llu flips\n",
                  static_cast<unsigned long long>(disagreements),
                  static_cast<unsigned long long>(resil::imem_bits(program)));
  }
  return err;
}

/// The generated program of the non-scalar cells.
constexpr std::uint64_t kImemFlipSeed = 7;

class ImemFlips : public ::testing::TestWithParam<std::string> {};

TEST_P(ImemFlips, EveryInstantiationAgrees) {
  const std::string machine = GetParam().substr(0, GetParam().find(':'));
  if (GetParam() == "mblaze-3:tiny") {
    scalar::ScalarProgram p;
    p.block_entry = {0};
    p.instrs.push_back(minstr(ir::Opcode::MovI, {0, 1}, {MOperand::immediate(42)}));
    p.instrs.push_back(
        minstr(ir::Opcode::Add, {0, 2}, {mach::PhysReg{0, 1}, MOperand::immediate(1)}));
    p.instrs.push_back(minstr(ir::Opcode::Ret, kNoDst, {mach::PhysReg{0, 2}}));
    const mach::Machine m = mach::machine_by_name(machine);
    const std::uint64_t budget = resil::timeout_budget(run_scalar(p, m, true).cycles);
    EXPECT_EQ(sweep_imem_flips<scalar::ScalarSim>(p, m, ir::Memory(1 << 16), budget), "");
    return;
  }
  // A generated program (tests/program_generator.hpp), scheduled for the
  // machine; on g-tta-2 its selects become guarded moves.
  const GeneratedCell cell = make_generated_cell(kImemFlipSeed, machine);
  std::string err;
  if (cell.vliw_prog) {
    err = sweep_imem_flips<vliw::VliwSim>(*cell.vliw_prog, cell.machine, cell.initial_mem,
                                          cell.budget);
  } else {
    ASSERT_TRUE(cell.tta_prog.has_value());
    if (cell.machine.has_guards()) {
      std::size_t guarded = 0;
      for (const sim::TtaPMove& mv : cell.tta_pre->moves) guarded += mv.guard >= 0 ? 1 : 0;
      EXPECT_GT(guarded, 0u) << "no guarded move: the guarded kinds go untested";
    }
    err = sweep_imem_flips<tta::TtaSim>(*cell.tta_prog, cell.machine, cell.initial_mem,
                                        cell.budget);
  }
  EXPECT_EQ(err, "");
}

INSTANTIATE_TEST_SUITE_P(Cells, ImemFlips,
                         ::testing::Values("mblaze-3:tiny", "m-vliw-2:generated",
                                           "m-tta-2:generated", "g-tta-2:generated"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-' || ch == ':') ch = '_';
                           }
                           return name;
                         });

TEST(Inject, TtaGuardEncodingRoundTrips) {
  // The TTA walk encodes guard as guard+1 so flips can add/remove
  // predication. Flipping guard bit 0 of an unconditional move makes it
  // guarded on guard 0; flipping back restores -1.
  const mach::Machine m = mach::make_g_tta_2();
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(77), MoveDst::rf_write(0, 3));
  a.ret(1, 0, 1, MoveSrc::rf_read(0, 3));
  const auto once = resil::flip_bit(a.prog, 0);
  EXPECT_EQ(once.instrs[0].moves[0].guard, 0);
  const auto twice = resil::flip_bit(once, 0);
  EXPECT_EQ(twice.instrs[0].moves[0].guard, -1);
  // The guard-flipped program still runs to a structured status: guard 0 is
  // false at reset, so the write is squashed and the return value is 0.
  const auto r = run_tta(once, m, nullptr, true);
  ASSERT_EQ(r.status, sim::ExecStatus::Ok);
  EXPECT_EQ(r.ret, 0u);
}

// ---------------------------------------------------------------------------
// FaultPlan: bit accounting, sampling bounds, determinism.

TEST(FaultPlan, BitTotalsHandComputed) {
  // m-tta-1: one 32x32 RF = 1024 bits, 3 FU result registers = 96 bits,
  // no guards.
  const mach::Machine m = mach::make_m_tta_1();
  const resil::FaultPlan plan(m, true, 500, 1000);
  EXPECT_EQ(plan.rf_bits(), 1024u);
  EXPECT_EQ(plan.fu_result_bits(), 96u);
  EXPECT_EQ(plan.guard_bits(), 0u);
  EXPECT_EQ(plan.imem_bits(), 500u);
  EXPECT_EQ(plan.total_bits(), 1024u + 96u + 500u);
  // Non-TTA machines have no architecturally visible FU result registers.
  const resil::FaultPlan scalar_plan(mach::make_mblaze3(), false, 500, 1000);
  EXPECT_EQ(scalar_plan.fu_result_bits(), 0u);
}

TEST(FaultPlan, SamplesAreInBoundsAndDeterministic) {
  const mach::Machine m = mach::make_g_tta_2();
  const std::uint64_t imem = 700;
  const std::uint64_t cycles = 1234;
  const resil::FaultPlan plan(m, true, imem, cycles);
  bool saw_rf = false, saw_imem = false;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t seed = resil::mix_seed(42, i);
    const resil::FaultSpec a = plan.sample(seed);
    const resil::FaultSpec b = plan.sample(seed);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.imem_bit, b.imem_bit);
    EXPECT_EQ(a.state.cycle, b.state.cycle);
    EXPECT_EQ(a.state.unit, b.state.unit);
    EXPECT_EQ(a.state.index, b.state.index);
    EXPECT_EQ(a.state.bit, b.state.bit);
    switch (a.target) {
      case resil::TargetKind::Rf:
        saw_rf = true;
        ASSERT_LT(a.state.unit, static_cast<int>(m.rfs.size()));
        ASSERT_LT(a.state.index, m.rfs[static_cast<std::size_t>(a.state.unit)].size);
        ASSERT_LT(a.state.bit, 32);
        EXPECT_LT(a.state.cycle, cycles);
        break;
      case resil::TargetKind::FuResult:
        ASSERT_LT(a.state.unit, static_cast<int>(m.fus.size()));
        ASSERT_LT(a.state.bit, 32);
        break;
      case resil::TargetKind::Guard:
        ASSERT_LT(a.state.unit, m.guard_regs);
        break;
      case resil::TargetKind::Imem:
        saw_imem = true;
        ASSERT_LT(a.imem_bit, imem);
        break;
    }
  }
  EXPECT_TRUE(saw_rf);
  EXPECT_TRUE(saw_imem);
}

// ---------------------------------------------------------------------------
// Campaign: classification totals, determinism across thread counts and
// lane-group sizes, batched-vs-scalar equivalence, configuration errors.

TEST(Campaign, TalliesAreCompleteAndInfraClean) {
  resil::CampaignOptions opt = small_campaign();
  opt.serial = true;
  obs::Registry registry;
  opt.registry = &registry;
  const resil::CampaignReport report = resil::run_campaign(opt);
  ASSERT_EQ(report.cells.size(), 2u);
  for (const resil::CellReport& c : report.cells) {
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_GT(c.golden_cycles, 0u);
    EXPECT_GT(c.imem_bits, 0u);
    const resil::TargetTally t = c.total();
    EXPECT_EQ(t.injections, 48u);
    EXPECT_EQ(t.masked + t.sdc + t.timeout + t.trap + t.err, 48u);
    EXPECT_EQ(t.err, 0u);  // no aborts, no infra failures
    EXPECT_LE(t.latent, t.masked);
  }
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.infra_failures(), 0u);
  EXPECT_EQ(registry.counter("resil.cells.run"), 2u);
  EXPECT_EQ(registry.counter("resil.cells.err"), 0u);
  std::uint64_t injections = 0;
  for (const char* target : {"rf", "fu-result", "guard", "imem"}) {
    injections += registry.counter("resil." + std::string(target) + ".injections");
  }
  EXPECT_EQ(injections, 96u);
  // Batching is on by default: every non-imem injection ran as a lockstep
  // lane, and the eviction tally is bounded by the lane count.
  const std::uint64_t lanes = registry.counter("resil.batch.lanes");
  EXPECT_EQ(lanes, 96u - registry.counter("resil.imem.injections"));
  EXPECT_GT(lanes, 0u);
  EXPECT_LE(registry.counter("resil.batch.evictions"), lanes);
}

TEST(Campaign, ByteIdenticalAcrossThreadCounts) {
  resil::CampaignOptions opt = small_campaign();
  opt.serial = true;
  const resil::CampaignReport serial = resil::run_campaign(opt);
  const std::string table = resil::render_resilience(serial);
  const std::string json = resil::render_resil_report_json(serial);
  opt.serial = false;
  for (int threads : {1, 2, 8}) {
    opt.threads = threads;
    const resil::CampaignReport r = resil::run_campaign(opt);
    EXPECT_EQ(resil::render_resilience(r), table) << threads << " threads";
    EXPECT_EQ(resil::render_resil_report_json(r), json) << threads << " threads";
  }
}

TEST(Campaign, BatchedReportByteIdenticalToScalarPath) {
  // The seed-7715 smoke campaign (the CI snapshot's cell set): the batched
  // lockstep path must reproduce the per-injection scalar path's report
  // byte-for-byte — same classification for every single injection.
  resil::CampaignOptions opt;
  opt.machines = {"mblaze-3", "m-vliw-2", "m-tta-2"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 64;
  opt.seed = 7715;
  opt.serial = true;
  opt.batch = false;
  const resil::CampaignReport scalar_path = resil::run_campaign(opt);
  opt.batch = true;
  const resil::CampaignReport batched = resil::run_campaign(opt);
  EXPECT_EQ(resil::render_resil_report_json(batched),
            resil::render_resil_report_json(scalar_path));
  EXPECT_EQ(resil::render_resilience(batched), resil::render_resilience(scalar_path));
}

TEST(Campaign, BatchedInvariantAcrossLaneGroupSizes) {
  // Lane grouping is an execution detail: any group size must produce the
  // identical report (and identical divergence/eviction tallies).
  resil::CampaignOptions opt = small_campaign();
  opt.serial = true;
  obs::Registry base_registry;
  opt.registry = &base_registry;
  const resil::CampaignReport base = resil::run_campaign(opt);
  const std::string json = resil::render_resil_report_json(base);
  for (int lanes : {1, 4, 16}) {
    opt.batch_lanes = lanes;
    obs::Registry registry;
    opt.registry = &registry;
    const resil::CampaignReport r = resil::run_campaign(opt);
    EXPECT_EQ(resil::render_resil_report_json(r), json) << lanes << " lanes";
    EXPECT_EQ(registry.counter("resil.batch.lanes"), base_registry.counter("resil.batch.lanes"))
        << lanes << " lanes";
    EXPECT_EQ(registry.counter("resil.batch.evictions"),
              base_registry.counter("resil.batch.evictions"))
        << lanes << " lanes";
  }
}

TEST(Campaign, SuperblockSmokeCellMatchesGolden) {
  // One superblock-scheduled cell through the batched lockstep engine:
  // m-tta-2/sha, a strict superblock win on the Table IV grid. The campaign
  // injects into the code the --superblocks harnesses actually ship, and
  // its report is pinned to tests/golden/resil_superblock.json so a trace-
  // schedule change shows up as an explicit resilience diff. Regenerate
  // with TTSC_UPDATE_GOLDEN=1 after an intentional scheduler change.
  resil::CampaignOptions opt;
  opt.machines = {"m-tta-2"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 48;
  opt.seed = 7715;
  opt.serial = true;
  opt.superblocks = true;
  const resil::CampaignReport batched = resil::run_campaign(opt);
  ASSERT_TRUE(batched.all_ok());
  ASSERT_EQ(batched.cells.size(), 1u);
  // The injected program is the ADOPTED trace schedule: its fault-free run
  // is the superblock cycle count pinned by tests/golden/table4_superblock.txt
  // (80470 -> 80373 on this cell), not the phase-1 baseline.
  EXPECT_EQ(batched.cells[0].golden_cycles, 80373u);

  // The per-injection scalar path must classify every injection of the
  // superblock schedule identically to the lockstep batch.
  opt.batch = false;
  const resil::CampaignReport scalar_path = resil::run_campaign(opt);
  EXPECT_EQ(resil::render_resil_report_json(batched),
            resil::render_resil_report_json(scalar_path));

  const std::string got = resil::render_resil_report_json(batched);
  const std::string path = std::string(TTSC_GOLDEN_DIR) + "/resil_superblock.json";
  if (std::getenv("TTSC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden snapshot regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << path
                         << " (regenerate with TTSC_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "superblock-cell campaign drifted from tests/golden/resil_superblock.json; "
         "if intentional, regenerate with TTSC_UPDATE_GOLDEN=1 and explain the "
         "drift in the commit message";
}

TEST(Campaign, TimeoutBudgetIsPerCellAndPinned) {
  // The budget is a pure per-cell function of the golden cycle count —
  // hoisted out of the per-injection path so every lane of a batch shares
  // it. Hand-pinned for the smoke cell: mblaze-3/sha takes 119900 golden
  // cycles (locked by tests/golden/resil_smoke.json), so its budget is
  // 119900 * 2 + 256 = 240056.
  EXPECT_EQ(resil::timeout_budget(119900), 240056u);
  EXPECT_EQ(resil::timeout_budget(0), 256u);

  resil::CampaignOptions opt;
  opt.machines = {"mblaze-3"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 1;
  opt.seed = 7715;
  opt.serial = true;
  const resil::CampaignReport r = resil::run_campaign(opt);
  ASSERT_EQ(r.cells.size(), 1u);
  ASSERT_TRUE(r.cells[0].ok) << r.cells[0].error;
  EXPECT_EQ(r.cells[0].golden_cycles, 119900u);
  EXPECT_EQ(resil::timeout_budget(r.cells[0].golden_cycles), 240056u);
}

TEST(Campaign, BatchLaneCountIsValidated) {
  resil::CampaignOptions opt = small_campaign();
  opt.batch_lanes = 0;
  EXPECT_THROW(resil::run_campaign(opt), Error);
  opt.batch_lanes = sim::kMaxLanes + 1;
  EXPECT_THROW(resil::run_campaign(opt), Error);
  opt = small_campaign();
  for (const int permille : {-1, 1001}) {
    opt.double_bit_permille = permille;
    EXPECT_THROW(resil::run_campaign(opt), Error) << permille;
  }
}

TEST(Campaign, SeedChangesTheTable) {
  resil::CampaignOptions opt = small_campaign();
  opt.machines = {"mblaze-3"};
  opt.serial = true;
  const resil::CampaignReport a = resil::run_campaign(opt);
  opt.seed = 100;
  const resil::CampaignReport b = resil::run_campaign(opt);
  EXPECT_NE(resil::render_resil_report_json(a), resil::render_resil_report_json(b));
}

TEST(Campaign, UnknownNamesAreConfigurationErrors) {
  resil::CampaignOptions opt = small_campaign();
  opt.machines = {"no-such-machine"};
  EXPECT_THROW(resil::run_campaign(opt), Error);
  opt = small_campaign();
  opt.workloads = {"no-such-workload"};
  EXPECT_THROW(resil::run_campaign(opt), Error);
  opt = small_campaign();
  opt.injections_per_cell = 0;
  EXPECT_THROW(resil::run_campaign(opt), Error);
}

TEST(Campaign, ForensicsSmokeCellsMatchGolden) {
  // The CI forensics smoke campaign: SDC/latent injections replayed
  // golden-vs-faulty, first-divergence verdicts pinned to
  // tests/golden/resil_forensics.json. Regenerate with TTSC_UPDATE_GOLDEN=1
  // after an intentional change and explain the drift in the commit message.
  resil::CampaignOptions opt;
  opt.machines = {"mblaze-3", "m-vliw-2", "m-tta-2"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 64;
  opt.seed = 7715;
  opt.forensics = true;
  opt.forensics_budget = 8;
  const resil::CampaignReport r = resil::run_campaign(opt);
  ASSERT_TRUE(r.all_ok());
  ASSERT_EQ(r.cells.size(), 3u);

  for (const resil::CellReport& cell : r.cells) {
    // The budget caps analyzed records; every candidate is either analyzed
    // or explicitly counted as skipped.
    EXPECT_LE(cell.forensics.size(),
              static_cast<std::size_t>(opt.effective_forensics_budget()));
    EXPECT_EQ(cell.forensics.size() + cell.forensics_skipped, cell.forensics_candidates);
    for (const resil::ForensicRecord& rec : cell.forensics) {
      // Only SDC and latent-masked injections are eligible.
      EXPECT_TRUE(rec.outcome == resil::Outcome::Sdc ||
                  (rec.outcome == resil::Outcome::Masked && rec.latent));
      // A found divergence can never precede the fault.
      if (rec.divergence.found) {
        EXPECT_GE(rec.divergence.cycle, rec.fault_cycle);
      }
    }
  }

  // The replay pass must not perturb classification: with the forensics
  // sections masked out of the render, the report is byte-identical to a
  // forensics-off campaign's.
  resil::CampaignOptions plain_opt = opt;
  plain_opt.forensics = false;
  const resil::CampaignReport plain = resil::run_campaign(plain_opt);
  resil::CampaignReport masked = r;
  masked.forensics = false;
  EXPECT_EQ(resil::render_resil_report_json(masked), resil::render_resil_report_json(plain));

  const std::string got = resil::render_resil_report_json(r);
  const std::string path = std::string(TTSC_GOLDEN_DIR) + "/resil_forensics.json";
  if (std::getenv("TTSC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden snapshot regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << path
                         << " (regenerate with TTSC_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "forensics campaign drifted from tests/golden/resil_forensics.json; "
         "if intentional, regenerate with TTSC_UPDATE_GOLDEN=1 and explain the "
         "drift in the commit message";
}

}  // namespace
}  // namespace ttsc
