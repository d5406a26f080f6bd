// Architectural fault protection (sim/protect.hpp, mach::Protection) and
// checkpoint-rollback recovery (resil/campaign.cpp):
//  * ProtectState code semantics in isolation (parity escapes, SEC-DED
//    scrub-vs-detect, DMR/residue FU checks, TMR guard voting, imem fetch);
//  * hand-placed engine fixtures with hand-computed outcomes, fast ==
//    reference on every one;
//  * the zero-overhead-when-fault-free guarantee: a 64-seed differential
//    fleet where protected runs are byte-identical to unprotected goldens;
//  * protected campaigns: thread-count byte-identity, vulnerability driven
//    to zero on fully protected machines, the pinned report golden
//    (tests/golden/resil_protect.json), double-bit fault sampling, the
//    cancellation and per-cell watchdog paths, and the FPGA cost model's
//    additive protection overhead;
//  * the golden fetch table protected imem faults resolve from: executed
//    poisoned runs agree with it at every pc, campaign tallies equal an
//    executed reference, and every injection counts under one serving path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fpga/model.hpp"
#include "mach/configs.hpp"
#include "obs/metrics.hpp"
#include "resil/campaign.hpp"
#include "resil/cell.hpp"
#include "resil/fault_plan.hpp"
#include "resil/inject.hpp"
#include "sim/collectors.hpp"
#include "sim/fault.hpp"
#include "sim/protect.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "tta/tta.hpp"
#include "tta/verify.hpp"

#include "resil_util.hpp"

namespace ttsc {
namespace {

using namespace resil_util;

/// Exact width-2 draw count of the pinned double-bit distribution test:
/// 4096 seeds at 250 permille. Part of the frozen sampling contract — a
/// change here means the fault stream moved under every prior campaign.
constexpr int kPinnedWidth2Count = 1021;

// ---------------------------------------------------------------------------
// Harnesses: the resil_util runners plus an attached ProtectState.

tta::ExecResult run_tta_protected(const tta::TtaProgram& prog, const mach::Machine& m,
                                  const sim::FaultSet* faults, sim::ProtectState* prot,
                                  bool fast_path, ir::Memory* final_mem = nullptr) {
  ir::Memory mem(1 << 16);
  sim::SimOptions opts;
  opts.harden = true;
  opts.faults = faults;
  opts.protect = prot;
  tta::TtaSim sim(prog, m, mem, opts);
  const tta::ExecResult r = fast_path ? sim.run(100000) : sim.run_reference(100000);
  if (final_mem != nullptr) *final_mem = std::move(mem);
  return r;
}

scalar::ExecResult run_scalar_protected(const scalar::ScalarProgram& prog,
                                        const mach::Machine& m, const sim::FaultSet* faults,
                                        sim::ProtectState* prot, bool fast_path) {
  ir::Memory mem(1 << 16);
  sim::SimOptions opts;
  opts.harden = true;
  opts.faults = faults;
  opts.protect = prot;
  scalar::ScalarSim sim(prog, m, mem, opts);
  return fast_path ? sim.run(100000) : sim.run_reference(100000);
}

mach::Protection profile(const char* name) {
  return mach::machine_by_name(std::string("m-tta-1+") + name).protect;
}

/// The protected smoke campaign behind tests/golden/resil_protect.json and
/// the CI report_diff gate: each protected variant next to its unprotected
/// base so the efficiency table pairs every row.
resil::CampaignOptions protect_campaign() {
  resil::CampaignOptions opt;
  // Exactly the cell set CI's `--machines=mblaze-3,m-tta-1
  // --protect=parity,eccdmr,full` expands to (base first, then variants),
  // so this fixture and the CI campaign share tests/golden/resil_protect.json.
  opt.machines = {"mblaze-3", "mblaze-3+parity", "mblaze-3+eccdmr", "mblaze-3+full",
                  "m-tta-1",  "m-tta-1+parity",  "m-tta-1+eccdmr",  "m-tta-1+full"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 48;
  opt.seed = 99;
  opt.serial = true;
  // A quarter adjacent double-bit upsets: gives SEC-DED a detect-only
  // regime (and thus the rollback path real work) and parity its even-flip
  // escapes, instead of the all-correctable single-bit diet.
  opt.double_bit_permille = 250;
  return opt;
}

const resil::CellReport& cell_of(const resil::CampaignReport& report, const std::string& m) {
  for (const resil::CellReport& c : report.cells) {
    if (c.machine == m) return c;
  }
  ADD_FAILURE() << "no cell for machine " << m;
  static resil::CellReport empty;
  return empty;
}

// ---------------------------------------------------------------------------
// ProtectState code semantics in isolation.

TEST(ProtectState, ParityRecordsOddFlipsAndEscapesEvenOnes) {
  sim::ProtectState p(profile("parity"));
  std::uint32_t stored = 0;
  p.on_rf_flip(7, 0x3);  // even flip: the classic parity escape
  EXPECT_FALSE(p.any_poison());
  EXPECT_FALSE(p.check_rf_read(7, &stored));
  p.on_rf_flip(7, 0x4);  // odd flip: detected on consume
  EXPECT_TRUE(p.check_rf_read(7, &stored));
  EXPECT_EQ(p.rf_detected, 1u);
  EXPECT_EQ(p.rf_corrected, 0u);
}

TEST(ProtectState, SecDedScrubsSingleBitAndDetectsDouble) {
  sim::ProtectState p(profile("eccdmr"));
  std::uint32_t stored = 42u ^ (1u << 5);
  p.on_rf_flip(3, 1u << 5);
  EXPECT_FALSE(p.check_rf_read(3, &stored));
  EXPECT_EQ(stored, 42u);  // corrected in place: the read sees clean data
  EXPECT_EQ(p.rf_corrected, 1u);
  EXPECT_FALSE(p.check_rf_read(3, &stored));  // scrub cleared the poison

  p.on_rf_flip(3, 0x3u << 8);  // adjacent double bit: detected-uncorrectable
  EXPECT_TRUE(p.check_rf_read(3, &stored));
  EXPECT_EQ(p.rf_detected, 1u);
}

TEST(ProtectState, OverwriteClearsPoison) {
  sim::ProtectState p(profile("parity"));
  std::uint32_t stored = 0;
  p.on_rf_flip(5, 0x10);
  p.clear_rf(5);  // fresh data, fresh code
  EXPECT_FALSE(p.check_rf_read(5, &stored));
  EXPECT_EQ(p.rf_detected, 0u);
}

TEST(ProtectState, DmrDetectsAndResidue3HasItsRealEscapeRate) {
  sim::ProtectState dmr(profile("eccdmr"));
  dmr.on_fu_flip(1, 0x3);
  EXPECT_TRUE(dmr.check_fu_read(1, 40u ^ 0x3u));  // duplication catches anything
  EXPECT_EQ(dmr.fu_detected, 1u);

  mach::Protection residue_cfg;
  residue_cfg.fu = mach::Protection::FuCheck::Residue3;
  // stored 43 = 40 ^ 0b11: same residue mod 3 (43 % 3 == 40 % 3 == 1), so
  // the cheap checker misses it — the poison silently escapes.
  sim::ProtectState residue(residue_cfg);
  residue.on_fu_flip(1, 0x3);
  EXPECT_FALSE(residue.check_fu_read(1, 43u));
  EXPECT_EQ(residue.fu_detected, 0u);
  // A single-bit flip always changes the residue (delta = ±2^b is never a
  // multiple of 3): detected.
  residue.on_fu_flip(1, 0x4);
  EXPECT_TRUE(residue.check_fu_read(1, 40u ^ 0x4u));
  EXPECT_EQ(residue.fu_detected, 1u);
}

TEST(ProtectState, GuardTmrOutvotesTheFlip) {
  sim::ProtectState tmr(profile("full"));
  EXPECT_FALSE(tmr.on_guard_flip());  // caller must suppress the flip
  EXPECT_EQ(tmr.guard_corrected, 1u);
  sim::ProtectState bare(profile("parity"));
  EXPECT_TRUE(bare.on_guard_flip());  // no TMR: the flip lands
  EXPECT_EQ(bare.guard_corrected, 0u);
}

TEST(ProtectState, ImemFetchScrubsOnceAndDetectsForever) {
  sim::ProtectState p(profile("eccdmr"));
  p.poison_imem_correctable(4);
  EXPECT_EQ(p.check_imem_fetch(3), sim::ProtectState::ImemAction::Clean);
  EXPECT_EQ(p.check_imem_fetch(4), sim::ProtectState::ImemAction::Corrected);
  EXPECT_EQ(p.check_imem_fetch(4), sim::ProtectState::ImemAction::Clean);  // scrubbed
  EXPECT_EQ(p.imem_corrected, 1u);
  p.poison_imem_detectable(9);
  EXPECT_EQ(p.check_imem_fetch(9), sim::ProtectState::ImemAction::Detected);
  EXPECT_EQ(p.imem_detected, 1u);
}

// ---------------------------------------------------------------------------
// Hand-placed engine fixtures (m-tta-1, rf_return_program: rf0[3] <- 77 at
// cycle 0, consumed by the return at cycle 3), fast == reference throughout.

TEST(ProtectFixture, ParityDetectsRfFlipOnConsume) {
  const mach::Machine m = mach::machine_by_name("m-tta-1+parity");
  const auto prog = rf_return_program();
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::RfBit, 0, 3, 5});
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::ProtectionDetected);
  EXPECT_EQ(fast.trap.unit, -1);
  EXPECT_EQ(fast.trap.detail, 3u);  // flat RF slot (one partition: slot == reg)
  EXPECT_EQ(fast_prot.rf_detected, 1u);

  sim::ProtectState ref_prot(m.protect);
  const auto ref = run_tta_protected(prog, m, &fs, &ref_prot, false);
  EXPECT_EQ(fast, ref);
  EXPECT_EQ(ref_prot.rf_detected, 1u);
}

TEST(ProtectFixture, SecDedScrubsSingleBitToGoldenOutcome) {
  const mach::Machine m = mach::machine_by_name("m-tta-1+eccdmr");
  const auto prog = rf_return_program();
  const auto golden = run_tta(prog, mach::make_m_tta_1(), nullptr, true);
  ASSERT_EQ(golden.status, sim::ExecStatus::Ok);
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::RfBit, 0, 3, 5});
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast.ret, 77u);  // the read consumed the scrubbed value
  EXPECT_EQ(fast, golden);   // ...and the whole run matches golden
  EXPECT_EQ(fast_prot.rf_corrected, 1u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_tta_protected(prog, m, &fs, &ref_prot, false));
  EXPECT_EQ(ref_prot.rf_corrected, 1u);
}

TEST(ProtectFixture, SecDedDetectsAdjacentDoubleBit) {
  const mach::Machine m = mach::machine_by_name("m-tta-1+eccdmr");
  const auto prog = rf_return_program();
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::RfBit, 0, 3, 5, 2});  // width 2
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::ProtectionDetected);
  EXPECT_EQ(fast.trap.detail, 3u);
  EXPECT_EQ(fast_prot.rf_detected, 1u);
  EXPECT_EQ(fast_prot.rf_corrected, 0u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_tta_protected(prog, m, &fs, &ref_prot, false));
}

TEST(ProtectFixture, ParityEvenDoubleBitEscapesSilently) {
  const mach::Machine m = mach::machine_by_name("m-tta-1+parity");
  const auto prog = rf_return_program();
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::RfBit, 0, 3, 5, 2});  // even flip
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast.ret, 77u ^ (0x3u << 5));  // the corruption sails through
  EXPECT_EQ(fast_prot.rf_detected, 0u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_tta_protected(prog, m, &fs, &ref_prot, false));
}

TEST(ProtectFixture, DmrDetectsFuResultFlipOnConsume) {
  // 20 + 20 = 40 delivered at cycle 1; flipped at cycle 2; consumed by the
  // return read at cycle 4.
  const mach::Machine m = mach::machine_by_name("m-tta-1+eccdmr");
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(20), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(20), MoveDst::fu_trigger(1, ir::Opcode::Add));
  a.ret(4, 0, 1, MoveSrc::fu_result(1));
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::FuResultBit, 1, 0, 0, 2});
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(a.prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::ProtectionDetected);
  EXPECT_EQ(fast.trap.detail, 1u);  // FU index
  EXPECT_EQ(fast_prot.fu_detected, 1u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_tta_protected(a.prog, m, &fs, &ref_prot, false));
}

TEST(ProtectFixture, Residue3MissesSameResidueFlip) {
  // 40 ^ 0b11 = 43 keeps the value's residue mod 3: the cheap checker's
  // real escape — the corrupted result is consumed as if clean.
  mach::Machine m = mach::make_m_tta_1();
  m.protect.fu = mach::Protection::FuCheck::Residue3;
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(20), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(20), MoveDst::fu_trigger(1, ir::Opcode::Add));
  a.ret(4, 0, 1, MoveSrc::fu_result(1));
  sim::FaultSet fs;
  fs.faults.push_back({2, sim::FaultKind::FuResultBit, 1, 0, 0, 2});
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(a.prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast.ret, 43u);
  EXPECT_EQ(fast_prot.fu_detected, 0u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_tta_protected(a.prog, m, &fs, &ref_prot, false));
}

TEST(ProtectFixture, GuardTmrSuppressesTheFlip) {
  const mach::Machine m = mach::machine_by_name("g-tta-2+full");
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(1), MoveDst::guard_write(0));
  a.at(2);
  a.mv(3, 0, MoveSrc::immediate(55), MoveDst::rf_write(0, 4)).guard = 0;
  a.ret(4, 0, 1, MoveSrc::rf_read(0, 4));
  tta::verify_program(a.prog, mach::make_g_tta_2());
  const auto golden = run_tta(a.prog, mach::make_g_tta_2(), nullptr, true);
  ASSERT_EQ(golden.status, sim::ExecStatus::Ok);
  ASSERT_EQ(golden.ret, 55u);
  // The same flip that squashes the guarded move on the unprotected machine
  // (resil_test's GuardBitFlipSquashesGuardedMove) is outvoted by TMR.
  sim::FaultSet fs;
  fs.faults.push_back({3, sim::FaultKind::GuardBit, 0, 0, 0});
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_tta_protected(a.prog, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast.ret, 55u);
  EXPECT_EQ(fast, golden);
  EXPECT_EQ(fast_prot.guard_corrected, 1u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_tta_protected(a.prog, m, &fs, &ref_prot, false));
  EXPECT_EQ(ref_prot.guard_corrected, 1u);
}

TEST(ProtectFixture, ImemDetectableCodewordTrapsAtItsFetch) {
  const mach::Machine m = mach::machine_by_name("m-tta-1+eccdmr");
  const auto prog = rf_return_program();
  sim::ProtectState fast_prot(m.protect);
  fast_prot.poison_imem_detectable(3);  // the return instruction's codeword
  const auto fast = run_tta_protected(prog, m, nullptr, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::ProtectionDetected);
  EXPECT_EQ(fast.trap.detail, 3u);  // pc
  EXPECT_EQ(fast_prot.imem_detected, 1u);

  sim::ProtectState ref_prot(m.protect);
  ref_prot.poison_imem_detectable(3);
  EXPECT_EQ(fast, run_tta_protected(prog, m, nullptr, &ref_prot, false));
}

TEST(ProtectFixture, ImemCorrectableCodewordScrubsAndCompletes) {
  const mach::Machine m = mach::machine_by_name("m-tta-1+eccdmr");
  const auto prog = rf_return_program();
  const auto golden = run_tta(prog, mach::make_m_tta_1(), nullptr, true);
  sim::ProtectState fast_prot(m.protect);
  fast_prot.poison_imem_correctable(3);
  const auto fast = run_tta_protected(prog, m, nullptr, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Ok);
  EXPECT_EQ(fast, golden);
  EXPECT_EQ(fast_prot.imem_corrected, 1u);

  sim::ProtectState ref_prot(m.protect);
  ref_prot.poison_imem_correctable(3);
  EXPECT_EQ(fast, run_tta_protected(prog, m, nullptr, &ref_prot, false));
}

TEST(ProtectFixture, ScalarParityDetectsRfFlipOnConsume) {
  const mach::Machine m = mach::machine_by_name("mblaze-3+parity");
  // r1 <- 42 ; r2 <- r1 + 1 ; ret r1 — flip r1 before the Add consumes it.
  // The 3-stage pipeline fills for 2 cycles, so MovI commits at cycle 2 and
  // the Add reads at cycle 3: the flip must land at cycle 3, after the
  // commit (which would scrub it via clear_rf) and before the read.
  scalar::ScalarProgram p = scalar_prog_with(
      minstr(ir::Opcode::Add, {0, 2}, {mach::PhysReg{0, 1}, MOperand::immediate(1)}));
  sim::FaultSet fs;
  fs.faults.push_back({3, sim::FaultKind::RfBit, 0, 1, 4});
  sim::ProtectState fast_prot(m.protect);
  const auto fast = run_scalar_protected(p, m, &fs, &fast_prot, true);
  ASSERT_EQ(fast.status, sim::ExecStatus::Trapped);
  EXPECT_EQ(fast.trap.reason, sim::TrapReason::ProtectionDetected);
  EXPECT_EQ(fast.trap.unit, -1);
  EXPECT_EQ(fast.trap.detail, 1u);  // flat slot == register 1
  EXPECT_EQ(fast_prot.rf_detected, 1u);

  sim::ProtectState ref_prot(m.protect);
  EXPECT_EQ(fast, run_scalar_protected(p, m, &fs, &ref_prot, false));
}

// ---------------------------------------------------------------------------
// Zero overhead when fault-free: attaching a ProtectState without any fault
// never perturbs execution — protected runs are byte-identical to the
// unprotected golden (result AND final memory) on both paths. 64-seed
// differential fleet over the shared random-program corpus, all engines.

TEST(ProtectZeroFault, SixtyFourSeedFleetMatchesUnprotectedGoldens) {
  const char* machines[] = {"mblaze-3", "m-vliw-2", "m-tta-2"};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const std::string base = machines[seed % 3];
    const GeneratedCell cell = make_generated_cell(0xF1EE7000 + seed, base);
    const mach::Machine prot_machine = mach::machine_by_name(base + "+full");
    for (const bool fast : {true, false}) {
      sim::ProtectState prot(prot_machine.protect);
      ir::Memory mem = cell.initial_mem;
      sim::SimOptions opts;
      opts.harden = true;
      opts.protect = &prot;
      const auto run = [&](auto& sim) { return fast ? sim.run() : sim.run_reference(); };
      switch (cell.machine.model) {
        case mach::Model::Scalar: {
          scalar::ScalarSim sim(*cell.scalar_prog, prot_machine, mem, opts);
          sim.use_predecoded(cell.scalar_pre);
          EXPECT_EQ(run(sim), cell.scalar_golden) << base << " seed " << seed;
          break;
        }
        case mach::Model::Vliw: {
          vliw::VliwSim sim(*cell.vliw_prog, prot_machine, mem, opts);
          sim.use_predecoded(cell.vliw_pre);
          EXPECT_EQ(run(sim), cell.vliw_golden) << base << " seed " << seed;
          break;
        }
        case mach::Model::Tta: {
          tta::TtaSim sim(*cell.tta_prog, prot_machine, mem, opts);
          sim.use_predecoded(cell.tta_pre);
          EXPECT_EQ(run(sim), cell.tta_golden) << base << " seed " << seed;
          break;
        }
      }
      EXPECT_TRUE(mem == cell.golden_mem) << base << " seed " << seed;
      EXPECT_EQ(prot.corrections(), 0u);
      EXPECT_EQ(prot.detections(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Double-bit fault sampling (FaultPlan): stream-stable against the default
// plan, guards always single-bit, and the drawn fraction pinned bit-exactly.

TEST(DoubleBitPlan, SamplingIsStreamStableAndPinned) {
  const mach::Machine m = mach::machine_by_name("mblaze-3");
  const resil::FaultPlan base(m, false, /*imem_bits=*/4096, /*golden_cycles=*/1000);
  const resil::FaultPlan dbl(m, false, 4096, 1000, /*double_bit_permille=*/250);
  int width2 = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t seed = resil::mix_seed(123, i);
    const resil::FaultSpec a = base.sample(seed);
    const resil::FaultSpec b = dbl.sample(seed);
    // The width draw comes after every existing draw: the site and cycle
    // streams are identical to the all-single-bit plan.
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.state.width, 1);
    EXPECT_EQ(a.imem_width, 1);
    if (b.target == resil::TargetKind::Imem) {
      if (b.imem_width == 2) {
        ++width2;
        EXPECT_LE(b.imem_bit + 1, 4095u);  // clamped adjacent pair in range
        EXPECT_LE(b.imem_bit, a.imem_bit);
      } else {
        EXPECT_EQ(a.imem_bit, b.imem_bit);
      }
    } else {
      EXPECT_EQ(a.state.cycle, b.state.cycle);
      EXPECT_EQ(a.state.unit, b.state.unit);
      EXPECT_EQ(a.state.index, b.state.index);
      EXPECT_EQ(a.state.bit, b.state.bit);
      if (b.state.width == 2) ++width2;
      if (b.target == resil::TargetKind::Guard) {
        EXPECT_EQ(b.state.width, 1);
      }
    }
  }
  // ~25% of 4096 draws; the exact count is part of the frozen plan contract.
  EXPECT_GT(width2, 4096 / 5);
  EXPECT_LT(width2, 4096 * 3 / 10);
  EXPECT_EQ(width2, kPinnedWidth2Count);
}

// ---------------------------------------------------------------------------
// Protected campaigns.

TEST(ProtectCampaign, FullyProtectedMachinesDriveVulnerabilityToZero) {
  const resil::CampaignReport report = resil::run_campaign(protect_campaign());
  ASSERT_TRUE(report.all_ok());
  EXPECT_TRUE(report.protection);

  const resil::CellReport& base = cell_of(report, "m-tta-1");
  EXPECT_GT(base.total().vulnerable(), 0u);  // the unprotected cell does get hit
  EXPECT_FALSE(base.protected_machine);
  EXPECT_FALSE(base.protect.any());

  // SEC-DED + DMR covers every fault class this campaign injects (single
  // bits corrected, adjacent doubles detected): the acceptance bar — zero
  // uncontrolled outcomes on the fully protected machines.
  for (const char* name :
       {"mblaze-3+eccdmr", "mblaze-3+full", "m-tta-1+eccdmr", "m-tta-1+full"}) {
    const resil::CellReport& c = cell_of(report, name);
    EXPECT_TRUE(c.protected_machine);
    const resil::TargetTally t = c.total();
    EXPECT_EQ(t.sdc, 0u) << name;
    EXPECT_EQ(t.vulnerable(), 0u) << name;
    EXPECT_GT(t.corrected + t.recovered + t.detected, 0u) << name;
  }
  // Parity is detect-only AND has the even-flip escape: the double-bit
  // upsets sail through, so it detects much but cannot reach zero.
  const resil::CellReport& par = cell_of(report, "mblaze-3+parity");
  EXPECT_TRUE(par.protected_machine);
  EXPECT_GT(par.total().detected, 0u);
  EXPECT_LT(par.total().vulnerable(), par.total().injections);
  // Parity is detect-only: corrections can only come from codes that fix.
  const resil::CellReport& ecc = cell_of(report, "m-tta-1+eccdmr");
  EXPECT_GT(ecc.total().corrected, 0u);
  EXPECT_EQ(ecc.total().recovered, 0u);  // fail-stop profile: no rollback
  // The rollback profile keeps its recovery stats consistent (this small
  // campaign's detections are all imem — persistent corruption a rollback
  // cannot clean, so each one burns the retry budget and degrades).
  const resil::CellReport& full = cell_of(report, "m-tta-1+full");
  EXPECT_EQ(full.total().recovered, full.protect.recovered);
  EXPECT_GE(full.protect.rollbacks, full.protect.recovered);
  EXPECT_EQ(full.total().detected,
            full.protect.recovered == 0
                ? full.protect.unrecoverable
                : full.total().detected);  // detected = DUE stops when nothing recovered
}

TEST(ProtectCampaign, RollbackRecoversStateDetections) {
  // All-double-bit diet on the rollback machine: every consumed RF fault
  // lands in SEC-DED's detect-only regime, and — unlike imem corruption,
  // which persists across a rollback — RF state faults are transient, so
  // detections whose fault landed after the last checkpoint replay clean.
  resil::CampaignOptions opt;
  opt.machines = {"m-tta-1+full"};
  opt.workloads = {"sha"};
  opt.injections_per_cell = 96;
  opt.seed = 7;
  opt.serial = true;
  opt.double_bit_permille = 1000;
  const resil::CampaignReport report = resil::run_campaign(opt);
  ASSERT_TRUE(report.all_ok());
  const resil::CellReport& c = report.cells[0];
  EXPECT_EQ(c.total().sdc, 0u);
  EXPECT_EQ(c.total().vulnerable(), 0u);
  EXPECT_GT(c.total().recovered, 0u);
  EXPECT_EQ(c.total().recovered, c.protect.recovered);
  EXPECT_GE(c.protect.rollbacks, c.protect.recovered);
  EXPECT_GT(c.protect.recovery_cycles, 0u);
  // Every recovered run paid at least the rollback penalty, and the worst
  // case is at least the average.
  const mach::Protection cfg = mach::machine_by_name("m-tta-1+full").protect;
  EXPECT_GE(c.protect.recovery_cycles, c.protect.recovered * cfg.rollback_penalty);
  EXPECT_GE(c.protect.recovery_cycles_max,
            c.protect.recovery_cycles / std::max<std::uint64_t>(c.protect.recovered, 1));
}

TEST(ProtectCampaign, ReportIsByteIdenticalAcrossThreadCounts) {
  resil::CampaignOptions opt = protect_campaign();
  const std::string serial = resil::render_resil_report_json(resil::run_campaign(opt));
  opt.serial = false;
  for (const int threads : {1, 2, 8}) {
    opt.threads = threads;
    EXPECT_EQ(resil::render_resil_report_json(resil::run_campaign(opt)), serial)
        << threads << " threads";
  }
}

TEST(ProtectCampaign, UnprotectedReportsCarryNoProtectionKeys) {
  const resil::CampaignReport report = resil::run_campaign(small_campaign());
  ASSERT_TRUE(report.all_ok());
  EXPECT_FALSE(report.protection);
  const std::string json = resil::render_resil_report_json(report);
  EXPECT_EQ(json.find("\"protection\""), std::string::npos);
  EXPECT_EQ(json.find("\"corrected\""), std::string::npos);
  EXPECT_EQ(json.find("\"truncated\""), std::string::npos);
  EXPECT_TRUE(resil::render_protection_efficiency(report).empty());
}

TEST(ProtectCampaign, EfficiencyTablePairsEachVariantWithItsBase) {
  const resil::CampaignReport report = resil::run_campaign(protect_campaign());
  const std::string table = resil::render_protection_efficiency(report);
  EXPECT_NE(table.find("davf/kLUT"), std::string::npos);
  EXPECT_NE(table.find("mblaze-3+parity"), std::string::npos);
  EXPECT_NE(table.find("m-tta-1+full"), std::string::npos);
}

TEST(ProtectCampaign, SmokeReportMatchesGolden) {
  const resil::CampaignReport report = resil::run_campaign(protect_campaign());
  ASSERT_TRUE(report.all_ok());
  const std::string got = resil::render_resil_report_json(report);
  const std::string path = std::string(TTSC_GOLDEN_DIR) + "/resil_protect.json";
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
      << "protected smoke campaign drifted from tests/golden/resil_protect.json; "
         "if intentional, regenerate with TTSC_UPDATE_GOLDEN=1 and explain the "
         "drift in the commit message";
}

TEST(ProtectCampaign, ProtectCountersAreExportedAndDocumented) {
  resil::CampaignOptions opt = protect_campaign();
  opt.machines = {"m-tta-1+full"};
  obs::Registry registry;
  opt.registry = &registry;
  const resil::CampaignReport report = resil::run_campaign(opt);
  ASSERT_TRUE(report.all_ok());
  const resil::CellReport& c = report.cells[0];
  EXPECT_EQ(registry.counter("recovery.recovered"), c.protect.recovered);
  EXPECT_EQ(registry.counter("recovery.rollbacks"), c.protect.rollbacks);
  EXPECT_EQ(registry.counter("protect.rf.corrected"), c.protect.rf_corrected);
  EXPECT_EQ(registry.counter("resil.rf.corrected"),
            c.targets[static_cast<std::size_t>(resil::TargetKind::Rf)].corrected);
}

// ---------------------------------------------------------------------------
// Protected imem faults resolve from the golden run's fetch table
// (sim::FetchTable) instead of re-simulating the pristine program.

const workloads::Workload& workload_named(const std::string& name) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    if (w.name == name) return w;
  }
  ADD_FAILURE() << "no workload " << name;
  return workloads::all_workloads().front();
}

/// A campaign cell compiled the way resil::run_campaign compiles it, with
/// its fault-free golden run (and that run's fetch table).
struct CompiledCell {
  CompiledCell(const std::string& machine_name, const workloads::Workload& w,
               const ir::Module& optimized)
      : machine(mach::machine_by_name(machine_name)),
        backend(report::compile_backend(optimized, w, machine, {}, nullptr, nullptr,
                                        {.superblocks = true})),
        initial(report::make_loaded_memory(backend.module)),
        golden_mem(initial) {
    sim::SimOptions opts;
    opts.observer = &fetches;
    golden = backend.engine.run(golden_mem, opts);
    units = backend.engine.visit([](const auto& program) {
      if constexpr (requires { program.bundles; }) {
        return static_cast<std::uint32_t>(program.bundles.size());
      } else {
        return static_cast<std::uint32_t>(program.instrs.size());
      }
    });
  }

  mach::Machine machine;
  report::Backend backend;
  ir::Memory initial;
  ir::Memory golden_mem;
  sim::ExecResult golden;
  sim::FetchTable fetches;
  std::uint32_t units = 0;  // instructions / bundles
};

sim::SimOptions protected_options(sim::ProtectState* prot) {
  sim::SimOptions opts;
  opts.harden = true;
  opts.protect = prot;
  return opts;
}

class FetchTableExhaustive : public ::testing::TestWithParam<std::string> {};

// Every pc of one scalar, one VLIW and one TTA cell: the executed pristine
// run with that codeword poisoned agrees with the golden fetch table. A
// detectable poison traps with ProtectionDetected exactly when the table
// marks the pc fetched, at its first fetch; a correctable one scrubs once
// and completes like golden when fetched, and leaves the run untouched
// (masked) when not. mips leaves some codewords unfetched on all three
// machines, so both sides of the rule run.
TEST_P(FetchTableExhaustive, PoisonedRunsAgreeWithTheTableAtEveryPc) {
  const workloads::Workload& w = workload_named("mips");
  const CompiledCell c(GetParam(), w, report::build_optimized(w));
  ASSERT_EQ(c.golden.status, sim::ExecStatus::Ok);
  const std::uint64_t budget = resil::timeout_budget(c.golden.cycles);

  std::uint32_t fetched = 0;
  for (std::uint32_t pc = 0; pc < c.units; ++pc) fetched += c.fetches.fetched(pc) ? 1 : 0;
  EXPECT_GT(fetched, 0u);
  EXPECT_LT(fetched, c.units) << "no unfetched codeword: the masked side goes untested";
  EXPECT_FALSE(c.fetches.fetched(c.units));

  support::ThreadPool pool(4);
  support::parallel_for(pool, c.units, [&](std::size_t i) {
    const auto pc = static_cast<std::uint32_t>(i);
    const bool is_fetched = c.fetches.fetched(pc);
    {
      sim::ProtectState prot(c.machine.protect);
      prot.poison_imem_detectable(pc);
      ir::Memory mem = c.initial;
      const sim::ExecResult r = c.backend.engine.run(mem, protected_options(&prot), budget);
      if (is_fetched) {
        EXPECT_EQ(r.status, sim::ExecStatus::Trapped) << "pc " << pc;
        EXPECT_EQ(r.trap.reason, sim::TrapReason::ProtectionDetected) << "pc " << pc;
        EXPECT_EQ(r.trap.cycle, c.fetches.first_fetch(pc)) << "pc " << pc;
        EXPECT_EQ(r.trap.detail, pc);
        EXPECT_EQ(prot.imem_detected, 1u) << "pc " << pc;
      } else {
        EXPECT_EQ(r, c.golden) << "pc " << pc;
        EXPECT_TRUE(mem == c.golden_mem) << "pc " << pc;
        EXPECT_EQ(prot.imem_detected, 0u) << "pc " << pc;
      }
    }
    {
      sim::ProtectState prot(c.machine.protect);
      prot.poison_imem_correctable(pc);
      ir::Memory mem = c.initial;
      const sim::ExecResult r = c.backend.engine.run(mem, protected_options(&prot), budget);
      EXPECT_EQ(r, c.golden) << "pc " << pc;
      EXPECT_TRUE(mem == c.golden_mem) << "pc " << pc;
      EXPECT_EQ(prot.imem_corrected, is_fetched ? 1u : 0u) << "pc " << pc;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Models, FetchTableExhaustive,
                         ::testing::Values("mblaze-3+full", "m-vliw-2+full", "m-tta-2+full"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-' || ch == '+') ch = '_';
                           }
                           return name;
                         });

/// One protected cell as an executed reference computes it: every injection
/// runs its engine, imem faults included — the pristine program under the
/// code's poison, or the mutated program when the flip escapes the code —
/// and detections resolve with the campaign's checkpoint-rollback rule.
struct ExecutedCell {
  std::uint64_t golden_cycles = 0;
  std::uint64_t imem_bits = 0;
  std::array<resil::TargetTally, resil::kNumTargetKinds> targets{};
  resil::ProtectStats protect;
  std::uint64_t imem_unescaped = 0;  // imem faults the code caught
};

ExecutedCell executed_reference(const std::string& machine_name, const workloads::Workload& w,
                                const ir::Module& optimized, const resil::CampaignOptions& opt) {
  const CompiledCell c(machine_name, w, optimized);
  const mach::Protection& cfg = c.machine.protect;
  const sim::Engine& engine = c.backend.engine;
  ExecutedCell out;
  out.golden_cycles = c.golden.cycles;
  out.imem_bits = engine.visit([](const auto& p) { return resil::imem_bits(p); });
  const std::uint64_t checksum = report::workload_output_checksum(c.backend.module, w, c.golden_mem);
  const std::uint64_t budget = resil::timeout_budget(c.golden.cycles);
  const resil::FaultPlan plan(c.machine, c.machine.model == mach::Model::Tta, out.imem_bits,
                              c.golden.cycles, opt.double_bit_permille);
  const std::uint64_t cell_seed =
      resil::mix_seed(opt.seed, resil::hash_name(machine_name + "/" + w.name));

  for (int i = 0; i < opt.injections_per_cell; ++i) {
    const resil::FaultSpec spec = plan.sample(resil::mix_seed(cell_seed, static_cast<std::uint64_t>(i)));
    sim::ProtectState prot(cfg);
    sim::SimOptions opts = protected_options(&prot);
    sim::FaultSet fs;
    std::optional<sim::Engine> mutated;
    if (spec.target == resil::TargetKind::Imem) {
      const bool two = spec.imem_width >= 2;
      const auto [pc0, pc1] = engine.visit([&](const auto& p) {
        return std::pair{resil::imem_instr_of_bit(p, spec.imem_bit),
                         resil::imem_instr_of_bit(p, spec.imem_bit + (two ? 1 : 0))};
      });
      // The codeword decision: parity misses an even flip inside one
      // codeword; SEC-DED corrects single flips and detects a double one.
      bool escape = cfg.imem == mach::Protection::Code::None;
      if (cfg.imem == mach::Protection::Code::Parity) {
        escape = two && pc0 == pc1;
        if (!escape) {
          prot.poison_imem_detectable(pc0);
          prot.poison_imem_detectable(pc1);
        }
      } else if (cfg.imem == mach::Protection::Code::SecDed) {
        if (two && pc0 == pc1) {
          prot.poison_imem_detectable(pc0);
        } else {
          prot.poison_imem_correctable(pc0);
          if (two) prot.poison_imem_correctable(pc1);
        }
      }
      if (escape) {
        mutated = engine.visit([&](const auto& p) {
          auto flipped = resil::flip_bit(p, spec.imem_bit);
          if (two) flipped = resil::flip_bit(flipped, spec.imem_bit + 1);
          return engine.with_program(std::move(flipped));
        });
      } else {
        ++out.imem_unescaped;
      }
    } else {
      fs.faults.push_back(spec.state);
      opts.faults = &fs;
    }
    ir::Memory mem = c.initial;
    const sim::ExecResult r = (mutated ? *mutated : engine).run(mem, opts, budget);

    resil::TargetTally& t = out.targets[static_cast<std::size_t>(spec.target)];
    resil::ProtectStats& ps = out.protect;
    ++t.injections;
    ps.rf_corrected += prot.rf_corrected;
    ps.rf_detected += prot.rf_detected;
    ps.fu_detected += prot.fu_detected;
    ps.guard_corrected += prot.guard_corrected;
    ps.imem_corrected += prot.imem_corrected;
    ps.imem_detected += prot.imem_detected;
    if (r.status == sim::ExecStatus::Trapped &&
        r.trap.reason == sim::TrapReason::ProtectionDetected) {
      // Rollback from the last checkpoint recovers a transient state fault
      // that landed after it; imem corruption persists, so it detects again
      // on every retry and degrades to a safe stop.
      const std::uint64_t interval = cfg.checkpoint_interval > 0 ? cfg.checkpoint_interval : 1;
      const std::uint64_t checkpoint = (r.trap.cycle / interval) * interval;
      if (!cfg.rollback) {
        ++t.detected;
      } else if (spec.target != resil::TargetKind::Imem && spec.state.cycle >= checkpoint) {
        const std::uint64_t replay = r.trap.cycle - checkpoint + cfg.rollback_penalty;
        ++t.recovered;
        ++ps.rollbacks;
        ++ps.recovered;
        ps.recovery_cycles += replay;
        ps.recovery_cycles_max = std::max(ps.recovery_cycles_max, replay);
      } else {
        const auto retries = static_cast<std::uint64_t>(std::max(cfg.retry_budget, 0));
        ++t.detected;
        ps.rollbacks += retries;
        ps.retries += retries;
        ++ps.unrecoverable;
      }
      continue;
    }
    switch (r.status) {
      case sim::ExecStatus::Trapped: ++t.trap; continue;
      case sim::ExecStatus::TimedOut: ++t.timeout; continue;
      case sim::ExecStatus::Ok: break;
    }
    if (r.ret != c.golden.ret ||
        report::workload_output_checksum(c.backend.module, w, mem) != checksum) {
      ++t.sdc;
      continue;
    }
    const bool latent = r.rf_state != c.golden.rf_state ||
                        r.guard_state != c.golden.guard_state || !(mem == c.golden_mem);
    if (!latent && prot.corrections() > 0) {
      ++t.corrected;
    } else {
      ++t.masked;
      if (latent) ++t.latent;
    }
  }
  return out;
}

void expect_tally_eq(const resil::TargetTally& got, const resil::TargetTally& want,
                     const std::string& where) {
  EXPECT_EQ(got.injections, want.injections) << where;
  EXPECT_EQ(got.masked, want.masked) << where;
  EXPECT_EQ(got.corrected, want.corrected) << where;
  EXPECT_EQ(got.recovered, want.recovered) << where;
  EXPECT_EQ(got.detected, want.detected) << where;
  EXPECT_EQ(got.sdc, want.sdc) << where;
  EXPECT_EQ(got.timeout, want.timeout) << where;
  EXPECT_EQ(got.trap, want.trap) << where;
  EXPECT_EQ(got.err, want.err) << where;
  EXPECT_EQ(got.latent, want.latent) << where;
}

void expect_protect_eq(const resil::ProtectStats& got, const resil::ProtectStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.rf_corrected, want.rf_corrected) << where;
  EXPECT_EQ(got.rf_detected, want.rf_detected) << where;
  EXPECT_EQ(got.fu_detected, want.fu_detected) << where;
  EXPECT_EQ(got.guard_corrected, want.guard_corrected) << where;
  EXPECT_EQ(got.imem_corrected, want.imem_corrected) << where;
  EXPECT_EQ(got.imem_detected, want.imem_detected) << where;
  EXPECT_EQ(got.rollbacks, want.rollbacks) << where;
  EXPECT_EQ(got.retries, want.retries) << where;
  EXPECT_EQ(got.recovered, want.recovered) << where;
  EXPECT_EQ(got.unrecoverable, want.unrecoverable) << where;
  EXPECT_EQ(got.recovery_cycles, want.recovery_cycles) << where;
  EXPECT_EQ(got.recovery_cycles_max, want.recovery_cycles_max) << where;
}

// The 4 default machines x {blowfish, sha} x every protection profile, with
// single-bit upsets only and with half adjacent double-bit upsets: per cell,
// run_campaign's tallies and ProtectStats equal the executed reference, and
// exactly the imem faults the code caught took the analytic path.
TEST(ProtectImemAnalytic, CampaignMatchesExecutedReference) {
  resil::CampaignOptions opt;
  opt.machines.clear();
  for (const std::string base : {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2"}) {
    for (const char* profile : {"+parity", "+eccdmr", "+full"}) opt.machines.push_back(base + profile);
  }
  opt.workloads = {"blowfish", "sha"};
  opt.injections_per_cell = 24;
  opt.seed = 0x1515;
  opt.threads = 4;
  std::vector<ir::Module> optimized;
  for (const std::string& name : opt.workloads) {
    optimized.push_back(report::build_optimized(workload_named(name)));
  }
  support::ThreadPool pool(4);
  for (const int double_bit : {0, 500}) {
    opt.double_bit_permille = double_bit;
    const resil::CampaignReport report = resil::run_campaign(opt);
    ASSERT_TRUE(report.all_ok());
    ASSERT_EQ(report.cells.size(), opt.machines.size() * opt.workloads.size());
    std::vector<ExecutedCell> want(report.cells.size());
    support::parallel_for(pool, report.cells.size(), [&](std::size_t i) {
      const std::size_t wi = i % opt.workloads.size();
      want[i] = executed_reference(opt.machines[i / opt.workloads.size()],
                                   workload_named(opt.workloads[wi]), optimized[wi], opt);
    });
    std::uint64_t analytic = 0;
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const resil::CellReport& got = report.cells[i];
      const std::string where =
          got.machine + "/" + got.workload + " double-bit " + std::to_string(double_bit);
      EXPECT_EQ(got.golden_cycles, want[i].golden_cycles) << where;
      EXPECT_EQ(got.imem_bits, want[i].imem_bits) << where;
      for (int t = 0; t < resil::kNumTargetKinds; ++t) {
        expect_tally_eq(got.targets[static_cast<std::size_t>(t)],
                        want[i].targets[static_cast<std::size_t>(t)],
                        where + " " + resil::target_kind_name(static_cast<resil::TargetKind>(t)));
      }
      expect_protect_eq(got.protect, want[i].protect, where);
      const auto path = [&](resil::InjectionPath p) {
        return got.paths[static_cast<std::size_t>(p)];
      };
      EXPECT_EQ(path(resil::InjectionPath::ImemAnalytic), want[i].imem_unescaped) << where;
      EXPECT_EQ(path(resil::InjectionPath::Scalar) + path(resil::InjectionPath::Resumed) +
                    path(resil::InjectionPath::ImemAnalytic),
                static_cast<std::uint64_t>(opt.injections_per_cell))
          << where;
      analytic += path(resil::InjectionPath::ImemAnalytic);
    }
    EXPECT_GT(analytic, report.cells.size()) << "the analytic path barely ran";
  }
}

// Every injection of a cell counts under exactly one serving path, on the
// batched, the per-injection and the protected campaign, and the registry's
// "resil.path.*" counters are the per-cell counts summed. A standalone run
// counts as `resumed` exactly when it skipped part of the golden prefix, and
// the resume counters are the per-cell figures summed too.
TEST(InjectionPaths, EveryInjectionCountsUnderExactlyOnePath) {
  resil::CampaignOptions batched = small_campaign();
  resil::CampaignOptions scalar = small_campaign();
  scalar.batch = false;
  resil::CampaignOptions protected_cells = protect_campaign();
  protected_cells.serial = false;
  std::vector<std::array<std::uint64_t, resil::kNumInjectionPaths>> sums_of;
  for (const resil::CampaignOptions* opt : {&batched, &scalar, &protected_cells}) {
    resil::CampaignOptions run = *opt;
    obs::Registry registry;
    run.registry = &registry;
    const resil::CampaignReport report = resil::run_campaign(run);
    ASSERT_TRUE(report.all_ok());
    std::array<std::uint64_t, resil::kNumInjectionPaths>& sums = sums_of.emplace_back();
    std::uint64_t skipped = 0;
    std::uint64_t snapshot_bytes = 0;
    for (const resil::CellReport& c : report.cells) {
      const std::string where = c.machine + "/" + c.workload;
      std::uint64_t total = 0;
      for (int p = 0; p < resil::kNumInjectionPaths; ++p) {
        total += c.paths[static_cast<std::size_t>(p)];
        sums[static_cast<std::size_t>(p)] += c.paths[static_cast<std::size_t>(p)];
      }
      EXPECT_EQ(total, c.total().injections) << where;
      const auto path = [&](resil::InjectionPath p) {
        return c.paths[static_cast<std::size_t>(p)];
      };
      const std::uint64_t lanes = path(resil::InjectionPath::BatchedConverged) +
                                  path(resil::InjectionPath::BatchedInDiff) +
                                  path(resil::InjectionPath::Evicted);
      EXPECT_EQ(lanes, c.batch_lanes) << where;
      EXPECT_EQ(path(resil::InjectionPath::Evicted), c.batch_evictions) << where;
      const std::uint64_t imem = c.targets[static_cast<std::size_t>(resil::TargetKind::Imem)].injections;
      const std::uint64_t standalone =
          path(resil::InjectionPath::Scalar) + path(resil::InjectionPath::Resumed);
      if (!c.protected_machine) {
        EXPECT_EQ(path(resil::InjectionPath::ImemAnalytic), 0u) << where;
        EXPECT_EQ(standalone, run.batch ? imem : c.total().injections) << where;
      } else {
        EXPECT_EQ(lanes, 0u) << where;
        EXPECT_LE(path(resil::InjectionPath::ImemAnalytic), imem) << where;
        EXPECT_EQ(standalone + path(resil::InjectionPath::ImemAnalytic), c.total().injections)
            << where;
      }
      EXPECT_EQ(c.resume_cycles_skipped > 0, path(resil::InjectionPath::Resumed) > 0) << where;
      EXPECT_GE(c.resume_cycles_skipped,
                path(resil::InjectionPath::Resumed) * resil::kSnapshotInterval)
          << where;
      EXPECT_GT(c.snapshot_bytes, 0u) << where;
      skipped += c.resume_cycles_skipped;
      snapshot_bytes += c.snapshot_bytes;
    }
    EXPECT_EQ(registry.counter("resil.resume.cycles_skipped"), skipped);
    EXPECT_EQ(registry.counter("resil.snapshot.bytes"), snapshot_bytes);
    for (int p = 0; p < resil::kNumInjectionPaths; ++p) {
      const std::string name =
          std::string("resil.path.") + resil::injection_path_name(static_cast<resil::InjectionPath>(p));
      EXPECT_EQ(registry.counter(name), sums[static_cast<std::size_t>(p)]) << name;
    }
  }
  // The batched campaign exercises the lockstep paths; the protected one the
  // analytic path.
  EXPECT_GT(sums_of[0][static_cast<std::size_t>(resil::InjectionPath::BatchedConverged)], 0u);
  EXPECT_GT(sums_of[0][static_cast<std::size_t>(resil::InjectionPath::BatchedInDiff)], 0u);
  EXPECT_GT(sums_of[2][static_cast<std::size_t>(resil::InjectionPath::ImemAnalytic)], 0u);
  // All three resume standalone runs: imem faults, --no-batch state faults,
  // protected state faults.
  for (const auto& sums : sums_of) {
    EXPECT_GT(sums[static_cast<std::size_t>(resil::InjectionPath::Resumed)], 0u);
  }
}

// ---------------------------------------------------------------------------
// Cancellation and the per-cell watchdog.

TEST(ProtectCampaign, CancelFlagTruncatesAtTheCellBoundary) {
  resil::CampaignOptions opt = protect_campaign();
  static volatile std::sig_atomic_t cancel = 1;  // raised before the campaign
  opt.cancel = &cancel;
  const resil::CampaignReport report = resil::run_campaign(opt);
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.cells.empty());
  const std::string json = resil::render_resil_report_json(report);
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(resil::render_resilience(report).find("truncated"), std::string::npos);
}

TEST(ProtectCampaign, WatchdogAbortsOrDegradesUnderKeepGoing) {
  resil::CampaignOptions opt = small_campaign();
  opt.serial = true;
  opt.cell_timeout_seconds = 1e-9;  // expired before the first injection
  EXPECT_THROW(resil::run_campaign(opt), Error);
  opt.keep_going = true;
  const resil::CampaignReport report = resil::run_campaign(opt);
  ASSERT_EQ(report.cells.size(), 2u);
  for (const resil::CellReport& c : report.cells) {
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.error.find("watchdog"), std::string::npos);
  }
  EXPECT_FALSE(report.all_ok());
}

// ---------------------------------------------------------------------------
// FPGA cost model: protection hardware is additive and unprotected
// estimates are untouched.

TEST(ProtectArea, CostIsAdditiveAndZeroWhenUnprotected) {
  for (const char* base : {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2"}) {
    const fpga::AreaReport plain = fpga::estimate_area(mach::machine_by_name(base));
    EXPECT_EQ(plain.protect_lut, 0) << base;
    int prev = 0;
    for (const char* prof : {"+parity", "+eccdmr", "+full"}) {
      const mach::Machine m = mach::machine_by_name(std::string(base) + prof);
      const fpga::AreaReport a = fpga::estimate_area(m);
      EXPECT_GT(a.protect_lut, prev) << base << prof;  // each tier costs more
      EXPECT_EQ(a.core_lut - plain.core_lut, a.protect_lut) << base << prof;
      prev = a.protect_lut;
    }
    const double plain_fmax = fpga::estimate_timing(mach::machine_by_name(base)).fmax_mhz;
    const double full_fmax =
        fpga::estimate_timing(mach::machine_by_name(std::string(base) + "+full")).fmax_mhz;
    EXPECT_LT(full_fmax, plain_fmax) << base;  // checkers sit on the path
  }
}

}  // namespace
}  // namespace ttsc
