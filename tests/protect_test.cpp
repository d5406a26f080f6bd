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
//    additive protection overhead.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fpga/model.hpp"
#include "mach/configs.hpp"
#include "obs/metrics.hpp"
#include "resil/campaign.hpp"
#include "resil/fault_plan.hpp"
#include "sim/fault.hpp"
#include "sim/protect.hpp"
#include "support/assert.hpp"
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
