// Execution-observer protocol tests: hand-assembled programs with
// hand-computed event counts on all three simulators, event-stream equality
// between the fast path and the reference interpreters, bitwise result
// identity with and without an attached observer, and an allocation bound
// proving the fast-path run loops allocate O(1) per run (nothing per
// cycle). Also pins the timeout regression semantics for VLIW and scalar
// (the TTA case lives in tta_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "mach/configs.hpp"
#include "scalar/scalar.hpp"
#include "sim/collectors.hpp"
#include "sim/predecode.hpp"
#include "tta/tta.hpp"
#include "tta/verify.hpp"
#include "vliw/vliw.hpp"

// ---- global allocation counting (FastPath.NoPerCycleAllocation) ---------------------
//
// Counts every operator-new in the binary; tests read the counter around a
// bounded region. Defined at global scope so it replaces the default
// implementation for the whole test binary.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC's -Wmismatched-new-delete pairs the inlined malloc in the replaced
// operator new with the free in the replaced operator delete and flags it,
// but a malloc/free-backed replacement of the full operator set is valid.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ttsc {
namespace {

using tta::Move;
using tta::MoveDst;
using tta::MoveSrc;
using tta::TtaProgram;

/// Records every event as one formatted line, so two runs can be compared
/// event-for-event (order included).
class RecordingObserver final : public sim::ExecObserver {
 public:
  void on_move(std::uint64_t cycle, int bus) override {
    add("move@" + std::to_string(cycle) + " bus" + std::to_string(bus));
  }
  void on_guard_squash(std::uint64_t cycle, int bus) override {
    add("squash@" + std::to_string(cycle) + " bus" + std::to_string(bus));
  }
  void on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) override {
    add("trig@" + std::to_string(cycle) + " fu" + std::to_string(fu) + " " +
        std::string(ir::opcode_name(op)));
  }
  void on_rf_read(std::uint64_t cycle, int rf, int index) override {
    add("read@" + std::to_string(cycle) + " rf" + std::to_string(rf) + "[" +
        std::to_string(index) + "]");
  }
  void on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) override {
    add("write@" + std::to_string(cycle) + " rf" + std::to_string(rf) + "[" +
        std::to_string(index) + "]=" + std::to_string(value));
  }
  void on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) override {
    add("stall@" + std::to_string(cycle) + " x" + std::to_string(stall_cycles));
  }
  void on_guard_write(std::uint64_t cycle, int guard, std::uint32_t value) override {
    add("gwrite@" + std::to_string(cycle) + " g" + std::to_string(guard) + "=" +
        std::to_string(value));
  }
  void on_store(std::uint64_t cycle, std::uint32_t addr, std::uint32_t value,
                std::uint8_t width) override {
    add("store@" + std::to_string(cycle) + " [" + std::to_string(addr) + "]=" +
        std::to_string(value) + " w" + std::to_string(static_cast<int>(width)));
  }

  const std::vector<std::string>& events() const { return events_; }

 private:
  void add(std::string s) { events_.push_back(std::move(s)); }
  std::vector<std::string> events_;
};

// ---- hand-assembled programs (same layouts as sim_semantics_test.cpp) ----------------

/// m-tta-1 / g-tta-2 layout: fu0 = lsu, fu1 = alu, fu2 = cu; rf0 = 32x32.
struct Asm {
  TtaProgram prog;

  Asm() { prog.block_entry = {0}; }

  tta::TtaInstruction& at(std::size_t pc) {
    if (prog.instrs.size() <= pc) prog.instrs.resize(pc + 1);
    return prog.instrs[pc];
  }
  void mv(std::size_t pc, int bus, MoveSrc src, MoveDst dst) {
    Move m;
    m.bus = bus;
    m.src = src;
    m.dst = dst;
    at(pc).moves.push_back(m);
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

/// cycle 0: 5 -> alu.o, 7 -> alu.t(add); cycle 1: return alu.r.
Asm tta_add_program() {
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(5), MoveDst::fu_operand(1));
  a.mv(0, 1, MoveSrc::immediate(7), MoveDst::fu_trigger(1, ir::Opcode::Add));
  a.ret(1, 0, 1, MoveSrc::fu_result(1));
  return a;
}

/// cycle 0: 77 -> rf0.3 (commits at cycle 1); cycle 1: return rf0.3.
Asm tta_rf_program() {
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(77), MoveDst::rf_write(0, 3));
  a.ret(1, 0, 1, MoveSrc::rf_read(0, 3));
  return a;
}

/// g-tta-2: guard0 = 1 at cycle 0; guard-true write executes at cycle 1,
/// guard-false write is squashed at cycle 2; return rf0.4 at cycle 3.
Asm tta_guard_program() {
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(1), MoveDst::guard_write(0));
  Move t;
  t.bus = 0;
  t.src = MoveSrc::immediate(111);
  t.dst = MoveDst::rf_write(0, 4);
  t.guard = 0;
  a.at(1).moves.push_back(t);
  Move f;
  f.bus = 1;
  f.src = MoveSrc::immediate(99);
  f.dst = MoveDst::rf_write(0, 4);
  f.guard = 0;
  f.guard_negate = true;
  a.at(2).moves.push_back(f);
  a.ret(3, 0, 1, MoveSrc::rf_read(0, 4));
  return a;
}

/// cycle 0: 123 -> lsu.o (value), 64 -> lsu.t(stw) (address — stores commit
/// in the trigger cycle); cycle 1: return 5.
Asm tta_store_program() {
  Asm a;
  a.mv(0, 0, MoveSrc::immediate(123), MoveDst::fu_operand(0));
  a.mv(0, 1, MoveSrc::immediate(64), MoveDst::fu_trigger(0, ir::Opcode::Stw));
  a.ret(1, 0, 1, MoveSrc::immediate(5));
  return a;
}

constexpr mach::PhysReg VR(int i) { return mach::PhysReg{0, static_cast<std::int16_t>(i)}; }

codegen::MInstr minstr(ir::Opcode op, mach::PhysReg dst, std::vector<codegen::MOperand> srcs,
                       std::vector<std::uint32_t> targets = {}) {
  codegen::MInstr in;
  in.op = op;
  in.dst = dst;
  in.srcs = std::move(srcs);
  in.targets = std::move(targets);
  return in;
}

/// cycle 0: r1 = 40 + 2; cycle 1: r2 = r1 + 0 (old r1); cycle 3: ret r1.
vliw::VliwProgram vliw_add_program() {
  vliw::VliwProgram p;
  p.num_slots = 2;
  p.block_entry = {0};
  p.bundles.resize(4);
  for (auto& b : p.bundles) b.slots.resize(2);
  p.bundles[0].slots[1] =
      vliw::SlotOp{minstr(ir::Opcode::Add, VR(1),
                          {codegen::MOperand::immediate(40), codegen::MOperand::immediate(2)}),
                   1};
  p.bundles[1].slots[1] = vliw::SlotOp{
      minstr(ir::Opcode::Add, VR(2),
             {codegen::MOperand(VR(1)), codegen::MOperand::immediate(0)}),
      1};
  p.bundles[3].slots[0] =
      vliw::SlotOp{minstr(ir::Opcode::Ret, {}, {codegen::MOperand(VR(1))}), 2};
  return p;
}

/// r1 = 40; r2 = r1 + 2; ret r2.
scalar::ScalarProgram scalar_add_program() {
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, VR(1), {codegen::MOperand::immediate(40)}));
  p.instrs.push_back(minstr(ir::Opcode::Add, VR(2),
                            {codegen::MOperand(VR(1)), codegen::MOperand::immediate(2)}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, {}, {codegen::MOperand(VR(2))}));
  return p;
}

/// mem[64] = 42 (srcs = {address, value}); ret 1.
scalar::ScalarProgram scalar_store_program() {
  scalar::ScalarProgram p;
  p.block_entry = {0};
  p.instrs.push_back(minstr(ir::Opcode::MovI, VR(1), {codegen::MOperand::immediate(42)}));
  p.instrs.push_back(minstr(ir::Opcode::Stw, {},
                            {codegen::MOperand::immediate(64), codegen::MOperand(VR(1))}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, {}, {codegen::MOperand::immediate(1)}));
  return p;
}

/// Countdown loop: r1 = n; do { r1 -= 1 } while (r1 != 0); ret 7.
scalar::ScalarProgram scalar_loop_program(std::int32_t n) {
  scalar::ScalarProgram p;
  p.block_entry = {0, 1};
  p.instrs.push_back(minstr(ir::Opcode::MovI, VR(1), {codegen::MOperand::immediate(n)}));
  p.instrs.push_back(minstr(ir::Opcode::Sub, VR(1),
                            {codegen::MOperand(VR(1)), codegen::MOperand::immediate(1)}));
  p.instrs.push_back(minstr(ir::Opcode::Bnz, {}, {codegen::MOperand(VR(1))}, {1}));
  p.instrs.push_back(minstr(ir::Opcode::Ret, {}, {codegen::MOperand::immediate(7)}));
  return p;
}

// ---- hand-computed event counts -----------------------------------------------------

TEST(TtaObserver, HandComputedCountsAddReturn) {
  const mach::Machine m = mach::make_m_tta_1();
  const Asm a = tta_add_program();
  tta::verify_program(a.prog, m);
  ir::Memory mem(1 << 12);
  sim::UtilizationCollector collector(m);
  tta::TtaSim sim(a.prog, m, mem, {.observer = &collector});
  const auto r = sim.run(1000);
  EXPECT_EQ(r.ret, 12u);
  EXPECT_EQ(r.cycles, 2u);

  const sim::UtilizationReport& rep = collector.report();
  // 4 transports: operand+trigger at cycle 0, ret value+trigger at cycle 1.
  EXPECT_EQ(rep.moves, 4u);
  EXPECT_EQ(rep.guard_squashes, 0u);
  // 2 operations fired: the Add and the control-unit Ret.
  EXPECT_EQ(rep.total_triggers(), 2u);
  ASSERT_EQ(rep.fu_triggers.size(), m.fus.size());
  EXPECT_EQ(rep.fu_triggers[1], 1u);  // alu
  EXPECT_EQ(rep.fu_triggers[2], 1u);  // cu
  EXPECT_EQ(rep.rf_reads, 0u);
  EXPECT_EQ(rep.rf_writes, 0u);
  ASSERT_EQ(rep.bus_busy.size(), m.buses.size());
  EXPECT_EQ(rep.bus_busy[0], 2u);
  EXPECT_EQ(rep.bus_busy[1], 2u);
  EXPECT_EQ(rep.op_histogram[static_cast<std::size_t>(ir::Opcode::Add)], 1u);
  EXPECT_EQ(rep.op_histogram[static_cast<std::size_t>(ir::Opcode::Ret)], 1u);
}

TEST(TtaObserver, RfWriteCommitCycleAndValue) {
  const mach::Machine m = mach::make_m_tta_1();
  const Asm a = tta_rf_program();
  tta::verify_program(a.prog, m);
  ir::Memory mem(1 << 12);
  RecordingObserver rec;
  tta::TtaSim sim(a.prog, m, mem, {.observer = &rec});
  EXPECT_EQ(sim.run(1000).ret, 77u);

  // The rf write issued at cycle 0 becomes architecturally visible at
  // cycle 1 — that is when the event fires — and the read at cycle 1 sees
  // it. Event order within a cycle: commits first, then the moves.
  const std::vector<std::string> want = {
      "move@0 bus0",          // 77 -> rf0.3
      "write@1 rf0[3]=77",    // commit
      "read@1 rf0[3]",        // ret value move reads it back
      "move@1 bus0",
      "move@1 bus1",
      "trig@1 fu2 ret",
  };
  EXPECT_EQ(rec.events(), want);
}

TEST(TtaObserver, GuardSquashDistinguishedFromExecutedMoves) {
  const mach::Machine m = mach::make_g_tta_2();
  const Asm a = tta_guard_program();
  tta::verify_program(a.prog, m);
  ir::Memory mem(1 << 12);
  sim::UtilizationCollector collector(m);
  tta::TtaSim sim(a.prog, m, mem, {.observer = &collector});
  const auto r = sim.run(1000);
  EXPECT_EQ(r.ret, 111u);

  const sim::UtilizationReport& rep = collector.report();
  // Executed: guard write, guard-true rf write, ret value, ret trigger.
  EXPECT_EQ(rep.moves, 4u);
  // Squashed: the guard-false write at cycle 2 (bus 1).
  EXPECT_EQ(rep.guard_squashes, 1u);
  // Bus occupancy counts squashed moves too.
  EXPECT_EQ(rep.moves + rep.guard_squashes, 5u);
  EXPECT_EQ(rep.rf_writes, 1u);  // only the guard-true write commits
  EXPECT_EQ(rep.rf_reads, 1u);   // ret reads rf0.4
  // A squashed move still occupied its bus slot.
  ASSERT_GE(rep.bus_busy.size(), 2u);
  EXPECT_EQ(rep.bus_busy[0] + rep.bus_busy[1], 5u);
}

TEST(TtaObserver, GuardWriteLatchCycleAndValue) {
  const mach::Machine m = mach::make_g_tta_2();
  const Asm a = tta_guard_program();
  tta::verify_program(a.prog, m);
  ir::Memory mem(1 << 12);
  RecordingObserver rec;
  tta::TtaSim sim(a.prog, m, mem, {.observer = &rec});
  EXPECT_EQ(sim.run(1000).ret, 111u);

  // The guard write issued at cycle 0 latches at cycle 1 — that is when
  // the event fires, mirroring the rf-write commit convention.
  std::vector<std::string> gwrites;
  for (const std::string& e : rec.events())
    if (e.rfind("gwrite@", 0) == 0) gwrites.push_back(e);
  const std::vector<std::string> want = {"gwrite@1 g0=1"};
  EXPECT_EQ(gwrites, want);
}

TEST(TtaObserver, StoreCommitsInTriggerCycle) {
  const mach::Machine m = mach::make_m_tta_1();
  const Asm a = tta_store_program();
  tta::verify_program(a.prog, m);
  ir::Memory mem(1 << 12);
  RecordingObserver rec;
  tta::TtaSim sim(a.prog, m, mem, {.observer = &rec});
  EXPECT_EQ(sim.run(1000).ret, 5u);
  EXPECT_EQ(mem.load32(64), 123u);

  // The trigger move carries the address, the operand latch holds the
  // value, and the side effect is architecturally visible in the trigger
  // cycle itself.
  std::vector<std::string> stores;
  for (const std::string& e : rec.events())
    if (e.rfind("store@", 0) == 0) stores.push_back(e);
  const std::vector<std::string> want = {"store@0 [64]=123 w4"};
  EXPECT_EQ(stores, want);
}

TEST(ScalarObserver, StoreReportsAddressValueWidth) {
  const mach::Machine m = mach::make_mblaze3();
  const scalar::ScalarProgram p = scalar_store_program();
  ir::Memory mem(1 << 12);
  RecordingObserver rec;
  scalar::ScalarSim sim(p, m, mem, {.observer = &rec});
  EXPECT_EQ(sim.run(10000).ret, 1u);
  EXPECT_EQ(mem.load32(64), 42u);

  std::vector<std::string> stores;
  for (const std::string& e : rec.events())
    if (e.rfind("store@", 0) == 0) stores.push_back(e);
  ASSERT_EQ(stores.size(), 1u);
  // The issue cycle depends on the timing model; pin the payload only.
  EXPECT_NE(stores[0].find(" [64]=42 w4"), std::string::npos) << stores[0];
}

TEST(VliwObserver, HandComputedCounts) {
  const mach::Machine m = mach::make_m_vliw_2();
  const vliw::VliwProgram p = vliw_add_program();
  ir::Memory mem(1 << 12);
  sim::UtilizationCollector collector(m);
  RecordingObserver rec;
  sim::TeeObserver tee(&collector, &rec);
  vliw::VliwSim sim(p, m, mem, {.observer = &tee});
  const auto r = sim.run(1000);
  EXPECT_EQ(r.ret, 42u);
  EXPECT_EQ(r.cycles, 4u);

  const sim::UtilizationReport& rep = collector.report();
  EXPECT_EQ(rep.total_triggers(), 3u);  // Add, Add, Ret
  EXPECT_EQ(rep.rf_reads, 2u);          // r1 at cycle 1, r1 at cycle 3
  // r1's write-back (issue 0, latency 1) commits at cycle 2; r2's at 3 —
  // and r2 is 0 because the second add read r1 before its commit.
  EXPECT_EQ(rep.rf_writes, 2u);
  EXPECT_EQ(rep.op_histogram[static_cast<std::size_t>(ir::Opcode::Add)], 2u);
  EXPECT_EQ(rep.op_histogram[static_cast<std::size_t>(ir::Opcode::Ret)], 1u);

  std::vector<std::string> writes;
  for (const std::string& e : rec.events())
    if (e.rfind("write@", 0) == 0) writes.push_back(e);
  const std::vector<std::string> want = {"write@2 rf0[1]=42", "write@3 rf0[2]=0"};
  EXPECT_EQ(writes, want);
}

TEST(ScalarObserver, HandComputedCounts) {
  const mach::Machine m = mach::make_mblaze3();
  const scalar::ScalarProgram p = scalar_add_program();
  ir::Memory mem(1 << 12);
  sim::UtilizationCollector collector(m);
  scalar::ScalarSim sim(p, m, mem, {.observer = &collector});
  const auto r = sim.run(10000);
  EXPECT_EQ(r.ret, 42u);

  const sim::UtilizationReport& rep = collector.report();
  EXPECT_EQ(rep.total_triggers(), 3u);  // MovI, Add, Ret: one per instruction
  EXPECT_EQ(rep.rf_reads, 2u);          // Add reads r1, Ret reads r2
  EXPECT_EQ(rep.rf_writes, 2u);         // r1, r2
  // Hazard stalls per the machine's timing model: each back-to-back
  // dependent use waits dependent_use_stall(producer) plus one cycle when
  // there is no forwarding network.
  const mach::ScalarTiming& t = m.scalar;
  const std::uint64_t gap_movi = static_cast<std::uint64_t>(
      scalar::dependent_use_stall(t, ir::Opcode::MovI) + (t.forwarding ? 0 : 1));
  const std::uint64_t gap_add = static_cast<std::uint64_t>(
      scalar::dependent_use_stall(t, ir::Opcode::Add) + (t.forwarding ? 0 : 1));
  EXPECT_EQ(rep.stall_cycles, gap_movi + gap_add);
}

// ---- fast path vs reference: identical event streams --------------------------------

template <typename SimT, typename ProgT>
std::vector<std::string> record_events(const ProgT& prog, const mach::Machine& m,
                                       bool fast_path) {
  ir::Memory mem(1 << 12);
  RecordingObserver rec;
  SimT sim(prog, m, mem, {.observer = &rec});
  if (fast_path) {
    sim.run(100000);
  } else {
    sim.run_reference(100000);
  }
  return rec.events();
}

TEST(ObserverStreams, IdenticalOnFastAndReferencePaths) {
  {
    const mach::Machine m = mach::make_m_tta_1();
    for (const Asm& a : {tta_add_program(), tta_rf_program(), tta_store_program()}) {
      EXPECT_EQ((record_events<tta::TtaSim>(a.prog, m, true)),
                (record_events<tta::TtaSim>(a.prog, m, false)));
    }
  }
  {
    const mach::Machine m = mach::make_g_tta_2();
    const Asm a = tta_guard_program();
    EXPECT_EQ((record_events<tta::TtaSim>(a.prog, m, true)),
              (record_events<tta::TtaSim>(a.prog, m, false)));
  }
  EXPECT_EQ(
      (record_events<vliw::VliwSim>(vliw_add_program(), mach::make_m_vliw_2(), true)),
      (record_events<vliw::VliwSim>(vliw_add_program(), mach::make_m_vliw_2(), false)));
  EXPECT_EQ(
      (record_events<scalar::ScalarSim>(scalar_loop_program(9), mach::make_mblaze3(), true)),
      (record_events<scalar::ScalarSim>(scalar_loop_program(9), mach::make_mblaze3(), false)));
  EXPECT_EQ((record_events<scalar::ScalarSim>(scalar_store_program(), mach::make_mblaze3(),
                                              true)),
            (record_events<scalar::ScalarSim>(scalar_store_program(), mach::make_mblaze3(),
                                              false)));
}

// ---- protocol coverage hygiene ------------------------------------------------------

/// Tallies calls per callback so the suite can assert that every hook in the
/// ExecObserver protocol is exercised by at least one engine. A callback no
/// engine fires would make downstream consumers (flight recorder, collectors)
/// dead code without any test noticing.
class CoverageObserver final : public sim::ExecObserver {
 public:
  enum Callback {
    kMove,
    kGuardSquash,
    kTrigger,
    kRfRead,
    kRfWrite,
    kStall,
    kBlockEnter,
    kExec,
    kOverhead,
    kGuardWrite,
    kStore,
    kNumCallbacks,
  };
  static const char* name(int cb) {
    static const char* names[kNumCallbacks] = {
        "on_move",  "on_guard_squash", "on_trigger",  "on_rf_read",
        "on_rf_write", "on_stall",     "on_block_enter", "on_exec",
        "on_overhead", "on_guard_write", "on_store"};
    return names[cb];
  }

  void on_move(std::uint64_t, int) override { ++counts[kMove]; }
  void on_guard_squash(std::uint64_t, int) override { ++counts[kGuardSquash]; }
  void on_trigger(std::uint64_t, int, ir::Opcode) override { ++counts[kTrigger]; }
  void on_rf_read(std::uint64_t, int, int) override { ++counts[kRfRead]; }
  void on_rf_write(std::uint64_t, int, int, std::uint32_t) override { ++counts[kRfWrite]; }
  void on_stall(std::uint64_t, std::uint64_t) override { ++counts[kStall]; }
  void on_block_enter(std::uint64_t, std::uint32_t) override { ++counts[kBlockEnter]; }
  void on_exec(std::uint64_t, std::uint32_t, bool) override { ++counts[kExec]; }
  void on_overhead(std::uint64_t, sim::OverheadKind, std::uint64_t) override {
    ++counts[kOverhead];
  }
  void on_guard_write(std::uint64_t, int, std::uint32_t) override { ++counts[kGuardWrite]; }
  void on_store(std::uint64_t, std::uint32_t, std::uint32_t, std::uint8_t) override {
    ++counts[kStore];
  }

  std::uint64_t counts[kNumCallbacks] = {};
};

TEST(ObserverProtocol, EveryCallbackExercisedBySomeEngine) {
  CoverageObserver cov;
  {
    // TTA: moves, squashes, triggers, rf traffic, guard writes.
    const mach::Machine m = mach::make_g_tta_2();
    const Asm a = tta_guard_program();
    tta::verify_program(a.prog, m);
    ir::Memory mem(1 << 12);
    tta::TtaSim(a.prog, m, mem, {.observer = &cov}).run(1000);
  }
  {
    // TTA: stores.
    const mach::Machine m = mach::make_m_tta_1();
    const Asm a = tta_store_program();
    tta::verify_program(a.prog, m);
    ir::Memory mem(1 << 12);
    tta::TtaSim(a.prog, m, mem, {.observer = &cov}).run(1000);
  }
  {
    // VLIW: bundle exec / block-entry events.
    const mach::Machine m = mach::make_m_vliw_2();
    ir::Memory mem(1 << 12);
    vliw::VliwSim(vliw_add_program(), m, mem, {.observer = &cov}).run(1000);
  }
  {
    // Scalar: frontend-fill/penalty overhead, plus a load-use hazard for
    // on_stall (mblaze-3 forwards ALU results, so only loads stall).
    const mach::Machine m = mach::make_mblaze3();
    scalar::ScalarProgram p;
    p.block_entry = {0};
    p.instrs.push_back(minstr(ir::Opcode::Ldw, VR(1), {codegen::MOperand::immediate(64)}));
    p.instrs.push_back(minstr(ir::Opcode::Add, VR(2),
                              {codegen::MOperand(VR(1)), codegen::MOperand::immediate(1)}));
    p.instrs.push_back(minstr(ir::Opcode::Ret, {}, {codegen::MOperand(VR(2))}));
    ir::Memory mem(1 << 12);
    scalar::ScalarSim(p, m, mem, {.observer = &cov}).run(10000);
  }
  for (int cb = 0; cb < CoverageObserver::kNumCallbacks; ++cb) {
    EXPECT_GT(cov.counts[cb], 0u)
        << "observer callback never exercised by any engine: " << CoverageObserver::name(cb);
  }
}

// ---- observer must not perturb execution --------------------------------------------

TEST(NullObserver, ResultsBitwiseIdenticalWithAndWithoutObserver) {
  const mach::Machine m = mach::make_g_tta_2();
  const Asm a = tta_guard_program();
  ir::Memory mem_plain(1 << 12);
  ir::Memory mem_observed(1 << 12);
  sim::UtilizationCollector collector(m);
  const auto plain = tta::TtaSim(a.prog, m, mem_plain).run(1000);
  const auto observed =
      tta::TtaSim(a.prog, m, mem_observed, {.observer = &collector}).run(1000);
  EXPECT_EQ(plain, observed);
  EXPECT_TRUE(mem_plain == mem_observed);

  ir::Memory vm_plain(1 << 12);
  ir::Memory vm_observed(1 << 12);
  sim::UtilizationCollector vcol(mach::make_m_vliw_2());
  EXPECT_EQ(vliw::VliwSim(vliw_add_program(), mach::make_m_vliw_2(), vm_plain).run(1000),
            vliw::VliwSim(vliw_add_program(), mach::make_m_vliw_2(), vm_observed,
                          {.observer = &vcol})
                .run(1000));

  ir::Memory sm_plain(1 << 12);
  ir::Memory sm_observed(1 << 12);
  sim::UtilizationCollector scol(mach::make_mblaze3());
  EXPECT_EQ(
      scalar::ScalarSim(scalar_loop_program(50), mach::make_mblaze3(), sm_plain).run(),
      scalar::ScalarSim(scalar_loop_program(50), mach::make_mblaze3(), sm_observed,
                        {.observer = &scol})
          .run());
}

// ---- allocation bound ---------------------------------------------------------------

TEST(FastPath, NoPerCycleAllocation) {
  // With the predecoded form supplied externally, a fast-path run allocates
  // a fixed set of per-run buffers and nothing per cycle: a 400-iteration
  // loop must allocate exactly as much as a 2-iteration one, and little of
  // it in absolute terms.
  const mach::Machine m = mach::make_mblaze3();
  const scalar::ScalarProgram short_prog = scalar_loop_program(2);
  const scalar::ScalarProgram long_prog = scalar_loop_program(400);
  auto pre_short = std::make_shared<const sim::PredecodedScalar>(sim::predecode(short_prog, m));
  auto pre_long = std::make_shared<const sim::PredecodedScalar>(sim::predecode(long_prog, m));

  auto count_allocs = [&](const scalar::ScalarProgram& prog,
                          std::shared_ptr<const sim::PredecodedScalar> pre) {
    ir::Memory mem(1 << 12);
    scalar::ScalarSim sim(prog, m, mem);
    sim.use_predecoded(std::move(pre));
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.run();
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(r.ret, 7u);
    return after - before;
  };

  const std::uint64_t allocs_short = count_allocs(short_prog, pre_short);
  const std::uint64_t allocs_long = count_allocs(long_prog, pre_long);
  EXPECT_EQ(allocs_short, allocs_long);
  EXPECT_LT(allocs_long, 64u);
}

// ---- timeout regressions (VLIW and scalar; TTA lives in tta_test.cpp) ---------------

TEST(Timeout, VliwReportsTimeoutWithExecutedCycles) {
  // Infinite loop: jump back to bundle 0 forever.
  const mach::Machine m = mach::make_m_vliw_2();
  vliw::VliwProgram p;
  p.num_slots = 2;
  p.block_entry = {0};
  p.bundles.resize(4);
  for (auto& b : p.bundles) b.slots.resize(2);
  p.bundles[0].slots[0] =
      vliw::SlotOp{minstr(ir::Opcode::Jump, {}, {}, {0}), 2};

  ir::Memory fast_mem(1 << 12);
  const auto fast = vliw::VliwSim(p, m, fast_mem).run(100);
  EXPECT_TRUE(fast.timed_out());
  EXPECT_EQ(fast.status, sim::ExecStatus::TimedOut);
  EXPECT_EQ(fast.cycles, 100u);

  ir::Memory ref_mem(1 << 12);
  const auto ref = vliw::VliwSim(p, m, ref_mem).run_reference(100);
  EXPECT_EQ(fast, ref);
}

TEST(Timeout, ScalarReportsTimeoutWithExecutedCycles) {
  // Countdown far larger than the cycle budget.
  const mach::Machine m = mach::make_mblaze3();
  const scalar::ScalarProgram p = scalar_loop_program(1000000);

  ir::Memory fast_mem(1 << 12);
  const auto fast = scalar::ScalarSim(p, m, fast_mem).run(200);
  EXPECT_TRUE(fast.timed_out());
  EXPECT_EQ(fast.status, sim::ExecStatus::TimedOut);
  EXPECT_LE(fast.cycles, 200u);
  ir::Memory observed_mem(1 << 12);
  sim::UtilizationCollector collector(m);
  EXPECT_EQ(scalar::ScalarSim(p, m, observed_mem, {.observer = &collector}).run(200), fast);
  EXPECT_GT(collector.report().total_triggers(), 0u);  // instructions did execute

  ir::Memory ref_mem(1 << 12);
  const auto ref = scalar::ScalarSim(p, m, ref_mem).run_reference(200);
  EXPECT_EQ(fast, ref);
}

}  // namespace
}  // namespace ttsc
