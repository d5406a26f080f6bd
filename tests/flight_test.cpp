// Flight-recorder and waveform-export tests: ring-buffer semantics
// (whole-cycle eviction, lifetime totals), VCD structural validity and a
// golden snapshot, byte-identity of recordings and rendered VCD between the
// fast path and the reference interpreter across a seeded 64-program corpus
// on all three engines, the "ttsc-flight-dump" v1 JSON shape, and
// first-divergence forensics down to hand-verified cycle/element verdicts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "ir/verify.hpp"
#include "mach/configs.hpp"
#include "obs/flight.hpp"
#include "opt/passes.hpp"
#include "report/driver.hpp"
#include "report/vcd.hpp"
#include "resil/forensics.hpp"
#include "scalar/scalar.hpp"
#include "support/thread_pool.hpp"
#include "tta/tta.hpp"
#include "tta/verify.hpp"
#include "vliw/vliw.hpp"

#include "program_generator.hpp"

namespace ttsc {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;
using propgen::ProgramGenerator;

// ---- ring-buffer semantics ----------------------------------------------------------

TEST(FlightRing, RetainsEverythingUnderCapacity) {
  FlightRecorder rec(mach::machine_by_name("m-tta-2"), /*capacity=*/64);
  rec.on_exec(0, 0, false);
  rec.on_move(0, 1);
  rec.on_exec(1, 1, false);
  rec.on_rf_write(2, 0, 3, 77);
  ASSERT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_events(), 4u);
  EXPECT_EQ(rec.dropped_events(), 0u);
  EXPECT_EQ(rec.dropped_cycles(), 0u);
  EXPECT_EQ(rec.first_cycle(), 0u);
  EXPECT_EQ(rec.last_cycle(), 2u);
  EXPECT_EQ(rec.at(0).kind, FlightEventKind::Exec);
  EXPECT_EQ(rec.at(1).kind, FlightEventKind::Move);
  EXPECT_EQ(rec.at(3).kind, FlightEventKind::RfWrite);
  EXPECT_EQ(rec.at(3).value, 77u);
}

TEST(FlightRing, EvictsWholeOldestCycles) {
  // Capacity 8, three events per cycle: cycle k occupies slots 3k..3k+2.
  // The 9th event (cycle 2) must evict all of cycle 0, never a partial
  // cycle — the window always starts at a cycle boundary.
  FlightRecorder rec(mach::machine_by_name("m-tta-2"), /*capacity=*/8);
  for (std::uint64_t c = 0; c < 4; ++c) {
    rec.on_exec(c, static_cast<std::uint32_t>(c), false);
    rec.on_move(c, 0);
    rec.on_move(c, 1);
  }
  EXPECT_EQ(rec.total_events(), 12u);
  EXPECT_GT(rec.dropped_events(), 0u);
  EXPECT_GT(rec.dropped_cycles(), 0u);
  // The retained window starts at a cycle boundary: its first event is the
  // Exec that opens that cycle.
  ASSERT_GT(rec.size(), 0u);
  EXPECT_EQ(rec.at(0).kind, FlightEventKind::Exec);
  EXPECT_EQ(rec.at(0).cycle, rec.first_cycle());
  // All evicted cycles precede all retained ones.
  EXPECT_EQ(rec.first_cycle(), rec.dropped_cycles());
  EXPECT_EQ(rec.last_cycle(), 3u);
  // Retained + dropped = offered.
  EXPECT_EQ(rec.size() + rec.dropped_events(), rec.total_events());

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_EQ(rec.first_cycle(), 0u);
}

// ---- compile helper (property-test pattern) -----------------------------------------

struct Compiled {
  ir::Module module;
  scalar::ScalarProgram scalar_prog;
  vliw::VliwProgram vliw_prog;
  tta::TtaProgram tta_prog;
};

/// Compile one generated module for `machine`, returning the scheduled
/// program for its model (the other two members stay empty).
Compiled compile_for(std::uint64_t seed, const mach::Machine& machine) {
  ProgramGenerator gen(seed);
  Compiled c;
  c.module = gen.generate();
  ir::verify(c.module);
  opt::optimize(c.module, "main");
  if (machine.model == mach::Model::Tta && machine.has_guards()) {
    opt::if_convert_selects(c.module.function("main"));
  }
  if (machine.model == mach::Model::Scalar) {
    codegen::legalize_scalar_operands(c.module.function("main"));
  }
  const auto lowered = codegen::lower(c.module, "main", machine);
  switch (machine.model) {
    case mach::Model::Scalar: c.scalar_prog = scalar::emit_scalar(lowered.func); break;
    case mach::Model::Vliw: c.vliw_prog = vliw::schedule_vliw(lowered.func, machine); break;
    case mach::Model::Tta:
      c.tta_prog = tta::schedule_tta(lowered.func, machine);
      tta::verify_program(c.tta_prog, machine);
      break;
  }
  return c;
}

/// Run the compiled program on its machine with a fresh recorder attached.
template <typename RunFn>
void record_run(const Compiled& c, const mach::Machine& machine, bool fast_path,
                FlightRecorder& rec, RunFn&& check) {
  ir::Memory mem = report::make_loaded_memory(c.module);
  const sim::SimOptions opts{.observer = &rec};
  const auto run = [&](auto&& sim) { return fast_path ? sim.run() : sim.run_reference(); };
  switch (machine.model) {
    case mach::Model::Scalar:
      check(run(scalar::ScalarSim(c.scalar_prog, machine, mem, opts)));
      break;
    case mach::Model::Vliw: check(run(vliw::VliwSim(c.vliw_prog, machine, mem, opts))); break;
    case mach::Model::Tta: check(run(tta::TtaSim(c.tta_prog, machine, mem, opts))); break;
  }
}

std::vector<FlightEvent> retained(const FlightRecorder& rec) {
  std::vector<FlightEvent> out;
  out.reserve(rec.size());
  for (std::size_t i = 0; i < rec.size(); ++i) out.push_back(rec.at(i));
  return out;
}

// ---- VCD structural validation ------------------------------------------------------

/// Parse a VCD document and assert its structural invariants: required
/// header sections, unique var identifiers, strictly increasing timestamps,
/// and value changes referencing only declared identifiers.
void validate_vcd(const std::string& vcd) {
  ASSERT_FALSE(vcd.empty());
  EXPECT_NE(vcd.find("$date"), std::string::npos);
  EXPECT_NE(vcd.find("$version"), std::string::npos);
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  ASSERT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);

  std::set<std::string> ids;
  std::istringstream in(vcd);
  std::string line;
  bool in_defs = true;
  std::int64_t last_time = -1;
  while (std::getline(in, line)) {
    if (line.rfind("$enddefinitions", 0) == 0) {
      in_defs = false;
      continue;
    }
    if (in_defs) {
      if (line.rfind("$var ", 0) != 0) continue;
      // $var wire <width> <id> <name> $end
      std::istringstream ls(line);
      std::string var, wire, width, id, name;
      ls >> var >> wire >> width >> id >> name;
      EXPECT_EQ(wire, "wire") << line;
      EXPECT_GT(std::atoi(width.c_str()), 0) << line;
      EXPECT_TRUE(ids.insert(id).second) << "duplicate var id: " << line;
      continue;
    }
    if (line.empty() || line[0] == '$') continue;
    if (line[0] == '#') {
      const std::int64_t t = std::atoll(line.c_str() + 1);
      EXPECT_GT(t, last_time) << "non-monotone timestamp: " << line;
      last_time = t;
      continue;
    }
    // Value change: scalar "<v><id>" or vector "b<bits> <id>".
    std::string id;
    if (line[0] == 'b') {
      const std::size_t sp = line.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      id = line.substr(sp + 1);
      for (std::size_t i = 1; i < sp; ++i) EXPECT_TRUE(line[i] == '0' || line[i] == '1') << line;
    } else {
      EXPECT_TRUE(line[0] == '0' || line[0] == '1' || line[0] == 'x' || line[0] == 'z') << line;
      id = line.substr(1);
    }
    EXPECT_TRUE(ids.count(id)) << "value change for undeclared id: " << line;
  }
  EXPECT_FALSE(ids.empty());
}

TEST(Vcd, StructurallyValidOnAllThreeEngines) {
  for (const char* name : {"mblaze-3", "m-vliw-2", "m-tta-2", "g-tta-2"}) {
    const mach::Machine machine = mach::machine_by_name(name);
    const Compiled c = compile_for(0x5eedc0de, machine);
    FlightRecorder rec(machine);
    record_run(c, machine, /*fast_path=*/true, rec,
               [](const auto& r) { EXPECT_EQ(r.status, sim::ExecStatus::Ok); });
    ASSERT_GT(rec.size(), 0u) << name;
    SCOPED_TRACE(name);
    validate_vcd(report::render_vcd(rec));
  }
}

// ---- golden VCD snapshot ------------------------------------------------------------

std::string golden_vcd_path() { return std::string(TTSC_GOLDEN_DIR) + "/flight_smoke.vcd"; }

// Golden snapshot: any change to scheduler tie-breaks, observer event
// ordering or the VCD renderer shows up as an explicit diff. Regenerate
// after an intentional change with:
//   TTSC_UPDATE_GOLDEN=1 ./tests/flight_test
TEST(Vcd, MatchesGoldenSnapshot) {
  const mach::Machine machine = mach::machine_by_name("m-tta-2");
  const Compiled c = compile_for(0x5eedc0de, machine);
  FlightRecorder rec(machine);
  record_run(c, machine, /*fast_path=*/true, rec, [](const auto&) {});
  const std::string got = report::render_vcd(rec);

  if (std::getenv("TTSC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_vcd_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_vcd_path();
    out << got;
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_vcd_path();
  }
  std::ifstream in(golden_vcd_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_vcd_path()
                         << " (run with TTSC_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), got) << "VCD diverged from golden snapshot";
}

// ---- fast path vs reference: byte-identical recordings and waveforms ----------------

/// The differential contract behind every forensic artifact: on a 64-seed
/// corpus, each engine's fast path and reference interpreter must produce
/// the exact same event recording — and therefore byte-identical VCD.
TEST(FlightDifferential, RecordingsIdenticalOnFastAndReferencePaths) {
  constexpr std::uint64_t kCorpusSize = 64;
  const std::vector<mach::Machine> machines = {
      mach::machine_by_name("mblaze-3"), mach::machine_by_name("m-vliw-2"),
      mach::machine_by_name("m-tta-2"), mach::machine_by_name("g-tta-2")};

  // gtest assertions are not guaranteed thread-safe: workers write one
  // failure report per seed, asserted after the fleet drains.
  std::vector<std::string> failures(kCorpusSize);
  support::ThreadPool pool(8);
  support::parallel_for(&pool, kCorpusSize, [&](std::size_t idx) {
    const std::uint64_t seed = 0xf11e47 + idx;
    for (const mach::Machine& machine : machines) {
      const Compiled c = compile_for(seed, machine);
      FlightRecorder fast(machine);
      FlightRecorder ref(machine);
      record_run(c, machine, /*fast_path=*/true, fast, [](const auto&) {});
      record_run(c, machine, /*fast_path=*/false, ref, [](const auto&) {});
      if (retained(fast) != retained(ref)) {
        failures[idx] += "seed " + std::to_string(seed) + ": recording diverges on " +
                         machine.name + "\n";
        continue;
      }
      if (report::render_vcd(fast) != report::render_vcd(ref)) {
        failures[idx] +=
            "seed " + std::to_string(seed) + ": VCD diverges on " + machine.name + "\n";
      }
    }
  });
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
}

// ---- flight-dump JSON ---------------------------------------------------------------

TEST(FlightDump, RendersSchemaV1WithEventsAndTotals) {
  const mach::Machine machine = mach::machine_by_name("m-tta-2");
  const Compiled c = compile_for(0x5eedc0de, machine);
  FlightRecorder rec(machine);
  std::uint64_t cycles = 0;
  record_run(c, machine, /*fast_path=*/true, rec, [&](const auto& r) { cycles = r.cycles; });

  obs::FlightDumpInfo info;
  info.machine = machine.name;
  info.workload = "propgen-5eedc0de";
  info.engine = "tta";
  info.status = "ok";
  info.cycles = cycles;
  info.ret = 42;
  const std::string json = obs::render_flight_dump(rec, info);

  EXPECT_NE(json.find("\"schema\":\"ttsc-flight-dump\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"machine\":\"m-tta-2\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"tta\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"exec\""), std::string::npos);
  // Deterministic: same recording, same info -> same bytes.
  EXPECT_EQ(json, obs::render_flight_dump(rec, info));
}

// ---- first-divergence forensics -----------------------------------------------------

resil::CommitRecorder make_recorder(std::uint64_t start = 0, std::uint64_t window = 4096,
                                    std::size_t max_events = 1u << 15) {
  return resil::CommitRecorder({.start_cycle = start, .window_cycles = window,
                                .max_events = max_events});
}

TEST(Forensics, IdenticalCompleteStreamsReportNoDivergence) {
  resil::CommitRecorder a = make_recorder();
  resil::CommitRecorder b = make_recorder();
  for (resil::CommitRecorder* r : {&a, &b}) {
    r->on_exec(0, 0, false);
    r->on_rf_write(1, 0, 3, 7);
    r->on_store(2, 64, 99, 4);
  }
  const resil::DivergenceRecord d = resil::first_divergence(a, b);
  EXPECT_FALSE(d.found);
  EXPECT_FALSE(d.beyond_window);
  EXPECT_EQ(d.compared_events, 3u);
}

TEST(Forensics, FirstDivergingRfCommitWinsWithBothValues) {
  resil::CommitRecorder golden = make_recorder();
  resil::CommitRecorder faulty = make_recorder();
  for (resil::CommitRecorder* r : {&golden, &faulty}) {
    r->on_exec(5, 10, false);
    r->on_rf_write(6, 0, 3, 40);
  }
  golden.on_rf_write(7, 1, 4, 100);
  faulty.on_rf_write(7, 1, 4, 228);  // same cell, different value
  golden.on_store(9, 64, 1, 4);      // later divergence must not win
  faulty.on_store(9, 68, 1, 4);

  const resil::DivergenceRecord d = resil::first_divergence(golden, faulty);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.cycle, 7u);
  EXPECT_EQ(d.element, resil::DivergedElement::RfCell);
  EXPECT_EQ(d.unit, 1);
  EXPECT_EQ(d.index, 4);
  EXPECT_EQ(d.golden_value, 100u);
  EXPECT_EQ(d.faulty_value, 228u);
}

TEST(Forensics, ControlFlowDivergenceReportsPc) {
  resil::CommitRecorder golden = make_recorder();
  resil::CommitRecorder faulty = make_recorder();
  golden.on_exec(3, 12, false);
  faulty.on_exec(3, 20, false);  // branch went the other way
  const resil::DivergenceRecord d = resil::first_divergence(golden, faulty);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.cycle, 3u);
  EXPECT_EQ(d.element, resil::DivergedElement::Pc);
  EXPECT_EQ(d.golden_value, 12u);
  EXPECT_EQ(d.faulty_value, 20u);
}

TEST(Forensics, EarlyHaltReportsHaltAtNextCommit) {
  resil::CommitRecorder golden = make_recorder();
  resil::CommitRecorder faulty = make_recorder();
  for (resil::CommitRecorder* r : {&golden, &faulty}) r->on_exec(0, 0, false);
  golden.on_exec(4, 1, false);  // faulty run stopped committing
  const resil::DivergenceRecord d = resil::first_divergence(golden, faulty);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.element, resil::DivergedElement::Halt);
  EXPECT_EQ(d.cycle, 4u);
}

TEST(Forensics, IdenticalTruncatedStreamsReportBeyondWindow) {
  resil::CommitRecorder golden = make_recorder(/*start=*/0, /*window=*/2);
  resil::CommitRecorder faulty = make_recorder(/*start=*/0, /*window=*/2);
  for (resil::CommitRecorder* r : {&golden, &faulty}) {
    r->on_exec(0, 0, false);
    r->on_exec(1, 1, false);
    r->on_exec(5, 9, false);  // past the window: dropped, marks truncation
  }
  EXPECT_TRUE(golden.truncated());
  const resil::DivergenceRecord d = resil::first_divergence(golden, faulty);
  EXPECT_FALSE(d.found);
  EXPECT_TRUE(d.beyond_window);
}

TEST(Forensics, WindowFiltersPreFaultCommits) {
  resil::CommitRecorder rec = make_recorder(/*start=*/10, /*window=*/100);
  rec.on_rf_write(9, 0, 1, 1);    // pre-fault: excluded, not truncation
  rec.on_rf_write(10, 0, 1, 2);   // first in-window commit
  rec.on_rf_read(11, 0, 1);       // non-commit events never recorded
  rec.on_rf_write(11, 0, 2, 3);
  EXPECT_FALSE(rec.truncated());
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].cycle, 10u);
}

/// End-to-end hand-verified divergence: the same scalar program with one
/// constant flipped (a stuck-at fault in the instruction stream) must
/// report its first divergence at the corrupted value's commit, not at the
/// downstream store that consumes it.
TEST(Forensics, EndToEndScalarFaultPinpointsFirstCommit) {
  const mach::Machine machine = mach::machine_by_name("mblaze-3");
  auto build = [](std::int32_t imm) {
    scalar::ScalarProgram p;
    p.block_entry = {0};
    auto minstr = [](ir::Opcode op, mach::PhysReg dst, std::vector<codegen::MOperand> srcs) {
      codegen::MInstr in;
      in.op = op;
      in.dst = dst;
      in.srcs = std::move(srcs);
      return in;
    };
    const mach::PhysReg r1{0, 1};
    const mach::PhysReg r2{0, 2};
    p.instrs.push_back(minstr(ir::Opcode::MovI, r1, {codegen::MOperand::immediate(imm)}));
    p.instrs.push_back(
        minstr(ir::Opcode::Add, r2, {codegen::MOperand(r1), codegen::MOperand::immediate(2)}));
    p.instrs.push_back(minstr(ir::Opcode::Stw, {},
                              {codegen::MOperand::immediate(64), codegen::MOperand(r2)}));
    p.instrs.push_back(minstr(ir::Opcode::Ret, {}, {codegen::MOperand(r2)}));
    return p;
  };

  resil::CommitRecorder golden = make_recorder();
  resil::CommitRecorder faulty = make_recorder();
  {
    ir::Memory mem(1 << 12);
    scalar::ScalarSim(build(40), machine, mem, {.observer = &golden}).run(10000);
  }
  {
    ir::Memory mem(1 << 12);
    scalar::ScalarSim(build(41), machine, mem, {.observer = &faulty}).run(10000);
  }
  const resil::DivergenceRecord d = resil::first_divergence(golden, faulty);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.element, resil::DivergedElement::RfCell);
  EXPECT_EQ(d.unit, 0);
  EXPECT_EQ(d.index, 1);
  EXPECT_EQ(d.golden_value, 40u);
  EXPECT_EQ(d.faulty_value, 41u);
  // Both streams committed the same number of events before the verdict's
  // position: pc commits and the MovI's write-back precede it.
  EXPECT_GT(d.compared_events, 0u);
}

}  // namespace
}  // namespace ttsc
