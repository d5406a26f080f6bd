// Binary encoding round trips, disassembly, dictionary compression, and
// interconnect exploration.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "codegen/lower.hpp"
#include "explore/explore.hpp"
#include "fpga/imem.hpp"
#include "mach/configs.hpp"
#include "report/driver.hpp"
#include "sim/collectors.hpp"
#include "tta/binary.hpp"
#include "tta/compress.hpp"
#include "tta/verify.hpp"
#include "vliw/vliw.hpp"

namespace ttsc::tta {
namespace {

struct Compiled {
  ir::Module module;
  TtaProgram program;
  mach::Machine machine;
};

Compiled compile(const workloads::Workload& w, const std::string& machine_name) {
  Compiled out{report::build_optimized(w), {}, mach::machine_by_name(machine_name)};
  const auto lowered = codegen::lower(out.module, "main", out.machine);
  out.program = schedule_tta(lowered.func, out.machine);
  return out;
}

struct Simulated {
  ExecResult result;
  sim::UtilizationReport utilization;  // transports per bus, triggers per FU
};

Simulated simulate(const Compiled& c, const TtaProgram& prog) {
  ir::Memory mem = report::make_loaded_memory(c.module);
  sim::UtilizationCollector collector(c.machine);
  TtaSim sim(prog, c.machine, mem, {.observer = &collector});
  const ExecResult result = sim.run();
  return {result, collector.report()};
}

// std::string, not const char*: gtest prints a pointer parameter's address
// into the test name, which would then change with every build.
class RoundTrip : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(RoundTrip, DecodeOfEncodeIsSemanticallyIdentical) {
  const auto& workload = workloads::all_workloads()[static_cast<std::size_t>(
      std::get<0>(GetParam()))];
  Compiled c = compile(workload, std::get<1>(GetParam()));

  const EncodedProgram encoded = encode_program(c.program, c.machine);
  EXPECT_EQ(encoded.instruction_count, c.program.instrs.size());
  EXPECT_EQ(encoded.bits_per_instruction, instruction_bits(c.machine));
  // The packed stream has exactly width x count bits (rounded to bytes).
  EXPECT_EQ(encoded.bits.size(),
            (static_cast<std::size_t>(encoded.instruction_count) *
                 static_cast<std::size_t>(encoded.bits_per_instruction) +
             7) /
                8);

  const TtaProgram decoded = decode_program(encoded, c.machine);
  ASSERT_EQ(decoded.instrs.size(), c.program.instrs.size());
  verify_program(decoded, c.machine);

  // Cycle-exact same behaviour, transport for transport: a decoder that
  // dropped or added a move with no architectural effect would still
  // change the per-bus move counts.
  const Simulated a = simulate(c, c.program);
  const Simulated b = simulate(c, decoded);
  EXPECT_EQ(a.result.ret, b.result.ret);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_TRUE(a.result == b.result);  // halt-time RF and guard state too
  EXPECT_GT(a.utilization.moves, 0u);
  EXPECT_EQ(a.utilization.moves, b.utilization.moves);
  EXPECT_EQ(a.utilization.guard_squashes, b.utilization.guard_squashes);
  EXPECT_EQ(a.utilization.bus_busy, b.utilization.bus_busy);
  EXPECT_EQ(a.utilization.fu_triggers, b.utilization.fu_triggers);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsOnMachines, RoundTrip,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(std::string("m-tta-1"), std::string("p-tta-2"),
                                         std::string("bm-tta-3"))),
    [](const auto& info) {
      std::string name = workloads::all_workloads()[static_cast<std::size_t>(
                             std::get<0>(info.param))].name +
                         "_" + std::get<1>(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Binary, MoveFieldsSurviveRoundTrip) {
  Compiled c = compile(workloads::make_blowfish(), "m-tta-2");
  const EncodedProgram encoded = encode_program(c.program, c.machine);
  const TtaProgram decoded = decode_program(encoded, c.machine);
  for (std::size_t pc = 0; pc < c.program.instrs.size(); ++pc) {
    const auto& orig = c.program.instrs[pc].moves;
    const auto& back = decoded.instrs[pc].moves;
    ASSERT_EQ(orig.size(), back.size()) << "pc " << pc;
    for (std::size_t i = 0; i < orig.size(); ++i) {
      // Moves are keyed by bus; find the counterpart.
      const Move* match = nullptr;
      for (const Move& mv : back) {
        if (mv.bus == orig[i].bus) match = &mv;
      }
      ASSERT_NE(match, nullptr);
      EXPECT_EQ(static_cast<int>(match->dst.kind), static_cast<int>(orig[i].dst.kind));
      EXPECT_EQ(match->dst.unit, orig[i].dst.unit);
      EXPECT_EQ(match->is_control, orig[i].is_control);
      if (orig[i].is_control) {
        EXPECT_EQ(match->target, orig[i].target);
      } else if (orig[i].src.kind == MoveSrc::Kind::Imm) {
        EXPECT_EQ(match->src.imm, orig[i].src.imm);
      } else {
        EXPECT_EQ(match->src.unit, orig[i].src.unit);
        EXPECT_EQ(match->src.reg_index, orig[i].src.reg_index);
      }
    }
  }
}

TEST(Binary, PoolDeduplicatesConstants) {
  Compiled c = compile(workloads::make_sha(), "m-tta-2");
  const EncodedProgram encoded = encode_program(c.program, c.machine);
  // SHA re-uses its round constants many times; the pool holds each once.
  EXPECT_GT(encoded.pool.size(), 0u);
  EXPECT_LT(encoded.pool.size(), 64u);
  for (std::size_t i = 0; i < encoded.pool.size(); ++i) {
    for (std::size_t j = i + 1; j < encoded.pool.size(); ++j) {
      EXPECT_NE(encoded.pool[i], encoded.pool[j]);
    }
  }
}

TEST(Binary, DisassemblyMentionsEveryUnit) {
  Compiled c = compile(workloads::make_mips(), "m-tta-1");
  const std::string text = disassemble(c.program, c.machine);
  EXPECT_NE(text.find("alu.t"), std::string::npos);
  EXPECT_NE(text.find("lsu.t"), std::string::npos);
  EXPECT_NE(text.find("cu.t:bnz"), std::string::npos);
  EXPECT_NE(text.find("B0:"), std::string::npos);
  EXPECT_NE(text.find("rf."), std::string::npos);
}

// ---- compression -----------------------------------------------------------------

TEST(Compression, DictionarySmallerThanProgram) {
  Compiled c = compile(workloads::make_aes(), "m-tta-2");
  const EncodedProgram encoded = encode_program(c.program, c.machine);
  const CompressionResult r = compress_dictionary(encoded);
  EXPECT_GT(r.dictionary_entries, 0u);
  EXPECT_LE(r.dictionary_entries, encoded.instruction_count);
  EXPECT_EQ(r.compressed_bits,
            static_cast<std::uint64_t>(encoded.instruction_count) *
                static_cast<std::uint64_t>(r.index_bits));
  // aes has enough instruction reuse to compress below the raw stream.
  EXPECT_LT(r.ratio(), 1.0);
}

TEST(Compression, AllUniqueProgramDoesNotExplode) {
  // Worst case bound: total <= original + dictionary.
  Compiled c = compile(workloads::make_blowfish(), "m-tta-1");
  const EncodedProgram encoded = encode_program(c.program, c.machine);
  const CompressionResult r = compress_dictionary(encoded);
  EXPECT_LE(r.total_bits(), r.original_bits + r.dictionary_bits + r.pool_bits);
}

// ---- instruction memory (BRAM) model ---------------------------------------------

TEST(Imem, WidthBoundForWideInstructions) {
  // An 85-bit instruction needs two 72-bit-wide BRAM lanes even when the
  // program is tiny.
  EXPECT_EQ(fpga::bram_blocks(1000, 85), 2);
  EXPECT_EQ(fpga::bram_blocks(1000, 48), 1);
  EXPECT_EQ(fpga::bram_blocks(0, 85), 0);
}

TEST(Imem, CapacityBoundForLargePrograms) {
  // 100 Kib at 32-bit words: capacity dominates (3 blocks).
  EXPECT_EQ(fpga::bram_blocks(100 * 1024, 32), 3);
}

TEST(Imem, CompressedSplitsIndexAndDictionary) {
  Compiled c = compile(workloads::make_aes(), "m-tta-2");
  const auto encoded = encode_program(c.program, c.machine);
  const auto comp = compress_dictionary(encoded);
  const int blocks = fpga::bram_blocks_compressed(comp, encoded.bits_per_instruction);
  EXPECT_GE(blocks, 2);  // at least one index block + one dictionary lane set
}

// ---- VLIW disassembly --------------------------------------------------------------

TEST(VliwDisasm, ListsSlotsAndLabels) {
  const workloads::Workload w = workloads::make_mips();
  const ir::Module optimized = report::build_optimized(w);
  const mach::Machine machine = mach::machine_by_name("m-vliw-2");
  const auto lowered = codegen::lower(optimized, "main", machine);
  const auto prog = vliw::schedule_vliw(lowered.func, machine);
  const std::string text = vliw::disassemble(prog, machine);
  EXPECT_NE(text.find("[nop]"), std::string::npos);
  EXPECT_NE(text.find("[alu add"), std::string::npos);
  EXPECT_NE(text.find("[lsu ldw"), std::string::npos);
  EXPECT_NE(text.find("B0:"), std::string::npos);
  EXPECT_NE(text.find("@B"), std::string::npos);
}

// ---- interconnect exploration -------------------------------------------------------

TEST(Exploration, GreedyMergingFindsSmallerDesigns) {
  const std::vector<workloads::Workload> suite = {workloads::make_blowfish(),
                                                  workloads::make_mips()};
  const auto trace =
      explore::explore_bus_merging(mach::machine_by_name("p-tta-2"), suite, 0.10);
  ASSERT_GE(trace.size(), 2u);
  EXPECT_TRUE(trace.front().accepted);
  // Monotone structure: each step removes one bus and narrows the format.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].buses, trace[i - 1].buses - 1);
    EXPECT_LT(trace[i].instruction_bits, trace[i - 1].instruction_bits);
    EXPECT_LT(trace[i].core_lut, trace[i - 1].core_lut);
    EXPECT_GE(trace[i].geomean_cycles, trace[i - 1].geomean_cycles * 0.999);
  }
  // At least one merged design is accepted within +10% cycles.
  int accepted_merged = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) accepted_merged += trace[i].accepted;
  EXPECT_GE(accepted_merged, 1);
}

TEST(Exploration, BudgetZeroStopsEarly) {
  const std::vector<workloads::Workload> suite = {workloads::make_mips()};
  const auto trace =
      explore::explore_bus_merging(mach::machine_by_name("m-tta-1"), suite, 0.0);
  // The 3-bus m-tta-1 is already tight: merging must stop quickly.
  EXPECT_LE(trace.size(), 3u);
  EXPECT_FALSE(trace.back().accepted && trace.size() > 2);
}

}  // namespace
}  // namespace ttsc::tta
