// Property-based end-to-end testing: randomly generated structured
// programs must produce identical results on the reference interpreter
// (unoptimized IR) and on every backend (optimized, register-allocated,
// scheduled, simulated). This sweeps the whole toolchain — optimizer
// soundness, allocator correctness, scheduler legality and simulator
// fidelity — across program shapes no hand-written test covers.
#include <gtest/gtest.h>

#include <atomic>
#include <type_traits>

#include "codegen/legalize.hpp"
#include "prof/prof.hpp"
#include "codegen/lower.hpp"
#include "ir/builder.hpp"
#include "ir/interp.hpp"
#include "ir/verify.hpp"
#include "mach/configs.hpp"
#include "opt/passes.hpp"
#include "opt/superblock.hpp"
#include "report/driver.hpp"
#include "sim/collectors.hpp"
#include "scalar/scalar.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tta/tta.hpp"
#include "tta/binary.hpp"
#include "tta/verify.hpp"
#include "vliw/vliw.hpp"
#include "workloads/common.hpp"

#include "program_generator.hpp"

namespace ttsc {
namespace {

using ir::IRBuilder;
using ir::Opcode;
using ir::Operand;
using ir::Vreg;

using propgen::ProgramGenerator;

struct Observed {
  std::uint32_t ret;
  std::uint64_t out_checksum;
};

Observed observe_interp(const ir::Module& m) {
  ir::Interpreter interp(m);
  const auto r = interp.run("main", {});
  return {r.value, interp.memory().checksum(m.layout().address_of("out"), 256)};
}

class BackendEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendEquivalence, AllBackendsMatchInterpreter) {
  ProgramGenerator gen(GetParam());
  ir::Module original = gen.generate();
  ir::verify(original);
  const Observed golden = observe_interp(original);

  // Optimizer soundness: optimized IR behaves identically.
  ir::Module optimized = original;
  opt::optimize(optimized, "main");
  const Observed after_opt = observe_interp(optimized);
  EXPECT_EQ(after_opt.ret, golden.ret) << "optimizer broke seed " << GetParam();
  EXPECT_EQ(after_opt.out_checksum, golden.out_checksum);

  // If-conversion soundness (library feature, off by default in the driver).
  {
    ir::Module converted = optimized;
    opt::if_convert(converted.function("main"));
    const Observed after_ic = observe_interp(converted);
    EXPECT_EQ(after_ic.ret, golden.ret) << "if-conversion broke seed " << GetParam();
    EXPECT_EQ(after_ic.out_checksum, golden.out_checksum);
  }

  for (const char* name :
       {"mblaze-3", "mblaze-5", "m-tta-1", "m-vliw-2", "p-tta-2", "m-vliw-3", "bm-tta-3"}) {
    const mach::Machine machine = mach::machine_by_name(name);
    ir::Module prepared = optimized;
    if (machine.model == mach::Model::Scalar) {
      codegen::legalize_scalar_operands(prepared.function("main"));
    }
    const auto lowered = codegen::lower(prepared, "main", machine);
    ir::Memory mem = report::make_loaded_memory(prepared);
    std::uint32_t ret = 0;
    switch (machine.model) {
      case mach::Model::Scalar: {
        const auto prog = scalar::emit_scalar(lowered.func);
        ret = scalar::ScalarSim(prog, machine, mem).run().ret;
        break;
      }
      case mach::Model::Vliw: {
        const auto prog = vliw::schedule_vliw(lowered.func, machine);
        ret = vliw::VliwSim(prog, machine, mem).run().ret;
        break;
      }
      case mach::Model::Tta: {
        const auto prog = tta::schedule_tta(lowered.func, machine);
        tta::verify_program(prog, machine);
        ret = tta::TtaSim(prog, machine, mem).run().ret;
        break;
      }
    }
    EXPECT_EQ(ret, golden.ret) << name << " seed " << GetParam();
    EXPECT_EQ(mem.checksum(prepared.layout().address_of("out"), 256), golden.out_checksum)
        << name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, BackendEquivalence,
                         ::testing::Range<std::uint64_t>(1, 33));

/// The generator's branch-bias mask distribution is pinned: superblock
/// formation needs biased (non-50/50) branches to form traces, so a quiet
/// regression back to uniform conditions would hollow out the superblock
/// differential fleet below without failing it. kMasks changes must come
/// with a deliberate update here.
TEST(GeneratorBias, MaskDistributionIsPinned) {
  SplitMix64 rng(0xb1a5);
  constexpr int kDraws = 4096;
  int counts[8] = {};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint32_t mask = ProgramGenerator::branch_bias_mask(rng);
    ASSERT_TRUE(mask == 1 || mask == 3 || mask == 7) << "undeclared mask " << mask;
    ++counts[mask];
  }
  // Masks 1 and 3 each ~25% of draws, mask 7 ~50%, with sampling slack.
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.25, 0.05);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws), 0.25, 0.05);
  EXPECT_NEAR(counts[7] / static_cast<double>(kDraws), 0.50, 0.05);
  // The load-bearing property: biased diamonds dominate the corpus.
  EXPECT_GE((counts[3] + counts[7]) / static_cast<double>(kDraws), 0.65);
}

/// The TTA freedoms individually toggled must preserve random-program
/// semantics too (beyond the fixed workloads).
class FreedomEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FreedomEquivalence, EveryOptionMaskMatches) {
  ProgramGenerator gen(GetParam() * 977);
  ir::Module original = gen.generate();
  const Observed golden = observe_interp(original);
  ir::Module optimized = original;
  opt::optimize(optimized, "main");
  const mach::Machine machine = mach::machine_by_name("p-tta-3");
  const auto lowered = codegen::lower(optimized, "main", machine);

  for (int mask = 0; mask < 16; ++mask) {
    tta::TtaOptions opt;
    opt.software_bypass = (mask & 1) != 0;
    opt.dead_result_elim = (mask & 2) != 0;
    opt.operand_share = (mask & 4) != 0;
    opt.early_control = (mask & 8) != 0;
    const auto prog = tta::schedule_tta(lowered.func, machine, opt);
    tta::verify_program(prog, machine);
    ir::Memory mem = report::make_loaded_memory(optimized);
    const auto r = tta::TtaSim(prog, machine, mem).run();
    EXPECT_EQ(r.ret, golden.ret) << "mask " << mask << " seed " << GetParam();
    EXPECT_EQ(mem.checksum(optimized.layout().address_of("out"), 256), golden.out_checksum)
        << "mask " << mask << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FreedomEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Differential test fleet: a seeded corpus of generated programs, each
/// compiled through the TTA, VLIW and scalar pipelines and cross-checked
/// against the reference interpreter (return value + output checksum),
/// with the corpus fanned out across the experiment engine's thread pool.
/// Beyond coverage, this hammers the toolchain's thread-safety: many
/// full pipelines (including the shared golden-outcome cache inside
/// report::compile_and_run) run concurrently.
TEST(DifferentialFleet, SeededCorpusMatchesInterpreterOnAllModels) {
  constexpr std::uint64_t kCorpusSize = 64;
  // One machine per programming model (plus a partitioned TTA): the fleet
  // is about cross-model agreement, the per-machine sweep above is about
  // breadth.
  const std::vector<mach::Machine> machines = {
      mach::machine_by_name("mblaze-3"), mach::machine_by_name("m-vliw-2"),
      mach::machine_by_name("m-tta-2"), mach::machine_by_name("p-tta-3")};

  // gtest assertions are not guaranteed thread-safe: workers write one
  // failure report per seed, asserted after the fleet drains.
  std::vector<std::string> failures(kCorpusSize);
  support::ThreadPool pool(8);
  support::parallel_for(&pool, kCorpusSize, [&](std::size_t idx) {
    const std::uint64_t seed = 0x5eedc0de + idx;
    ProgramGenerator gen(seed);
    ir::Module original = gen.generate();
    ir::verify(original);
    const Observed golden = observe_interp(original);

    ir::Module optimized = original;
    opt::optimize(optimized, "main");

    for (const mach::Machine& machine : machines) {
      ir::Module prepared = optimized;
      if (machine.model == mach::Model::Tta && machine.has_guards()) {
        opt::if_convert_selects(prepared.function("main"));
      }
      if (machine.model == mach::Model::Scalar) {
        codegen::legalize_scalar_operands(prepared.function("main"));
      }
      const auto lowered = codegen::lower(prepared, "main", machine);
      ir::Memory mem = report::make_loaded_memory(prepared);
      std::uint32_t ret = 0;
      switch (machine.model) {
        case mach::Model::Scalar:
          ret = scalar::ScalarSim(scalar::emit_scalar(lowered.func), machine, mem).run().ret;
          break;
        case mach::Model::Vliw:
          ret = vliw::VliwSim(vliw::schedule_vliw(lowered.func, machine), machine, mem)
                    .run()
                    .ret;
          break;
        case mach::Model::Tta: {
          const auto prog = tta::schedule_tta(lowered.func, machine);
          tta::verify_program(prog, machine);
          ret = tta::TtaSim(prog, machine, mem).run().ret;
          break;
        }
      }
      const std::uint64_t checksum = mem.checksum(prepared.layout().address_of("out"), 256);
      if (ret != golden.ret || checksum != golden.out_checksum) {
        failures[idx] += "seed " + std::to_string(seed) + " diverges on " + machine.name +
                         ": ret " + std::to_string(ret) + " vs " + std::to_string(golden.ret) +
                         ", checksum " + std::to_string(checksum) + " vs " +
                         std::to_string(golden.out_checksum) + "\n";
      }
    }
  });
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
}

/// Cycle-exact differential suite for the predecoded simulator fast path:
/// every generated program, on every machine configuration the paper
/// evaluates (all 13) plus the guarded-TTA variants, must produce an
/// ExecResult — cycles, timeout status, return value and the halt-time
/// register-file/guard state — and a memory image
/// bit-identical between the fast path and the reference interpreter loop
/// (run_reference()). Any divergence in tie-break handling,
/// write-back timing or squash semantics shows up here as a field-level
/// mismatch.
TEST(FastPathDifferential, CycleExactOnAllMachineConfigs) {
  constexpr std::uint64_t kCorpusSize = 64;
  std::vector<mach::Machine> machines = mach::all_machines();
  machines.push_back(mach::machine_by_name("g-tta-2"));
  machines.push_back(mach::machine_by_name("g-tta-3"));

  // gtest assertions are not guaranteed thread-safe: workers write one
  // failure report per seed, asserted after the fleet drains.
  std::vector<std::string> failures(kCorpusSize);
  support::ThreadPool pool(8);
  support::parallel_for(&pool, kCorpusSize, [&](std::size_t idx) {
    const std::uint64_t seed = 0xd1ffc0de + idx;
    ProgramGenerator gen(seed);
    ir::Module original = gen.generate();
    ir::Module optimized = original;
    opt::optimize(optimized, "main");

    auto fail = [&](const mach::Machine& m, const std::string& what) {
      failures[idx] +=
          "seed " + std::to_string(seed) + " on " + m.name + ": " + what + "\n";
    };
    auto mismatch = [](std::uint64_t fast_cycles, std::uint64_t ref_cycles) {
      return "fast path diverges from reference (cycles " + std::to_string(fast_cycles) +
             " vs " + std::to_string(ref_cycles) + ")";
    };

    for (const mach::Machine& machine : machines) {
      ir::Module prepared = optimized;
      if (machine.model == mach::Model::Tta && machine.has_guards()) {
        opt::if_convert_selects(prepared.function("main"));
      }
      if (machine.model == mach::Model::Scalar) {
        codegen::legalize_scalar_operands(prepared.function("main"));
      }
      const auto lowered = codegen::lower(prepared, "main", machine);
      ir::Memory fast_mem = report::make_loaded_memory(prepared);
      ir::Memory ref_mem = report::make_loaded_memory(prepared);
      switch (machine.model) {
        case mach::Model::Scalar: {
          const auto prog = scalar::emit_scalar(lowered.func);
          const auto fast = scalar::ScalarSim(prog, machine, fast_mem).run();
          const auto ref = scalar::ScalarSim(prog, machine, ref_mem).run_reference();
          if (!(fast == ref)) fail(machine, mismatch(fast.cycles, ref.cycles));
          break;
        }
        case mach::Model::Vliw: {
          const auto prog = vliw::schedule_vliw(lowered.func, machine);
          const auto fast = vliw::VliwSim(prog, machine, fast_mem).run();
          const auto ref = vliw::VliwSim(prog, machine, ref_mem).run_reference();
          if (!(fast == ref)) fail(machine, mismatch(fast.cycles, ref.cycles));
          break;
        }
        case mach::Model::Tta: {
          const auto prog = tta::schedule_tta(lowered.func, machine);
          const auto fast = tta::TtaSim(prog, machine, fast_mem).run();
          const auto ref = tta::TtaSim(prog, machine, ref_mem).run_reference();
          if (!(fast == ref)) fail(machine, mismatch(fast.cycles, ref.cycles));
          break;
        }
      }
      if (!(fast_mem == ref_mem)) fail(machine, "memory image mismatch");
    }
  });
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
}

/// Profile differential fleet: the cycle-attribution profiler consumes the
/// same observer event stream on the fast path and the reference
/// interpreter loop, so for every corpus seed, on every machine the paper
/// evaluates (plus the guarded-TTA variants), the serialized CellProfile
/// must be byte-identical between the two paths — and on every Ok run the
/// nine cause buckets must partition the cycle count exactly. Any
/// path-dependent event (a move reported on one path but not the other, an
/// exec cycle classified differently, a block entry firing inside a delay
/// shadow) shows up here as a serialize() diff.
TEST(ProfileDifferential, ByteIdenticalFastVsReferenceOnAllMachineConfigs) {
  constexpr std::uint64_t kCorpusSize = 64;
  std::vector<mach::Machine> machines = mach::all_machines();
  machines.push_back(mach::machine_by_name("g-tta-2"));
  machines.push_back(mach::machine_by_name("g-tta-3"));

  // gtest assertions are not guaranteed thread-safe: workers write one
  // failure report per seed, asserted after the fleet drains.
  std::vector<std::string> failures(kCorpusSize);
  support::ThreadPool pool(8);
  support::parallel_for(&pool, kCorpusSize, [&](std::size_t idx) {
    const std::uint64_t seed = 0xd1ffc0de + idx;
    ProgramGenerator gen(seed);
    ir::Module original = gen.generate();
    ir::Module optimized = original;
    opt::optimize(optimized, "main");

    auto fail = [&](const mach::Machine& m, const std::string& what) {
      failures[idx] += "seed " + std::to_string(seed) + " on " + m.name + ": " + what + "\n";
    };
    // Runs one path with both collection modes attached — the event-driven
    // CycleProfiler observer and the counts mode (sim::ProfileCounts +
    // derive_profile) the driver uses — and checks that the derived profile
    // is byte-identical to the observer's. Returns the canonical profile
    // text plus the partition check result.
    auto profile_run = [&](const auto& prog, const mach::Machine& m, const ir::Module& mod,
                           bool fast) {
      const prof::StaticProfile sp = prof::build_static_profile(prog, m);
      prof::CycleProfiler profiler(sp);
      sim::ProfileCounts counts = prof::make_profile_counts(sp);
      sim::SimOptions opts;
      opts.observer = &profiler;
      opts.profile = &counts;
      ir::Memory mem = report::make_loaded_memory(mod);
      const auto run = [&](auto&& sim) { return fast ? sim.run() : sim.run_reference(); };
      std::uint64_t cycles = 0;
      sim::ExecStatus status = sim::ExecStatus::Trapped;
      if constexpr (std::is_same_v<std::decay_t<decltype(prog)>, scalar::ScalarProgram>) {
        const auto r = run(scalar::ScalarSim(prog, m, mem, opts));
        cycles = r.cycles;
        status = r.status;
      } else if constexpr (std::is_same_v<std::decay_t<decltype(prog)>, vliw::VliwProgram>) {
        const auto r = run(vliw::VliwSim(prog, m, mem, opts));
        cycles = r.cycles;
        status = r.status;
      } else {
        const auto r = run(tta::TtaSim(prog, m, mem, opts));
        cycles = r.cycles;
        status = r.status;
      }
      const bool run_ok = status == sim::ExecStatus::Ok;
      profiler.finish(cycles);
      const prof::CellProfile& p = profiler.profile();
      if (run_ok && p.attributed() != p.cycles) {
        fail(m, "partition broken on " + std::string(fast ? "fast" : "reference") + " path: " +
                    std::to_string(p.attributed()) + " attributed of " +
                    std::to_string(p.cycles) + " cycles");
      }
      if (status != sim::ExecStatus::Trapped) {
        const prof::CellProfile derived = prof::derive_profile(sp, counts, cycles, status);
        const std::string ds = derived.serialize();
        const std::string os = p.serialize();
        if (ds != os) {
          fail(m, "counts-derived profile diverges from observer on " +
                      std::string(fast ? "fast" : "reference") + " path:\n" + ds + "--\n" + os);
        }
      }
      return p.serialize();
    };
    auto check = [&](const auto& prog, const mach::Machine& m, const ir::Module& mod) {
      const std::string fast = profile_run(prog, m, mod, true);
      const std::string ref = profile_run(prog, m, mod, false);
      if (fast != ref) fail(m, "profile diverges between paths:\n" + fast + "--\n" + ref);
    };

    for (const mach::Machine& machine : machines) {
      ir::Module prepared = optimized;
      if (machine.model == mach::Model::Tta && machine.has_guards()) {
        opt::if_convert_selects(prepared.function("main"));
      }
      if (machine.model == mach::Model::Scalar) {
        codegen::legalize_scalar_operands(prepared.function("main"));
      }
      const auto lowered = codegen::lower(prepared, "main", machine);
      switch (machine.model) {
        case mach::Model::Scalar:
          check(scalar::emit_scalar(lowered.func), machine, prepared);
          break;
        case mach::Model::Vliw:
          check(vliw::schedule_vliw(lowered.func, machine), machine, prepared);
          break;
        case mach::Model::Tta:
          check(tta::schedule_tta(lowered.func, machine), machine, prepared);
          break;
      }
    }
  });
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
}

/// Superblock differential fleet: the profile → recompile pipeline must be
/// invisible to program results. Each corpus seed runs the full two-phase
/// compile on one machine per programming model — phase 1 schedules
/// ordinarily under a sim::ProfileCollector, phase 2 forms superblocks from
/// that profile (tail duplication + branch inversion + trace scheduling) —
/// and the phase-2 run must reproduce the interpreter's results (return
/// value and output region) exactly. When no trace forms, formation
/// guarantees the function is untouched, so the entire ExecResult and the
/// halt-time memory image must be identical too. The corpus is re-run at
/// pool widths 1, 2 and 8 and every
/// per-seed outcome digest must match across widths: the pipeline stays
/// deterministic under concurrency.
TEST(SuperblockDifferentialFleet, TwoPhaseCompileMatchesBaselineOnAllModels) {
  constexpr std::uint64_t kCorpusSize = 64;
  const std::vector<mach::Machine> machines = {
      mach::machine_by_name("mblaze-3"), mach::machine_by_name("m-vliw-2"),
      mach::machine_by_name("m-tta-2")};

  // gtest assertions are not guaranteed thread-safe: workers write one
  // failure report per seed, asserted after the fleet drains.
  std::vector<std::string> failures(kCorpusSize);
  std::vector<std::vector<std::string>> digests;
  std::atomic<std::uint64_t> traces_formed{0};

  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::string> run(kCorpusSize);
    support::ThreadPool pool(threads);
    support::parallel_for(&pool, kCorpusSize, [&](std::size_t idx) {
      const std::uint64_t seed = 0x5bd1ff00 + idx;
      ProgramGenerator gen(seed);
      ir::Module original = gen.generate();
      ir::verify(original);
      const Observed golden = observe_interp(original);

      ir::Module optimized = original;
      opt::optimize(optimized, "main");

      auto fail = [&](const mach::Machine& m, const std::string& what) {
        failures[idx] += "seed " + std::to_string(seed) + " on " + m.name + " (pool " +
                         std::to_string(threads) + "): " + what + "\n";
      };

      for (const mach::Machine& machine : machines) {
        // Mirror the driver's preparation order (report/driver.cpp): select
        // expansion first (none of these machines has guards), superblock
        // formation on that IR, scalar legalization after formation.
        ir::Module prepared = optimized;
        codegen::expand_selects(prepared.function("main"));

        // Phase 1: ordinary schedule, profiled run.
        sim::ProfileCollector collector;
        sim::SimOptions profiled;
        profiled.observer = &collector;
        ir::Module p1 = prepared;
        if (machine.model == mach::Model::Scalar) {
          codegen::legalize_scalar_operands(p1.function("main"));
        }
        const auto lowered1 = codegen::lower(p1, "main", machine);
        ir::Memory mem1 = report::make_loaded_memory(p1);

        // Phase 2: formation from the phase-1 profile, on the same IR the
        // profile's block ids were gathered against.
        ir::Module p2 = prepared;
        opt::SuperblockPlan plan;

        // Both phases share the per-model switch; `check` compares the
        // phase results once the typed ExecResults are in scope.
        auto check = [&](const auto& base, const auto& sb, const ir::Memory& mem2,
                         const ir::Module& mod2) {
          if (base.ret != golden.ret ||
              mem1.checksum(p1.layout().address_of("out"), 256) != golden.out_checksum) {
            fail(machine, "phase-1 baseline diverges from interpreter");
          }
          const std::uint64_t checksum =
              mem2.checksum(mod2.layout().address_of("out"), 256);
          if (sb.ret != golden.ret || checksum != golden.out_checksum) {
            fail(machine, "superblock phase diverges from interpreter (ret " +
                              std::to_string(sb.ret) + " vs " + std::to_string(golden.ret) +
                              ")");
          }
          // With formation the code layout changes, so stack traffic (spill
          // slots) may legally differ; the byte-identical-image guarantee
          // only holds when no trace formed (the program is then identical).
          if (plan.formed == 0 && (!(sb == base) || !(mem2 == mem1))) {
            fail(machine, "no trace formed but execution state changed");
          }
          run[idx] += machine.name + (":" + std::to_string(plan.formed)) + ":" +
                      std::to_string(plan.tail_dup_instrs) + ":" +
                      std::to_string(base.cycles) + ":" + std::to_string(sb.cycles) + ":" +
                      std::to_string(sb.ret) + ":" + std::to_string(checksum) + ";";
        };

        switch (machine.model) {
          case mach::Model::Scalar: {
            const auto prog1 = scalar::emit_scalar(lowered1.func);
            const auto base = scalar::ScalarSim(prog1, machine, mem1, profiled).run();
            plan = opt::form_superblocks(p2.function("main"),
                                         opt::ProfileData::from_collector(collector),
                                         {.superblocks = true});
            codegen::legalize_scalar_operands(p2.function("main"));
            const auto lowered2 = codegen::lower(p2, "main", machine);
            ir::Memory mem2 = report::make_loaded_memory(p2);
            // Scalar in-order issue has no cross-block freedoms: formation
            // (trace layout + tail duplication) is the whole transform.
            const auto prog2 = scalar::emit_scalar(lowered2.func);
            const auto sb = scalar::ScalarSim(prog2, machine, mem2).run();
            check(base, sb, mem2, p2);
            break;
          }
          case mach::Model::Vliw: {
            const auto prog1 = vliw::schedule_vliw(lowered1.func, machine);
            const auto base = vliw::VliwSim(prog1, machine, mem1, profiled).run();
            plan = opt::form_superblocks(p2.function("main"),
                                         opt::ProfileData::from_collector(collector),
                                         {.superblocks = true});
            const auto lowered2 = codegen::lower(p2, "main", machine);
            ir::Memory mem2 = report::make_loaded_memory(p2);
            const auto prog2 = vliw::schedule_vliw(lowered2.func, machine, nullptr,
                                                   plan.formed > 0 ? &plan : nullptr);
            const auto sb = vliw::VliwSim(prog2, machine, mem2).run();
            check(base, sb, mem2, p2);
            break;
          }
          case mach::Model::Tta: {
            const auto prog1 = tta::schedule_tta(lowered1.func, machine);
            tta::verify_program(prog1, machine);
            const auto base = tta::TtaSim(prog1, machine, mem1, profiled).run();
            plan = opt::form_superblocks(p2.function("main"),
                                         opt::ProfileData::from_collector(collector),
                                         {.superblocks = true});
            const auto lowered2 = codegen::lower(p2, "main", machine);
            ir::Memory mem2 = report::make_loaded_memory(p2);
            const auto prog2 = tta::schedule_tta(lowered2.func, machine, {}, nullptr,
                                                 plan.formed > 0 ? &plan : nullptr);
            tta::verify_program(prog2, machine);
            const auto sb = tta::TtaSim(prog2, machine, mem2).run();
            check(base, sb, mem2, p2);
            break;
          }
        }
        traces_formed += plan.formed;
      }
    });
    digests.push_back(std::move(run));
  }

  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
  }
  // Determinism under concurrency: all pool widths saw identical outcomes.
  for (std::size_t r = 1; r < digests.size(); ++r) {
    for (std::size_t i = 0; i < kCorpusSize; ++i) {
      EXPECT_EQ(digests[r][i], digests[0][i]) << "pool-width-dependent outcome, seed index " << i;
    }
  }
  // The biased generator (program_generator.hpp) must actually feed the
  // fleet formable traces — a corpus that never forms tests nothing.
  EXPECT_GT(traces_formed.load(), 0u);
}

/// Binary encode/decode must be a semantic identity on random programs too.
class RoundTripEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripEquivalence, DecodedProgramBehavesIdentically) {
  ProgramGenerator gen(GetParam() * 31337);
  ir::Module original = gen.generate();
  ir::Module optimized = original;
  opt::optimize(optimized, "main");
  for (const char* name : {"m-tta-2", "bm-tta-2", "g-tta-2"}) {
    const mach::Machine machine = mach::machine_by_name(name);
    ir::Module prepared = optimized;
    if (machine.has_guards()) {
      opt::if_convert_selects(prepared.function("main"));
    }
    const auto lowered = codegen::lower(prepared, "main", machine);
    const auto prog = tta::schedule_tta(lowered.func, machine);
    const auto decoded = tta::decode_program(tta::encode_program(prog, machine), machine);
    tta::verify_program(decoded, machine);
    ir::Memory mem_a = report::make_loaded_memory(prepared);
    ir::Memory mem_b = report::make_loaded_memory(prepared);
    const auto a = tta::TtaSim(prog, machine, mem_a).run();
    const auto b = tta::TtaSim(decoded, machine, mem_b).run();
    EXPECT_EQ(a.ret, b.ret) << name << " seed " << GetParam();
    EXPECT_EQ(a.cycles, b.cycles) << name << " seed " << GetParam();
    EXPECT_EQ(mem_a.checksum(0, 4096), mem_b.checksum(0, 4096)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RoundTripEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ttsc
