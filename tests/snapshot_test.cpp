// Snapshot/resume property test: on the generated program corpus, for the
// three machine models, running to a random cycle, snapshotting and
// resuming must equal the uninterrupted run — ExecResult including the
// halt-time RF/guard state, the final memory image, and the observer event
// stream after the cut. Runs carry a state fault on each side of the first
// cut, so the snapshot's fault cursor is exercised too, and every resume
// lands on an image a previous run left dirty, so resuming has to restore
// the snapshot's pages and clear the rest.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "mach/configs.hpp"
#include "opt/passes.hpp"
#include "report/driver.hpp"
#include "scalar/scalar.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tta/tta.hpp"
#include "vliw/vliw.hpp"

#include "program_generator.hpp"

namespace ttsc {
namespace {

/// Every event as one comparable record, in emission order.
class EventLog final : public sim::ExecObserver {
 public:
  struct Event {
    int kind;
    std::uint64_t cycle;
    std::int64_t a, b, c;
    bool operator==(const Event&) const = default;
  };

  void on_move(std::uint64_t cycle, int bus) override { add(0, cycle, bus); }
  void on_guard_squash(std::uint64_t cycle, int bus) override { add(1, cycle, bus); }
  void on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) override {
    add(2, cycle, fu, static_cast<int>(op));
  }
  void on_rf_read(std::uint64_t cycle, int rf, int index) override { add(3, cycle, rf, index); }
  void on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) override {
    add(4, cycle, rf, index, value);
  }
  void on_stall(std::uint64_t cycle, std::uint64_t n) override {
    add(5, cycle, static_cast<std::int64_t>(n));
  }
  void on_block_enter(std::uint64_t cycle, std::uint32_t block) override { add(6, cycle, block); }
  void on_exec(std::uint64_t cycle, std::uint32_t pc, bool shadow) override {
    add(7, cycle, pc, shadow ? 1 : 0);
  }
  void on_overhead(std::uint64_t cycle, sim::OverheadKind kind, std::uint64_t n) override {
    add(8, cycle, static_cast<int>(kind), static_cast<std::int64_t>(n));
  }
  void on_guard_write(std::uint64_t cycle, int guard, std::uint32_t value) override {
    add(9, cycle, guard, value);
  }
  void on_store(std::uint64_t cycle, std::uint32_t addr, std::uint32_t value,
                std::uint8_t width) override {
    add(10, cycle, addr, value, width);
  }

  std::vector<Event> events;

 private:
  void add(int kind, std::uint64_t cycle, std::int64_t a, std::int64_t b = 0, std::int64_t c = 0) {
    events.push_back({kind, cycle, a, b, c});
  }
};

bool same_bytes(const ir::Memory& a, const ir::Memory& b) {
  if (a.size() != b.size()) return false;
  const auto x = a.view(0, static_cast<std::uint32_t>(a.size()));
  const auto y = b.view(0, static_cast<std::uint32_t>(b.size()));
  return std::equal(x.begin(), x.end(), y.begin());
}

/// A generated corpus program compiled for `machine` the way the
/// differential fleets compile it, as an Engine, plus its loaded image.
struct Compiled {
  std::optional<sim::Engine> engine;
  std::optional<ir::Memory> initial;
};

Compiled compile(std::uint64_t seed, const mach::Machine& machine) {
  propgen::ProgramGenerator gen(seed);
  ir::Module module = gen.generate();
  opt::optimize(module, "main");
  ir::Function& entry = module.function("main");
  if (machine.model == mach::Model::Tta && machine.has_guards()) {
    opt::if_convert_selects(entry);
  } else {
    codegen::expand_selects(entry);
  }
  if (machine.model == mach::Model::Scalar) codegen::legalize_scalar_operands(entry);
  const codegen::LowerResult lowered = codegen::lower(module, "main", machine);
  Compiled c;
  c.initial.emplace(report::make_loaded_memory(module));
  switch (machine.model) {
    case mach::Model::Scalar:
      c.engine.emplace(machine, scalar::emit_scalar(lowered.func));
      break;
    case mach::Model::Vliw:
      c.engine.emplace(machine, vliw::schedule_vliw(lowered.func, machine));
      break;
    case mach::Model::Tta:
      c.engine.emplace(machine, tta::schedule_tta(lowered.func, machine));
      break;
  }
  return c;
}

/// One RF-bit fault per cycle in `cycles` (ascending), on a register the
/// seed picks, so both sides of a cut carry one.
sim::FaultSet faults_at(const mach::Machine& machine, std::vector<std::uint64_t> cycles,
                        SplitMix64& rng) {
  sim::FaultSet fs;
  for (const std::uint64_t c : cycles) {
    sim::StateFault f;
    f.cycle = c;
    f.kind = sim::FaultKind::RfBit;
    const auto rf = rng.next_below(static_cast<std::uint32_t>(machine.rfs.size()));
    f.unit = static_cast<std::int16_t>(rf);
    const auto size = static_cast<std::uint32_t>(machine.rfs[rf].size);
    f.index = static_cast<std::int16_t>(rng.next_below(size));
    f.bit = static_cast<std::uint8_t>(rng.next_below(32));
    fs.faults.push_back(f);
  }
  return fs;
}

TEST(SnapshotResume, CutAndResumeEqualsTheUninterruptedRun) {
  constexpr std::uint64_t kCorpusSize = 64;
  const std::vector<std::string> machines = {"mblaze-3", "mblaze-5", "m-vliw-2", "m-tta-2",
                                             "g-tta-2"};
  std::vector<std::string> failures(kCorpusSize);
  std::vector<std::uint64_t> resumed(kCorpusSize, 0);
  support::ThreadPool pool(4);
  support::parallel_for(pool, kCorpusSize, [&](std::size_t idx) {
    const std::uint64_t seed = 0x5eedc0de + idx;
    SplitMix64 rng(seed ^ 0x5a9);
    for (const std::string& name : machines) {
      const mach::Machine machine = mach::machine_by_name(name);
      const Compiled c = compile(seed, machine);
      const sim::Engine& engine = *c.engine;
      auto fail = [&](const std::string& what) {
        failures[idx] += "seed " + std::to_string(seed) + " on " + name + ": " + what + "\n";
      };

      // Reference: the uninterrupted fault-free run.
      ir::Memory probe = *c.initial;
      const std::uint64_t length = engine.run(probe).cycles;
      if (length < 4) continue;
      const std::uint64_t budget = length * 2 + 64;
      // Two cuts and a fault on each side of the first.
      const std::uint64_t cut1 = 1 + rng.next_below(static_cast<std::uint32_t>(length - 1));
      const std::uint64_t cut2 = cut1 + 1 + rng.next_below(static_cast<std::uint32_t>(length));
      const sim::FaultSet faults =
          faults_at(machine, {rng.next_below(static_cast<std::uint32_t>(cut1)),
                              cut1 + rng.next_below(static_cast<std::uint32_t>(length))},
                    rng);

      for (const bool faulted : {false, true}) {
        sim::SimOptions opts;
        opts.harden = true;
        if (faulted) opts.faults = &faults;
        const std::string tag = faulted ? " (faulted)" : "";

        EventLog whole_log;
        opts.observer = &whole_log;
        ir::Memory whole_mem = *c.initial;
        const sim::ExecResult whole = engine.run(whole_mem, opts, budget);

        // Run to cut1, resume to cut2, resume to the end: each segment on
        // an image the previous run left behind.
        EventLog first_log;
        opts.observer = &first_log;
        ir::Memory mem = *c.initial;
        sim::Segment seg = engine.run(mem, opts, budget, cut1);
        const sim::Snapshot* s1 = std::get_if<sim::Snapshot>(&seg);
        if (s1 == nullptr) {
          if (!(std::get<sim::ExecResult>(seg) == whole)) fail("run ended early differently" + tag);
          continue;
        }
        const sim::Snapshot snap1 = *s1;
        if (snap1.cycle < cut1) fail("snapshot before its stop cycle" + tag);

        EventLog mid_log;
        opts.observer = &mid_log;
        ir::Memory dirty = whole_mem;  // the uninterrupted run's final image
        seg = engine.resume(snap1, dirty, opts, budget, cut2);
        EventLog last_log;
        opts.observer = &last_log;
        sim::ExecResult split;
        if (const sim::Snapshot* s2 = std::get_if<sim::Snapshot>(&seg)) {
          ir::Memory fresh = *c.initial;
          split = std::get<sim::ExecResult>(engine.resume(*s2, fresh, opts, budget));
          dirty = std::move(fresh);
        } else {
          split = std::get<sim::ExecResult>(seg);
        }

        // A second resume from the same snapshot, on the pristine image,
        // must agree as well: the snapshot's own pages carry the prefix.
        EventLog again_log;
        opts.observer = &again_log;
        ir::Memory pristine = *c.initial;
        const sim::ExecResult again =
            std::get<sim::ExecResult>(engine.resume(snap1, pristine, opts, budget));

        if (!(split == whole)) fail("split result differs" + tag);
        if (!(again == whole)) fail("resumed result differs" + tag);
        if (!same_bytes(dirty, whole_mem)) fail("split memory differs" + tag);
        if (!same_bytes(pristine, whole_mem)) fail("resumed memory differs" + tag);
        if (!(dirty == whole_mem) || !(pristine == whole_mem)) fail("Memory == disagrees" + tag);

        std::vector<EventLog::Event> joined = first_log.events;
        joined.insert(joined.end(), mid_log.events.begin(), mid_log.events.end());
        joined.insert(joined.end(), last_log.events.begin(), last_log.events.end());
        if (joined != whole_log.events) fail("split observer stream differs" + tag);
        const std::vector<EventLog::Event> after_cut(
            whole_log.events.begin() + static_cast<std::ptrdiff_t>(first_log.events.size()),
            whole_log.events.end());
        if (again_log.events != after_cut) fail("observer stream after the cut differs" + tag);
        ++resumed[idx];
      }
    }
  });
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    EXPECT_TRUE(failures[i].empty()) << failures[i];
    total += resumed[i];
  }
  // Most runs outlast their first cut: the property is not vacuous.
  EXPECT_GT(total, kCorpusSize * 5);
}

// A snapshot carries the pages the run wrote before it and no more: a run
// stopped before its first store carries none, and one stopped at the end
// carries exactly the pages where the final image differs from the start.
TEST(SnapshotResume, PagesAreTheDifferenceFromTheInitialImage) {
  const mach::Machine machine = mach::machine_by_name("m-tta-2");
  const Compiled c = compile(0x5eedc0de, machine);
  ir::Memory mem = *c.initial;
  const sim::ExecResult whole = c.engine->run(mem);
  ASSERT_EQ(whole.status, sim::ExecStatus::Ok);
  ir::Memory at_start = *c.initial;
  sim::Segment seg = c.engine->run(at_start, {}, sim::Engine::kMaxCycles, 0);
  ASSERT_TRUE(std::holds_alternative<sim::Snapshot>(seg));
  EXPECT_TRUE(std::get<sim::Snapshot>(seg).pages.index.empty());
  ir::Memory at_end = *c.initial;
  seg = c.engine->run(at_end, {}, sim::Engine::kMaxCycles, whole.cycles - 1);
  ASSERT_TRUE(std::holds_alternative<sim::Snapshot>(seg));
  const sim::Snapshot& last = std::get<sim::Snapshot>(seg);
  EXPECT_EQ(last.pages.index, at_end.pages_differing_from(c.initial->written_pages()).index);
  EXPECT_EQ(last.initial->index, c.initial->written_pages().index);
}

}  // namespace
}  // namespace ttsc
