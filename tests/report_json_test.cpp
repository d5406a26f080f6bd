// Machine-readable run reports: schema shape, golden snapshot, diffing,
// and the cross-check between exported scheduler counters and the A1
// TTA-freedoms ablation (a report's counters must move the way the
// ablation's cycle deltas say they do).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "mach/configs.hpp"
#include "obs/metrics.hpp"
#include "report/module_cache.hpp"
#include "report/run_report.hpp"

namespace ttsc {
namespace {

std::string golden_path() { return std::string(TTSC_GOLDEN_DIR) + "/table4_report.json"; }

/// One serial sweep with metrics, shared by the tests below.
struct SweepResult {
  report::Matrix matrix;
  obs::Registry registry;
  std::string json;
};

const SweepResult& sweep() {
  static const SweepResult* r = [] {
    auto* s = new SweepResult;
    s->matrix = report::Matrix::run({}, &s->registry);
    s->json = report::render_run_report(s->matrix, &s->registry);
    return s;
  }();
  return *r;
}

TEST(RunReport, SchemaShape) {
  const obs::JsonValue doc = obs::parse_json(sweep().json);
  EXPECT_EQ(doc.at("schema").as_string(), "ttsc-run-report");
  EXPECT_EQ(doc.at("version").as_uint(), 1u);
  ASSERT_TRUE(doc.at("workloads").is_array());
  EXPECT_EQ(doc.at("workloads").items.size(), 8u);
  ASSERT_TRUE(doc.at("machines").is_array());
  EXPECT_EQ(doc.at("machines").items.size(), 13u);

  for (const obs::JsonValue& m : doc.at("machines").items) {
    EXPECT_TRUE(m.at("name").is_string());
    EXPECT_TRUE(m.at("model").is_string());
    EXPECT_GT(m.at("area").at("slices").as_uint(), 0u);
    EXPECT_GT(m.at("timing").at("fmax_mhz").as_double(), 0.0);
    const obs::JsonValue& cells = m.at("cells");
    ASSERT_TRUE(cells.is_object());
    EXPECT_EQ(cells.members.size(), 8u);
    for (const auto& [workload, cell] : cells.members) {
      EXPECT_GT(cell.at("cycles").as_uint(), 0u) << workload;
      EXPECT_GT(cell.at("image_bits").as_uint(), 0u) << workload;
      EXPECT_TRUE(cell.at("metrics").is_object()) << workload;
    }
    // Model-specific counters reach the per-cell metrics map.
    const std::string& model = m.at("model").as_string();
    const obs::JsonValue& first = cells.members.front().second.at("metrics");
    if (model == "tta") {
      EXPECT_NE(first.find("tta.schedule.moves"), nullptr);
      EXPECT_NE(first.find("tta.schedule.slot_capacity"), nullptr);
    } else if (model == "vliw") {
      EXPECT_NE(first.find("vliw.schedule.bundles"), nullptr);
    } else {
      EXPECT_NE(first.find("scalar.emit.words"), nullptr);
    }
  }
  // The sweep-wide registry rides along with opt-pass and cell counters.
  const obs::JsonValue& counters = doc.at("metrics").at("counters");
  EXPECT_EQ(counters.at("cells.run").as_uint(), 104u);
  EXPECT_NE(counters.find("opt.dce.calls"), nullptr);
  EXPECT_EQ(doc.at("metrics").at("histograms").at("cell.cycles").at("count").as_uint(), 104u);
}

// Golden snapshot: any change to scheduler tie-breaks, the area/timing
// model, counter naming or JSON layout shows up as an explicit diff.
// Regenerate after an intentional change with:
//   TTSC_UPDATE_GOLDEN=1 ./tests/report_json_test
TEST(RunReport, MatchesGoldenSnapshot) {
  const std::string& got = sweep().json;
  if (std::getenv("TTSC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << got;
    GTEST_SKIP() << "golden snapshot regenerated at " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_path()
                         << " (run with TTSC_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  if (buf.str() != got) {
    // Byte mismatch: show the semantic diff, which names exactly the paths
    // that moved instead of dumping two multi-kilobyte documents.
    const auto deltas =
        report::diff_reports(obs::parse_json(buf.str()), obs::parse_json(got));
    std::string summary;
    for (const auto& d : deltas) {
      summary += "  " + d.path + ": " + d.before + " -> " + d.after + "\n";
    }
    FAIL() << "run report diverged from golden snapshot ("
           << (deltas.empty() ? "formatting-only change" : "semantic change") << "):\n"
           << summary;
  }
}

TEST(RunReport, DiffReportsFindsInjectedDelta) {
  const obs::JsonValue a = obs::parse_json(sweep().json);
  obs::JsonValue b = obs::parse_json(sweep().json);
  EXPECT_TRUE(report::diff_reports(a, b).empty());

  // Mutate one cell's cycle count and reverse the machine array: only the
  // cycle change may surface (machines are matched by name, not index).
  for (auto& [key, value] : b.members) {
    if (key == "machines") {
      for (auto& [ck, cv] : value.items.front().members) {
        if (ck == "cells") {
          cv.members.front().second.members.front().second.text = "999999999";
        }
      }
      std::reverse(value.items.begin(), value.items.end());
    }
  }
  const auto deltas = report::diff_reports(a, b);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].after, "999999999");
  EXPECT_NE(deltas[0].path.find("cells"), std::string::npos);
}

// Cross-check the exported scheduler counters against the A1 ablation:
// disabling software bypassing must zero the bypass/dead-result counters in
// the report AND cost cycles (the ablation's measured direction on every
// TTA machine/workload cell), while leaving the table-facing outcome of the
// all-on run untouched.
TEST(RunReport, SchedulerCountersMatchFreedomAblation) {
  const mach::Machine machine = mach::machine_by_name("m-tta-2");
  report::ModuleCache cache;
  tta::TtaOptions all_on;
  tta::TtaOptions no_bypass;
  no_bypass.software_bypass = false;
  no_bypass.dead_result_elim = false;

  std::uint64_t total_bypassed = 0;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    const report::RunOutcome on =
        report::compile_and_run_prebuilt(cache.get(w), w, machine, all_on);
    const report::RunOutcome off =
        report::compile_and_run_prebuilt(cache.get(w), w, machine, no_bypass);
    // Counter plumbing: RunOutcome.metrics mirrors the scheduler stats.
    EXPECT_EQ(on.metrics.at("tta.schedule.bypassed_operands"), on.bypassed_operands) << w.name;
    EXPECT_EQ(off.metrics.at("tta.schedule.bypassed_operands"), 0u) << w.name;
    EXPECT_EQ(off.metrics.at("tta.schedule.eliminated_result_moves"), 0u) << w.name;
    // Ablation direction: bypassing is worth cycles on every cell (the A1
    // table shows >= 1.17x without it).
    EXPECT_GT(off.cycles, on.cycles) << w.name;
    total_bypassed += on.bypassed_operands;
    // Slot accounting stays consistent in both variants.
    for (const report::RunOutcome* r : {&on, &off}) {
      EXPECT_EQ(r->metrics.at("tta.schedule.slots_filled") +
                    r->metrics.at("tta.schedule.nop_slots"),
                r->metrics.at("tta.schedule.slot_capacity"))
          << w.name;
    }
  }
  EXPECT_GT(total_bypassed, 0u);
}

}  // namespace
}  // namespace ttsc
