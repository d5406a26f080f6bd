// Stream hygiene and export contracts of the paper-artifact harnesses,
// exercised end to end on the real table2_program_size binary (path baked
// in by CMake as TTSC_TABLE2_BIN; flag validation also drives
// table4_cycles and table_resilience):
//
//  * stdout carries ONLY the rendered artifact — `table2 > table.txt` is
//    pipe-clean no matter which diagnostic flags are set;
//  * --stats/--metrics diagnostics land on stderr, and --stats counts the
//    sweep's stages, cells, cycles, module builds and spills;
//  * enabling observability (--metrics, --trace-out, --report-json) leaves
//    the stdout bytes identical to a plain run;
//  * --trace-out writes a parseable Chrome trace with one span per stage
//    run; --report-json writes a parseable versioned run report; an output
//    file that cannot be written exits 2 with one line on stderr;
//  * the CI resilience campaigns reproduce their stdout and report goldens
//    (tests/golden/resil_*.txt and resil_*.json).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ttsc {
namespace {

struct RunResult {
  int status = -1;
  std::string out;
};

/// Run `cmd` through the shell, capturing stdout; stderr goes to
/// `stderr_path` (or /dev/null when empty).
RunResult run(const std::string& cmd, const std::string& stderr_path = "") {
  const std::string full =
      cmd + " 2>" + (stderr_path.empty() ? std::string("/dev/null") : stderr_path);
  RunResult r;
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) r.out.append(buf.data(), n);
  r.status = pclose(pipe);
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The whitespace-separated fields of each line of `text`, keyed by the
/// line's first field.
std::map<std::string, std::vector<std::string>> rows_by_name(const std::string& text) {
  std::map<std::string, std::vector<std::string>> rows;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string field; fields >> field;) row.push_back(field);
    if (!row.empty()) rows[row.front()] = row;
  }
  return rows;
}

std::string bin() { return TTSC_TABLE2_BIN; }
std::string tmp(const std::string& name) {
  return testing::TempDir() + "bench_output_" + name;
}

TEST(BenchOutput, StdoutIsPureArtifactUnderAllDiagnosticFlags) {
  const RunResult plain = run(bin() + " --threads 2");
  ASSERT_EQ(plain.status, 0);
  ASSERT_FALSE(plain.out.empty());
  EXPECT_NE(plain.out.find("TABLE II"), std::string::npos);

  const std::string err_path = tmp("stderr.txt");
  const RunResult noisy = run(bin() + " --threads 2 --stats --metrics --report-json=" +
                                  tmp("report.json") + " --trace-out=" + tmp("trace.json"),
                              err_path);
  ASSERT_EQ(noisy.status, 0);
  // The artifact bytes must be identical: diagnostics may not leak into
  // stdout and observability may not perturb the tables.
  EXPECT_EQ(plain.out, noisy.out);

  // The diagnostics actually happened — on stderr.
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("-- stats: toolchain stage profile --"), std::string::npos) << err;
  EXPECT_NE(err.find("-- metrics --"), std::string::npos) << err;
}

TEST(BenchOutput, SerialAndParallelStdoutMatch) {
  const RunResult parallel = run(bin() + " --threads 8");
  const RunResult serial = run(bin() + " --serial");
  ASSERT_EQ(parallel.status, 0);
  ASSERT_EQ(serial.status, 0);
  EXPECT_EQ(parallel.out, serial.out);
}

TEST(BenchOutput, TraceOutIsValidChromeTraceJson) {
  const std::string path = tmp("trace2.json");
  ASSERT_EQ(run(bin() + " --threads 2 --trace-out=" + path).status, 0);
  const obs::JsonValue doc = obs::parse_json(slurp(path));
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.items.empty());
  // 104 grid cells must appear as "cell" spans with machine/workload args.
  // Each workload's one build opens a frontend and an opt span; each cell
  // its four backend stages, codegen.lower, and its model's scheduler or
  // emitter (16 scalar, 32 VLIW and 56 TTA cells).
  std::map<std::string, std::size_t> spans;
  for (const obs::JsonValue& e : events.items) {
    if (e.at("ph").as_string() != "X") continue;
    ++spans[e.at("name").as_string()];
    if (e.at("name").as_string() == "cell") {
      EXPECT_TRUE(e.at("args").find("machine") != nullptr);
      EXPECT_TRUE(e.at("args").find("workload") != nullptr);
    }
  }
  const std::map<std::string, std::size_t> expected = {
      {"frontend", 8},     {"opt", 8},            {"cell", 104},
      {"regalloc", 104},   {"schedule", 104},     {"predecode", 104},
      {"simulate", 104},   {"codegen.lower", 104},
      {"scalar.emit", 16}, {"vliw.schedule", 32}, {"tta.schedule", 56}};
  EXPECT_EQ(spans, expected);
}

// --stats on both engines: the six stage rows with their run counts, the
// total, and the sweep's counters (8 workloads built once each, 104 cells).
// Under --superblocks the counters describe the 104 adopted cells, whose
// cycles are the total the superblock deltas end on.
TEST(BenchOutput, StatsCountTheSweepOnBothEngines) {
  struct Case {
    const char* engine;
    const char* cycles;
    const char* spills;
  };
  const Case cases[] = {{" --threads 2", "15233880", "0"},
                        {" --serial", "15233880", "0"},
                        {" --threads 2 --superblocks", "14760749", "200"}};
  const std::string err_path = tmp("stats_stderr.txt");
  for (const auto& [engine, cycles, spills] : cases) {
    ASSERT_EQ(run(bin() + engine + " --stats", err_path).status, 0) << engine;
    const std::string err = slurp(err_path);
    EXPECT_NE(err.find("-- stats: toolchain stage profile --"), std::string::npos) << err;
    const auto rows = rows_by_name(err);
    const std::pair<const char*, const char*> stages[] = {
        {"frontend", "8"},   {"opt", "8"},         {"regalloc", "104"},
        {"schedule", "104"}, {"predecode", "104"}, {"simulate", "104"}};
    for (const auto& [stage, calls] : stages) {
      ASSERT_EQ(rows.count(stage), 1u) << engine << " " << stage << "\n" << err;
      ASSERT_EQ(rows.at(stage).size(), 3u) << engine << " " << stage << "\n" << err;
      EXPECT_EQ(rows.at(stage)[1], calls) << engine << " " << stage;
    }
    ASSERT_EQ(rows.count("total"), 1u) << engine << "\n" << err;
    EXPECT_EQ(rows.at("total").size(), 2u) << engine << "\n" << err;
    const std::pair<const char*, const char*> counters[] = {
        {"cells_run", "104"}, {"cycles_simulated", cycles}, {"modules_built", "8"},
        {"spills", spills}};
    for (const auto& [counter, value] : counters) {
      ASSERT_EQ(rows.count(counter), 1u) << engine << " " << counter << "\n" << err;
      EXPECT_EQ(rows.at(counter), (std::vector<std::string>{counter, value})) << engine;
    }
  }
}

TEST(BenchOutput, ReportJsonIsValidVersionedReport) {
  const std::string path = tmp("report2.json");
  ASSERT_EQ(run(bin() + " --threads 2 --report-json=" + path).status, 0);
  const obs::JsonValue doc = obs::parse_json(slurp(path));
  EXPECT_EQ(doc.at("schema").as_string(), "ttsc-run-report");
  EXPECT_EQ(doc.at("version").as_uint(), 1u);
  EXPECT_EQ(doc.at("machines").items.size(), 13u);
  EXPECT_EQ(doc.at("metrics").at("counters").at("cells.run").as_uint(), 104u);
}

// An output file the harness cannot write fails the run closed, for each
// of the four file flags: one "<prog>: cannot write ...: <path>" line on
// stderr and exit 2 — never an abort, and never a silently missing file.
TEST(BenchOutput, UnwritableOutputFilesFailClosed) {
  const std::string path = tmp("missing_dir") + "/out";
  const std::string err_path = tmp("unwritable_stderr.txt");
  for (const char* flag : {"--trace-out", "--report-json", "--profile-json", "--profile-folded"}) {
    const std::string cmd = bin() + " --threads 2 " + flag + "=" + path;
    const RunResult r = run(cmd, err_path);
    ASSERT_TRUE(WIFEXITED(r.status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << cmd;
    const std::string err = slurp(err_path);
    EXPECT_EQ(err.rfind(bin() + ": cannot write ", 0), 0u) << cmd << "\n" << err;
    EXPECT_NE(err.find(": " + path + "\n"), std::string::npos) << cmd << "\n" << err;
  }
}

// The six table_resilience campaigns CI gates, end to end: each report
// equals its JSON golden byte for byte, and stdout (the AVF table, plus the
// protection-efficiency or forensics table when enabled) its text golden.
// A --no-batch, --serial or --threads 1 run reproduces its batched,
// threaded campaign's goldens: --serial stages the next cell after the
// current one's last item, --threads 1 beside one worker, --threads 4
// beside four.
TEST(BenchOutput, ResilienceCampaignsMatchGoldens) {
  const std::string smoke =
      " --machines=mblaze-3,m-vliw-2,m-tta-2 --workloads=sha --injections 64 --seed 7715";
  const std::string guarded =
      " --machines=g-tta-2 --workloads=sha,blowfish --injections 64 --seed 7715";
  const std::string protect =
      " --machines=mblaze-3,m-tta-1 --workloads=sha --protect=parity,eccdmr,full "
      "--double-bit 250 --injections 48 --seed 99";
  const std::string forensics = smoke + " --forensics --forensics-budget 8";
  const std::string threads = " --threads 4";
  struct Case {
    std::string args;
    const char* golden;
  };
  const Case cases[] = {
      {smoke + threads, "resil_smoke"},
      {smoke + threads + " --no-batch", "resil_smoke"},
      {smoke + " --serial", "resil_smoke"},
      {smoke + " --threads 1", "resil_smoke"},
      {guarded + threads, "resil_smoke_guarded"},
      {guarded + threads + " --no-batch", "resil_smoke_guarded"},
      {protect + threads, "resil_protect"},
      {protect + " --serial", "resil_protect"},
      {forensics + threads, "resil_forensics"},
      {forensics + " --serial", "resil_forensics"},
  };
  const std::string json = tmp("resil.json");
  for (const Case& c : cases) {
    const std::string cmd = std::string(TTSC_RESIL_BIN) + c.args + " --report-json=" + json;
    const RunResult r = run(cmd);
    ASSERT_EQ(r.status, 0) << cmd;
    const std::string golden = std::string(TTSC_GOLDEN_DIR) + "/" + c.golden;
    EXPECT_EQ(r.out, slurp(golden + ".txt")) << cmd;
    EXPECT_EQ(slurp(json), slurp(golden + ".json")) << cmd;
  }
}

TEST(BenchOutput, UnknownFlagFailsWithUsage) {
  const RunResult r = run(bin() + " --no-such-flag");
  EXPECT_NE(r.status, 0);

  // Numeric values fail closed the same way: a value that is not a whole
  // number prints usage and exits 2 before anything runs, instead of
  // silently running as 0 or as the default. --reference is no flag: the
  // reference loops are reachable from tests only.
  const std::string table4 = TTSC_TABLE4_BIN;
  const std::string resil = TTSC_RESIL_BIN;
  const std::string err_path = tmp("bad_value_stderr.txt");
  for (const std::string& cmd :
       {table4 + " --reference", table4 + " --threads abc", table4 + " --threads=4x",
        "TTSC_THREADS=abc " + table4,
        bin() + " --threads ''", resil + " --seed abc", resil + " --seed 7715x",
        resil + " --seed 010",
        resil + " --injections 1e3", resil + " --cell-timeout soon", resil + " --threads -",
        "TTSC_THREADS=abc " + resil}) {
    const RunResult bad = run(cmd, err_path);
    ASSERT_TRUE(WIFEXITED(bad.status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(bad.status), 2) << cmd;
    EXPECT_TRUE(bad.out.empty()) << cmd;
    EXPECT_NE(slurp(err_path).find("usage:"), std::string::npos) << cmd;
  }
}

}  // namespace
}  // namespace ttsc
