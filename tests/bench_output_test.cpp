// Stream hygiene and export contracts of the paper-artifact harnesses,
// exercised end to end on the real table2_program_size binary (path baked
// in by CMake as TTSC_TABLE2_BIN; flag validation also drives
// table4_cycles and table_resilience):
//
//  * stdout carries ONLY the rendered artifact — `table2 > table.txt` is
//    pipe-clean no matter which diagnostic flags are set;
//  * --stats/--metrics diagnostics land on stderr;
//  * enabling observability (--metrics, --trace-out, --report-json) leaves
//    the stdout bytes identical to a plain run;
//  * --trace-out writes a parseable Chrome trace; --report-json writes a
//    parseable versioned run report;
//  * the CI resilience campaigns reproduce their stdout and report goldens
//    (tests/golden/resil_*.txt and resil_*.json).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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
  std::size_t cells = 0;
  for (const obs::JsonValue& e : events.items) {
    if (e.at("ph").as_string() == "X" && e.at("name").as_string() == "cell") {
      ++cells;
      EXPECT_TRUE(e.at("args").find("machine") != nullptr);
      EXPECT_TRUE(e.at("args").find("workload") != nullptr);
    }
  }
  EXPECT_EQ(cells, 104u);
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

// The six table_resilience campaigns CI gates, end to end: each report
// equals its JSON golden byte for byte, and stdout (the AVF table, plus the
// protection-efficiency or forensics table when enabled) its text golden.
// A --no-batch run reproduces its batched campaign's goldens.
TEST(BenchOutput, ResilienceCampaignsMatchGoldens) {
  const std::string smoke =
      " --machines=mblaze-3,m-vliw-2,m-tta-2 --workloads=sha --injections 64 --seed 7715 "
      "--threads 4";
  const std::string guarded =
      " --machines=g-tta-2 --workloads=sha,blowfish --injections 64 --seed 7715 --threads 4";
  const std::string protect =
      " --machines=mblaze-3,m-tta-1 --workloads=sha --protect=parity,eccdmr,full "
      "--double-bit 250 --injections 48 --seed 99 --threads 4";
  struct Case {
    std::string args;
    const char* golden;
  };
  const Case cases[] = {
      {smoke, "resil_smoke"},
      {smoke + " --no-batch", "resil_smoke"},
      {guarded, "resil_smoke_guarded"},
      {guarded + " --no-batch", "resil_smoke_guarded"},
      {protect, "resil_protect"},
      {smoke + " --forensics --forensics-budget 8", "resil_forensics"},
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
