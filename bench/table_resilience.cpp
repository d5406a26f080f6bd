// SEU fault-injection campaign: the AVF-style resilience table.
//
// Unlike the table/figure harnesses this does not sweep the full evaluation
// matrix — a campaign is thousands of simulations per cell, so the cell set
// is a flag-selectable subset:
//   --machines=a,b,c    machines to inject into (default: one per model
//                       plus a guarded TTA)
//   --workloads=x,y     workloads per machine (default: blowfish, sha)
//   --injections N      single-bit faults per (machine, workload) cell
//   --seed N            campaign seed (decimal or 0x hex); the whole report
//                       is a pure function of (seed, cell set, injections)
//   --threads N         worker threads (default: TTSC_THREADS env var, else
//                       hardware concurrency)
//   --serial            plain loop, no thread pool (determinism reference —
//                       byte-identical output to any threaded run)
//   --no-batch          per-injection scalar path instead of the batched
//                       lockstep stepper (sim/lockstep.hpp); the report is
//                       byte-identical either way
//   --superblocks       inject into the two-phase profile-guided superblock
//                       schedule of each cell (with the driver's no-slower
//                       fallback) instead of the ordinary schedule
//   --batch-lanes N     lockstep lanes per batch (1..64, default 64)
//   --forensics         first-divergence forensics: replay SDC/latent
//                       injections golden-vs-faulty with paired commit
//                       recorders; stdout gains a per-injection table and
//                       the report JSON per-cell "forensics" sections
//   --forensics-budget N  forensic replays per cell (default: automatic,
//                       max(1, injections/64) — keeps overhead under 5%)
//   --protect=p1,p2     also inject into the named protection variants of
//                       every machine in the set: for each machine M and
//                       profile p, append "M+p" (parity | eccdmr | full —
//                       see mach::Protection) to the machine list; the
//                       stdout table and report gain the
//                       corrected/recovered/detected outcome columns and
//                       the protection-efficiency section
//   --double-bit N      adjacent double-bit upset rate in permille (0..1000,
//                       default 0 — the historical single-bit plan)
//   --retry-budget N    override Protection::retry_budget on every
//                       protected cell (rollback retries before degrading
//                       to detected-unrecoverable)
//   --checkpoint N      override Protection::checkpoint_interval (cycles
//                       between rollback checkpoints)
//   --cell-timeout S    per-cell wall-clock watchdog in seconds (0 = off);
//                       an expired cell aborts the campaign, or degrades to
//                       a structured ERR cell under --keep-going
//   --keep-going        keep running the remaining cells after a watchdog
//                       expiry (the report still exits non-zero)
//   --metrics           print the campaign's merged "resil.*" counters to
//                       stderr
//   --report-json=FILE  write the machine-readable campaign report
//                       ("ttsc-resil-report" v1; diffable via report_diff)
//
// Numeric values must be whole numbers (bench_util.hpp parse_number):
// anything else prints usage and exits 2, like an unknown flag. Stream
// hygiene matches the other harnesses: stdout carries only the table;
// diagnostics go to stderr. Exits non-zero on any ERR cell or injection
// infrastructure failure.
//
// SIGINT/SIGTERM are caught: the campaign stops at the next cell boundary
// and the completed prefix is still rendered (and written to --report-json)
// as a truncated partial report, exiting non-zero.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "resil/campaign.hpp"

namespace {

volatile std::sig_atomic_t g_cancel = 0;

extern "C" void on_signal(int) { g_cancel = 1; }

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--machines=a,b,c] [--workloads=x,y] [--injections N] "
               "[--seed N] [--threads N] [--serial] [--no-batch] [--batch-lanes N] "
               "[--superblocks] [--forensics] [--forensics-budget N] "
               "[--protect=p1,p2] [--double-bit N] [--retry-budget N] [--checkpoint N] "
               "[--cell-timeout S] [--keep-going] [--metrics] "
               "[--report-json=FILE]\n",
               prog);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ttsc;
  resil::CampaignOptions options;
  const auto fail = [&] { usage(argv[0]); };
  if (const char* env = std::getenv("TTSC_THREADS")) {
    options.threads = bench::parse_number<int>(env, fail);
  }
  bool metrics = false;
  std::string report_json;
  std::vector<std::string> protect_profiles;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--serial") == 0) {
      options.serial = true;
    } else if (std::strcmp(argv[i], "--no-batch") == 0) {
      options.batch = false;
    } else if (std::strcmp(argv[i], "--superblocks") == 0) {
      options.superblocks = true;
    } else if (std::strcmp(argv[i], "--forensics") == 0) {
      options.forensics = true;
    } else if (std::strcmp(argv[i], "--keep-going") == 0) {
      options.keep_going = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (bench::flag_value(argc, argv, i, "--protect", value)) {
      protect_profiles = split_list(value);
    } else if (bench::flag_value(argc, argv, i, "--double-bit", value)) {
      options.double_bit_permille = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--retry-budget", value)) {
      options.retry_budget_override = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--checkpoint", value)) {
      options.checkpoint_override = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--cell-timeout", value)) {
      options.cell_timeout_seconds = bench::parse_number<double>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--forensics-budget", value)) {
      options.forensics_budget = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--batch-lanes", value)) {
      options.batch_lanes = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--machines", value)) {
      options.machines = split_list(value);
    } else if (bench::flag_value(argc, argv, i, "--workloads", value)) {
      options.workloads = split_list(value);
    } else if (bench::flag_value(argc, argv, i, "--injections", value)) {
      options.injections_per_cell = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--seed", value)) {
      options.seed = bench::parse_number<std::uint64_t>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--threads", value)) {
      options.threads = bench::parse_number<int>(value, fail);
    } else if (bench::flag_value(argc, argv, i, "--report-json", value)) {
      report_json = value;
    } else {
      usage(argv[0]);
    }
  }
  if (options.machines.empty() || options.workloads.empty() ||
      options.injections_per_cell <= 0) {
    usage(argv[0]);
  }
  if (options.double_bit_permille < 0 || options.double_bit_permille > 1000) usage(argv[0]);
  // Expand --protect: every base machine plus its "M+profile" variants, base
  // first so the efficiency table can pair each variant with its base cell.
  if (!protect_profiles.empty()) {
    std::vector<std::string> expanded;
    for (const std::string& m : options.machines) {
      expanded.push_back(m);
      for (const std::string& p : protect_profiles) expanded.push_back(m + "+" + p);
    }
    options.machines = std::move(expanded);
  }

  options.cancel = &g_cancel;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  obs::Registry registry;
  options.registry = metrics || !report_json.empty() ? &registry : nullptr;
  resil::CampaignReport report;
  try {
    report = resil::run_campaign(options);
  } catch (const std::exception& e) {
    // Unknown machine/workload names and unwritable report paths are
    // configuration errors, not campaign failures — same exit code as a
    // malformed flag.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  std::fputs(resil::render_resilience(report).c_str(), stdout);
  if (report.protection) {
    const std::string eff = resil::render_protection_efficiency(report);
    if (!eff.empty()) std::fputs(("\n" + eff).c_str(), stdout);
  }
  if (options.forensics) std::fputs(("\n" + resil::render_forensics(report)).c_str(), stdout);
  if (metrics) std::fputs(("\n" + registry.render()).c_str(), stderr);
  if (!report_json.empty()) {
    try {
      resil::write_resil_report(report_json, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }

  int exit_code = 0;
  for (const resil::CellReport& c : report.cells) {
    if (!c.ok) {
      std::fprintf(stderr, "cell failed: %s/%s: %s\n", c.machine.c_str(),
                   c.workload.c_str(), c.error.c_str());
      exit_code = 1;
    }
  }
  const std::uint64_t infra = report.infra_failures();
  if (infra != 0) {
    std::fprintf(stderr, "%llu injection(s) hit infrastructure failures\n",
                 static_cast<unsigned long long>(infra));
    exit_code = 1;
  }
  if (report.truncated) {
    std::fprintf(stderr, "campaign truncated by signal; partial report flushed\n");
    exit_code = 1;
  }
  return exit_code;
}
