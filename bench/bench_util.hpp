// Shared command-line handling for the table/figure harnesses.
//
// Every paper-artifact binary accepts the same flags:
//   --threads N        worker threads for the parallel experiment engine
//                      (default: TTSC_THREADS env var, else hardware
//                      concurrency; a value that is not a whole number
//                      prints usage and exits 2, like an unknown flag)
//   --serial           run the serial reference driver instead of the engine
//   --stats            print the per-stage timing/counter section
//   --utilization      collect per-FU/bus utilization and opcode histograms
//                      during simulation and print the merged report
//   --metrics          print the sweep's merged compiler/scheduler metrics
//                      registry (opt pass deltas, scheduling freedoms taken,
//                      failure reasons, spills per RF, NOP density)
//   --trace            print a cycle-by-cycle event trace of the first cell
//                      (first machine x first workload, capped at 200 events)
//   --trace-out=FILE   record compiler/simulator pipeline spans and write a
//                      Chrome trace-event JSON (load in chrome://tracing or
//                      Perfetto; worker threads appear as named rows)
//   --report-json=FILE write the machine-readable run report
//                      ("ttsc-run-report" v1; see src/report/run_report.hpp)
//   --profile-json=FILE
//                      run every cell with the cycle-attribution profiler
//                      attached and write the machine-readable profile
//                      report ("ttsc-profile-report" v1; see
//                      src/report/profile_report.hpp): the nine-way cycle
//                      partition, top-down stall tree, per-unit counters
//                      and hottest blocks per cell. Profiled run reports
//                      also name each cell's "binding" resource
//   --profile-folded=FILE
//                      write the same attribution as folded stacks
//                      (machine;workload;block<id>;<cause> count), the
//                      flamegraph.pl / inferno input format. Implies
//                      profiling like --profile-json
//   --keep-going       don't abort the sweep on the first failing cell:
//                      record each failure (simulation timeout/trap,
//                      reference divergence) per cell, render it as ERR in
//                      the artifact, list the failures on stderr, and exit
//                      non-zero
//   --vcd-out=FILE     re-run the first cell (first machine x first
//                      workload) with the flight recorder attached and
//                      write the retained window as a deterministic VCD
//                      waveform (report/vcd.hpp; open in GTKWave)
//   --flight-dump=FILE replay one cell with the flight recorder attached
//                      and write the last-N-cycles forensic dump
//                      ("ttsc-flight-dump" v1 JSON). Under --keep-going
//                      with failing cells the first failed cell is
//                      replayed (the dump captures the cycles leading into
//                      the trap/timeout); otherwise the first cell
//   --superblocks      two-phase profile-guided superblock compile per cell:
//                      phase 1 runs the ordinary schedule under a profile
//                      collector, phase 2 forms superblocks along the hot
//                      acyclic paths and schedules the merged traces; the
//                      cheaper phase wins each cell (a cell never regresses).
//                      Per-cell cycle deltas vs the phase-1 baseline go to
//                      stderr and into the --report-json cells
//                      ("baseline_cycles" / "superblocks_applied")
//
// Stream hygiene: the paper artifact (the table/figure text) is the ONLY
// thing written to stdout, so `table4_cycles > table4.txt` stays clean; all
// diagnostic sections (--stats, --utilization, --metrics, --trace) go to
// stderr. tests/bench_output_test.cpp locks this contract.
//
// Both engine paths produce byte-identical table text (the engine's
// determinism contract, locked in by tests/parallel_runner_test.cpp), and
// enabling any observability flag never changes the stdout bytes.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>
#include <tuple>
#include <type_traits>

#include "mach/configs.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/vcd.hpp"
#include "opt/superblock.hpp"
#include "report/parallel_runner.hpp"
#include "report/profile_report.hpp"
#include "report/run_report.hpp"
#include "sim/collectors.hpp"
#include "workloads/workload.hpp"

namespace ttsc::bench {

struct Options {
  int threads = 0;  // <= 0: hardware concurrency
  bool serial = false;
  bool stats = false;
  bool utilization = false;  // --utilization
  bool metrics = false;      // --metrics
  bool trace = false;        // --trace
  std::string trace_out;     // --trace-out=FILE (empty: tracer stays off)
  std::string report_json;   // --report-json=FILE (empty: no report)
  std::string profile_json;    // --profile-json=FILE (empty: no profile report)
  std::string profile_folded;  // --profile-folded=FILE (empty: no folded export)
  std::string vcd_out;       // --vcd-out=FILE (empty: no waveform export)
  std::string flight_dump;   // --flight-dump=FILE (empty: no forensic dump)
  bool keep_going = false;   // --keep-going
  bool superblocks = false;  // --superblocks

  bool wants_profile() const { return !profile_json.empty() || !profile_folded.empty(); }
};

/// Match `--name=VALUE` or `--name VALUE`; advances `i` for the latter.
inline bool flag_value(int argc, char** argv, int& i, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(argv[i], name, n) == 0 && argv[i][n] == '=') {
    out = argv[i] + n + 1;
    return true;
  }
  if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
    out = argv[++i];
    return true;
  }
  return false;
}

/// Strict whole-string value of a numeric flag or environment variable:
/// decimal, or 0x-prefixed hex for integers; unsigned types take no sign.
/// Anything else — empty, trailing characters, out of range — calls `fail`,
/// which prints usage and exits 2, so a typo never silently runs as 0. An
/// integer with a leading zero (`010`) fails too: C's base-0 parsing reads
/// it as octal, so its meaning is ambiguous.
template <typename T, typename Fail>
T parse_number(const std::string& text, Fail&& fail) {
  const char* first = text.data();
  const char* const last = first + text.size();
  T value{};
  std::from_chars_result r{};
  if constexpr (std::is_integral_v<T>) {
    const bool hex = text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    const std::size_t digit = !text.empty() && text[0] == '-' ? 1 : 0;
    if (!hex && text.size() > digit + 1 && text[digit] == '0') fail();
    if (hex) first += 2;
    r = std::from_chars(first, last, value, hex ? 16 : 10);
  } else {
    r = std::from_chars(first, last, value);
  }
  if (first == last || r.ec != std::errc() || r.ptr != last) fail();
  return value;
}

[[noreturn]] inline void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--serial] [--stats] "
               "[--utilization] [--metrics] [--trace] [--keep-going] "
               "[--superblocks] [--trace-out=FILE] [--report-json=FILE] "
               "[--profile-json=FILE] [--profile-folded=FILE] "
               "[--vcd-out=FILE] [--flight-dump=FILE]\n",
               prog);
  std::exit(2);
}

inline Options parse_args(int argc, char** argv) {
  Options opts;
  const auto fail = [&] { usage(argv[0]); };
  if (const char* env = std::getenv("TTSC_THREADS")) opts.threads = parse_number<int>(env, fail);
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--serial") == 0) {
      opts.serial = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      opts.stats = true;
    } else if (std::strcmp(argv[i], "--utilization") == 0) {
      opts.utilization = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opts.metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace = true;
    } else if (std::strcmp(argv[i], "--keep-going") == 0) {
      opts.keep_going = true;
    } else if (std::strcmp(argv[i], "--superblocks") == 0) {
      opts.superblocks = true;
    } else if (flag_value(argc, argv, i, "--trace-out", value)) {
      opts.trace_out = value;
    } else if (flag_value(argc, argv, i, "--report-json", value)) {
      opts.report_json = value;
    } else if (flag_value(argc, argv, i, "--profile-json", value)) {
      opts.profile_json = value;
    } else if (flag_value(argc, argv, i, "--profile-folded", value)) {
      opts.profile_folded = value;
    } else if (flag_value(argc, argv, i, "--vcd-out", value)) {
      opts.vcd_out = value;
    } else if (flag_value(argc, argv, i, "--flight-dump", value)) {
      opts.flight_dump = value;
    } else if (flag_value(argc, argv, i, "--threads", value)) {
      opts.threads = parse_number<int>(value, fail);
    } else {
      usage(argv[0]);
    }
  }
  return opts;
}

inline sim::SimOptions sim_options_of(const Options& opts) {
  sim::SimOptions sim;
  sim.collect_utilization = opts.utilization;
  sim.collect_profile = opts.wants_profile();
  return sim;
}

/// True when the sweep should collect into a metrics registry (the
/// registry is the source for both the --metrics dump and the run report).
inline bool wants_metrics(const Options& opts) {
  return opts.metrics || !opts.report_json.empty();
}

/// The full evaluation matrix through the chosen engine, accumulating the
/// sweep's compiler/scheduler counters into `registry` when non-null.
inline report::Matrix run_matrix(const Options& opts, obs::Registry* registry = nullptr) {
  const opt::SuperblockOptions sb_options{.superblocks = true};
  const opt::SuperblockOptions* superblocks = opts.superblocks ? &sb_options : nullptr;
  if (opts.serial) {
    return report::Matrix::run(sim_options_of(opts), registry, opts.keep_going, superblocks);
  }
  report::ParallelRunner runner({.threads = opts.threads,
                                 .sim = sim_options_of(opts),
                                 .registry = registry,
                                 .keep_going = opts.keep_going,
                                 .superblocks = superblocks});
  return runner.run();
}

/// --stats: wall time per pipeline stage and the sweep's counters, summed
/// from the finished matrix's cells. A workload's one shared frontend/opt
/// build counts once; a --superblocks cell's times cover both phases.
inline void print_stats(const Options& opts, const report::Matrix& matrix) {
  if (!opts.stats) return;
  support::StageSeconds sum;
  std::uint64_t builds = 0;
  std::uint64_t cells = 0;
  std::uint64_t cycles = 0;
  std::uint64_t spills = 0;
  for (const std::string& w : matrix.workload_names()) {
    bool build_counted = false;
    for (const report::MachineResults& m : matrix.machines()) {
      const report::RunOutcome& out = m.by_workload.at(w);
      if (!out.ok) continue;
      support::StageSeconds cell = out.stage_seconds;
      if (build_counted) {
        cell.frontend = cell.opt = 0.0;  // every cell carries the workload's one build
      } else {
        ++builds;
        build_counted = true;
      }
      sum += cell;
      ++cells;
      cycles += out.cycles;
      spills += static_cast<std::uint64_t>(out.spills);
    }
  }
  const std::tuple<const char*, std::uint64_t, double> stages[] = {
      {"frontend", builds, sum.frontend}, {"opt", builds, sum.opt},
      {"regalloc", cells, sum.regalloc},  {"schedule", cells, sum.schedule},
      {"predecode", cells, sum.predecode}, {"simulate", cells, sum.simulate}};
  std::string text = "\n-- stats: toolchain stage profile --\n";
  text += format("%-10s %8s %10s\n", "stage", "calls", "wall_s");
  for (const auto& [name, calls, seconds] : stages) {
    text += format("%-10s %8llu %10.3f\n", name, static_cast<unsigned long long>(calls), seconds);
  }
  text += format("%-10s %8s %10.3f\n", "total", "", sum.total());
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"cells_run", cells}, {"cycles_simulated", cycles}, {"modules_built", matrix.modules_built()},
      {"spills", spills}};
  text += "counters:\n";
  for (const auto& [name, value] : counters) {
    text += format("  %-24s %12llu\n", name, static_cast<unsigned long long>(value));
  }
  std::fputs(text.c_str(), stderr);
}

/// --utilization: merge every cell's execution profile into one suite-wide
/// report (heterogeneous machines: generic FU/bus labels).
inline void print_utilization(const Options& opts, const report::Matrix& matrix) {
  if (!opts.utilization) return;
  sim::UtilizationReport merged;
  for (const report::MachineResults& m : matrix.machines()) {
    for (const auto& [name, outcome] : m.by_workload) {
      if (outcome.utilization.has_value()) merged.merge(*outcome.utilization);
    }
  }
  std::fputs(("\n" + merged.render()).c_str(), stderr);
}

/// --metrics: dump the sweep's merged registry.
inline void print_metrics(const Options& opts, const obs::Registry& registry) {
  if (opts.metrics) std::fputs(("\n" + registry.render()).c_str(), stderr);
}

/// --superblocks: per-cell cycle deltas of the adopted schedule vs the
/// phase-1 baseline (stderr; the artifact on stdout already shows the
/// adopted cycles). Cells where no trace formed or the baseline won are
/// listed as unchanged totals only.
inline void print_superblock_deltas(const Options& opts, const report::Matrix& matrix) {
  if (!opts.superblocks) return;
  std::fputs("\nsuperblock deltas (cycles vs phase-1 baseline):\n", stderr);
  std::uint64_t base_total = 0;
  std::uint64_t total = 0;
  for (const report::MachineResults& m : matrix.machines()) {
    for (const std::string& name : matrix.workload_names()) {
      auto it = m.by_workload.find(name);
      if (it == m.by_workload.end() || !it->second.ok) continue;
      const report::RunOutcome& out = it->second;
      base_total += out.baseline_cycles;
      total += out.cycles;
      if (out.cycles == out.baseline_cycles) continue;
      const std::int64_t delta =
          static_cast<std::int64_t>(out.cycles) - static_cast<std::int64_t>(out.baseline_cycles);
      std::fprintf(stderr, "  %-10s %-9s %10llu -> %10llu  (%+lld, %+.2f%%)\n",
                   m.machine.name.c_str(), name.c_str(),
                   static_cast<unsigned long long>(out.baseline_cycles),
                   static_cast<unsigned long long>(out.cycles), static_cast<long long>(delta),
                   100.0 * static_cast<double>(delta) / static_cast<double>(out.baseline_cycles));
    }
  }
  const std::int64_t delta =
      static_cast<std::int64_t>(total) - static_cast<std::int64_t>(base_total);
  std::fprintf(stderr, "  total: %llu -> %llu (%+lld)\n",
               static_cast<unsigned long long>(base_total),
               static_cast<unsigned long long>(total), static_cast<long long>(delta));
}

/// --trace: re-run the first cell of the matrix with a TraceObserver and
/// print the event log (the paper grid above is untouched — this is one
/// extra simulation of one cell).
inline void print_trace(const Options& opts) {
  if (!opts.trace) return;
  const mach::Machine machine = mach::all_machines().front();
  const workloads::Workload& workload = workloads::all_workloads().front();
  sim::TraceObserver trace;
  report::replay_with_observer(workload, machine, &trace);
  std::fprintf(stderr, "\ntrace (%s on %s):\n%s", workload.name.c_str(), machine.name.c_str(),
               trace.text().c_str());
}

/// --vcd-out / --flight-dump: replay one cell with a flight recorder
/// attached and write the requested exports. The VCD always renders the
/// first cell of the matrix; the forensic dump prefers the first *failed*
/// cell (under --keep-going) so the dump captures the cycles leading into
/// the trap/timeout. One extra simulation per export target; the paper
/// artifact on stdout is untouched.
inline void write_flight_exports(const Options& opts, const report::Matrix& matrix) {
  if (opts.vcd_out.empty() && opts.flight_dump.empty()) return;
  const auto find_workload = [&](const std::string& name) -> const workloads::Workload& {
    for (const workloads::Workload& w : workloads::all_workloads()) {
      if (w.name == name) return w;
    }
    return workloads::all_workloads().front();
  };
  const auto replay_and_write = [&](const mach::Machine& machine,
                                    const workloads::Workload& workload, const char* path,
                                    bool want_vcd) {
    obs::FlightRecorder recorder(machine);
    const sim::ExecResult r = report::replay_with_observer(workload, machine, &recorder);
    std::string text;
    if (want_vcd) {
      text = report::render_vcd(recorder);
    } else {
      obs::FlightDumpInfo info;
      info.machine = machine.name;
      info.workload = workload.name;
      info.engine = mach::model_name(machine.model);
      info.status = sim::exec_status_name(r.status);
      if (r.status == sim::ExecStatus::Trapped) {
        info.trap_reason = sim::trap_reason_name(r.trap.reason);
        info.trap_cycle = r.trap.cycle;
      }
      info.cycles = r.cycles;
      info.ret = r.ret;
      text = obs::render_flight_dump(recorder, info);
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << text) || (out.close(), !out)) {
      std::fprintf(stderr, "cannot write flight export: %s\n", path);
      std::exit(2);
    }
  };
  if (!opts.vcd_out.empty()) {
    replay_and_write(mach::all_machines().front(), workloads::all_workloads().front(),
                     opts.vcd_out.c_str(), /*want_vcd=*/true);
  }
  if (!opts.flight_dump.empty()) {
    const std::vector<const report::RunOutcome*> failures = matrix.failures();
    if (!failures.empty()) {
      const report::RunOutcome* f = failures.front();
      replay_and_write(mach::machine_by_name(f->machine), find_workload(f->workload),
                       opts.flight_dump.c_str(), /*want_vcd=*/false);
    } else {
      replay_and_write(mach::all_machines().front(), workloads::all_workloads().front(),
                       opts.flight_dump.c_str(), /*want_vcd=*/false);
    }
  }
}

/// Run one paper-artifact harness end to end: parse flags, run the sweep,
/// write the rendered artifact to stdout, then emit every requested
/// diagnostic/export. `render` maps the finished Matrix to the artifact
/// text. All table/figure mains funnel through here so the flag surface
/// and the stdout-purity contract stay uniform.
template <typename RenderFn>
int run_harness(int argc, char** argv, RenderFn&& render) {
  const Options opts = parse_args(argc, argv);
  if (!opts.trace_out.empty()) obs::Tracer::instance().start();
  obs::Registry registry;
  obs::Registry* metrics = wants_metrics(opts) ? &registry : nullptr;
  const report::Matrix matrix = run_matrix(opts, metrics);
  std::fputs(render(matrix).c_str(), stdout);
  print_stats(opts, matrix);
  print_utilization(opts, matrix);
  print_metrics(opts, registry);
  print_superblock_deltas(opts, matrix);
  print_trace(opts);
  // An output file that cannot be written fails the run closed: one line
  // on stderr and exit 2, never an abort or a silently missing file.
  try {
    if (!opts.report_json.empty()) {
      report::write_run_report(opts.report_json, matrix, metrics);
    }
    if (!opts.profile_json.empty()) {
      report::write_profile_report(opts.profile_json, matrix);
    }
    if (!opts.profile_folded.empty()) {
      report::write_profile_folded(opts.profile_folded, matrix);
    }
    if (!opts.trace_out.empty()) {
      obs::Tracer::instance().stop();
      if (!obs::Tracer::instance().write_file(opts.trace_out)) {
        throw Error("cannot write trace: " + opts.trace_out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  write_flight_exports(opts, matrix);
  // Under --keep-going the artifact above shows failed cells as ERR; the
  // summary goes to stderr (stdout purity) and the exit code flags them.
  const std::vector<const report::RunOutcome*> failures = matrix.failures();
  if (!failures.empty()) {
    std::fprintf(stderr, "%zu cell(s) failed:\n", failures.size());
    for (const report::RunOutcome* f : failures) {
      std::fprintf(stderr, "  %s/%s: %s\n", f->machine.c_str(), f->workload.c_str(),
                   f->error.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace ttsc::bench
