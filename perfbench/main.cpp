// ttsc-perf: one benchmark for the ttsc toolchain, end to end and per layer.
//
//   ttsc_perf --workload grid|campaign|campaign-protected --seed N
//             --seconds S --trace 0|1 [--injections K] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics: set-up (median of several
// set-ups, each in a fresh forked process), then reps through the public
// pool API until S seconds have passed and at least kMinReps reps ran.
// --trace 1 is the traced run: a few reps (the comparison base of the mirror
// cross-check and the pool metrics), then untraced and traced serial
// mirrors in alternation; per-layer metrics come from the traced mirrors and
// the tracing overhead is traced minus untraced mirror time.
//
// stdout ends with two JSON lines: a detail object (host facts, work
// counts, extra figures, errors), then the result object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every output check passed.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace ttsc::perf {
namespace {

/// Reps per --trace 0 run, at least: rep_s.tail is the highest percentile
/// with at least ten reps beyond it, so 20 reps reach the median.
constexpr std::size_t kMinReps = 20;
/// Set-ups per --trace 0 run: kSetupForks in forked children, one in the
/// process itself.
constexpr int kSetupForks = 8;
/// Share of --seconds the traced run spends on reps before the mirrors.
constexpr double kTraceRepShare = 0.2;
/// Whatever --seconds says, stop starting new work after this long, so a
/// run ends well within its time limit.
constexpr double kHardStopSeconds = 120.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed with --trace 0 (BENCHMARK.json end_to_end).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"rep_s.p50", "s"},        {"rep_s.tail", "s"},
    {"cells_per_s", "cells/s"}, {"target_cycles", "cycles"}, {"image_bits", "bits"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics, printed with --trace 1 (BENCHMARK.json per_layer). A
/// layer a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"ir.interp_s", "s"},
    {"ir.build_s", "s"},
    {"opt.s", "s"},
    {"opt.ir_instrs", "count"},
    {"codegen.lower_s", "s"},
    {"codegen.spills", "count"},
    {"tta.schedule_s", "s"},
    {"vliw.schedule_s", "s"},
    {"scalar.emit_s", "s"},
    {"sim.predecode_s", "s"},
    {"sim.run_s.scalar", "s"},
    {"sim.run_s.vliw", "s"},
    {"sim.run_s.tta", "s"},
    {"sim.cycles.scalar", "cycles"},
    {"sim.cycles.vliw", "cycles"},
    {"sim.cycles.tta", "cycles"},
    {"sim.cycles_per_s.scalar", "cycles/s"},
    {"sim.cycles_per_s.vliw", "cycles/s"},
    {"sim.cycles_per_s.tta", "cycles/s"},
    {"report.cell_s.max", "s"},
    {"report.pool_efficiency", "ratio"},
    {"resil.prepare_s", "s"},
    {"resil.plan_s", "s"},
    {"sim.lockstep_s", "s"},
    {"sim.lockstep.lanes", "count"},
    {"sim.lockstep.evictions", "count"},
    {"sim.lockstep.eviction_ratio", "ratio"},
    {"resil.imem.injections", "count"},
    {"resil.imem.flip_s", "s"},
    {"resil.imem.predecode_s", "s"},
    {"resil.imem.run_s", "s"},
    {"resil.imem.cycles", "cycles"},
    {"resil.imem.cycles.ok", "cycles"},
    {"resil.imem.cycles.timeout", "cycles"},
    {"resil.imem.cycles.trap", "cycles"},
    {"resil.imem.cycles_per_s", "cycles/s"},
    {"resil.protected.state_s", "s"},
    {"resil.protected.imem_s", "s"},
    {"resil.protected.cycles", "cycles"},
    {"resil.protected.detections", "count"},
    {"resil.protected.corrections", "count"},
    {"trace.overhead_s", "s"},
};

struct Args {
  Config config;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ttsc_perf: %s\nusage: ttsc_perf --workload grid|campaign|campaign-protected "
               "--seed N --seconds S --trace 0|1 [--injections K] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

/// Whole-string unsigned parse; anything else is a usage error.
std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    usage(("bad value for " + flag + ": " + text).c_str());
  }
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.config.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.config.seed = parse_uint(flag, value);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, value));
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
      have[3] = true;
    } else if (flag == "--injections") {
      const std::uint64_t n = parse_uint(flag, value);
      if (n == 0 || n > 100000) usage("--injections must be in 1..100000");
      a.config.injections = static_cast<int>(n);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have[0] || !have[1] || !have[2] || !have[3]) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (a.config.workload != "grid" && a.config.workload != "campaign" &&
      a.config.workload != "campaign-protected") {
    usage(("unknown workload " + a.config.workload).c_str());
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  if (config.workload == "grid") return make_grid(config);
  return make_campaign(config, config.workload == "campaign-protected");
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Seconds of one set-up: construct the workload and run its setup().
double time_setup(const Config& config, Spans& spans, std::unique_ptr<Workload>* keep) {
  const auto t0 = Clock::now();
  std::unique_ptr<Workload> w = make_workload(config);
  w->setup(spans);
  const double s = since(t0);
  if (keep != nullptr) *keep = std::move(w);
  return s;
}

/// One set-up in a forked child, so the memoized golden cache and the
/// first-use allocations are paid again. Must run before this process
/// starts any thread.
double forked_setup(const Config& config) {
  int fds[2];
  if (pipe(fds) != 0) throw Error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double s = -1.0;
    try {
      Spans off(false);
      s = time_setup(config, off, nullptr);
    } catch (...) {
    }
    const bool ok = s >= 0 && write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  const ssize_t got = read(fds[0], &s, sizeof s);
  close(fds[0]);
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || got != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw Error("set-up failed in a forked child");
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest percentile with at least ten samples beyond it: the (n-10)-th
/// smallest of n samples. Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t k = n > 10 ? n - 10 : 1;
  return {v[k - 1], 100.0 * static_cast<double>(k) / static_cast<double>(n)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string number(double v) { return format("%.17g", v); }

void write_metrics(obs::JsonWriter& w, const MetricDef* defs, std::size_t n,
                   const std::map<std::string, double>& values, std::vector<std::string>& errors) {
  w.begin_object();
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      errors.push_back(std::string("metric ") + defs[i].name + " is not finite");
      v = 0.0;
    }
    w.key(defs[i].name);
    w.begin_object();
    w.key("value");
    w.raw_value(number(v));
    w.key("unit");
    w.value(defs[i].unit);
    w.end_object();
  }
  w.end_object();
}

void write_counts(obs::JsonWriter& w, const Counts& counts) {
  w.begin_object();
  for (const auto& [k, v] : counts) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
}

void write_doubles(obs::JsonWriter& w, const std::map<std::string, double>& values) {
  w.begin_object();
  for (const auto& [k, v] : values) {
    w.key(k);
    w.raw_value(std::isfinite(v) ? number(v) : "null");
  }
  w.end_object();
}

struct Host {
  unsigned hardware_threads = 0;
  int cpus = 0;
  int pool_threads = 0;
  bool optimized = false;
};

void write_host(obs::JsonWriter& w, const Host& h) {
  w.begin_object();
  w.key("hardware_threads");
  w.value(static_cast<std::uint64_t>(h.hardware_threads));
  w.key("cpus_available");
  w.value(h.cpus);
  w.key("pool_threads");
  w.value(h.pool_threads);
  w.key("compiler");
  w.value(TTSC_PERF_COMPILER);
  w.key("build_type");
  w.value(TTSC_PERF_BUILD_TYPE);
  w.key("flags");
  w.value(TTSC_PERF_CXX_FLAGS);
  w.key("optimized");
  w.value(h.optimized);
  w.end_object();
}

int run(const Args& args) {
  Host host;
  host.hardware_threads = std::thread::hardware_concurrency();
  host.cpus = available_cpus();
  host.pool_threads = std::min(host.cpus, 4);
  const std::string flags = TTSC_PERF_CXX_FLAGS;
  host.optimized = flags.find("-O2") != std::string::npos || flags.find("-O3") != std::string::npos;
  if (!host.optimized) {
    std::fprintf(stderr, "ttsc_perf: WARNING: unoptimized build (flags: %s)\n", flags.c_str());
  }
  Config config = args.config;
  config.threads = host.pool_threads;

  // Set-up: forked children first, while this process has no threads yet.
  std::vector<double> setup_samples;
  if (!args.trace) {
    for (int k = 0; k < kSetupForks; ++k) setup_samples.push_back(forked_setup(config));
  }
  Spans setup_spans(args.trace);
  std::unique_ptr<Workload> workload;
  setup_samples.push_back(time_setup(config, setup_spans, &workload));

  std::vector<std::string> errors;
  std::vector<Rep> reps;
  const auto start = Clock::now();
  const auto keep_going = [&](bool more) {
    return more && since(start) < kHardStopSeconds;
  };
  const double rep_budget = args.trace ? args.seconds * kTraceRepShare : args.seconds;
  do {
    reps.push_back(workload->rep());
  } while (keep_going((!args.trace && reps.size() < kMinReps) || since(start) < rep_budget));

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (Rep& r : reps) {
    if (r.work != reps.front().work && r.failed < r.attempted) {
      r.failed = r.attempted;
      r.errors.push_back("work counts differ from the first rep's");
    }
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(e);
  }

  std::vector<double> rep_s;
  std::vector<double> efficiency;
  std::vector<double> cell_max;
  for (const Rep& r : reps) {
    rep_s.push_back(r.seconds);
    efficiency.push_back(r.busy_s / (r.seconds * host.pool_threads));
    cell_max.push_back(r.cell_s_max);
  }
  const double rep_p50 = median(rep_s);
  const auto [rep_tail, tail_pct] = tail(rep_s);
  const Counts& work = reps.front().work;

  std::map<std::string, double> metrics;
  std::map<std::string, double> detail;
  Counts layer_counts;
  std::string trace_json;
  if (!args.trace) {
    metrics["setup_s"] = median(setup_samples);
    metrics["rep_s.p50"] = rep_p50;
    metrics["rep_s.tail"] = rep_tail;
    metrics["cells_per_s"] = static_cast<double>(work.at("cells")) / rep_p50;
    metrics["target_cycles"] = static_cast<double>(work.at("target_cycles"));
    metrics["image_bits"] = static_cast<double>(work.at("image_bits"));
    metrics["peak_rss_mb"] = peak_rss_mb();
    detail = workload->extras(rep_p50);
    detail["rep_s.tail.percentile"] = tail_pct;
    detail["rep_s.min"] = *std::min_element(rep_s.begin(), rep_s.end());
    detail["rep_s.max"] = *std::max_element(rep_s.begin(), rep_s.end());
    detail["failed_ratio"] = static_cast<double>(failed) / static_cast<double>(attempted);
  } else {
    // Untraced and traced mirrors in alternation: at least one pair, and
    // another only while it is expected to end within --seconds.
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::map<std::string, std::vector<double>> samples;
    do {
      for (const bool traced : {false, true}) {
        Spans spans(traced);
        const auto t0 = Clock::now();
        Mirror m = workload->mirror(spans);
        (traced ? traced_s : untraced_s).push_back(since(t0));
        for (const std::string& e : m.errors) errors.push_back(e);
        if (!traced) continue;
        if (!layer_counts.empty() && m.counts != layer_counts) {
          errors.push_back("mirror work counts differ between traced runs");
        }
        layer_counts = m.counts;
        for (const auto& [k, v] : spans.self_seconds()) samples[k].push_back(v);
        for (const auto& [k, v] : m.values) samples[k].push_back(v);
        trace_json = spans.chrome_json();
      }
    } while (keep_going(since(start) + untraced_s.back() + traced_s.back() < args.seconds));
    for (const auto& [k, v] : samples) metrics[k] = median(v);
    for (const auto& [k, v] : layer_counts) metrics[k] = static_cast<double>(v);
    for (const auto& [k, v] : setup_spans.self_seconds()) metrics[k] = v;
    if (config.workload == "grid") {
      metrics["report.cell_s.max"] = median(cell_max);
      metrics["report.pool_efficiency"] = median(efficiency);
    }
    const double traced = median(traced_s);
    const double untraced = median(untraced_s);
    metrics["trace.overhead_s"] = traced - untraced;
    detail["trace.traced_s"] = traced;
    detail["trace.untraced_s"] = untraced;
    detail["trace.mirrors"] = static_cast<double>(traced_s.size());
    // An overhead smaller than the untraced mirrors' own spread is noise.
    std::vector<double> sorted = untraced_s;
    std::sort(sorted.begin(), sorted.end());
    detail["trace.untraced_spread_s"] = sorted.back() - sorted.front();
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      if (!(out << trace_json)) errors.push_back("cannot write " + args.trace_out);
    }
  }

  obs::JsonWriter d;
  d.begin_object();
  d.key("ttsc_perf");
  d.begin_object();
  d.key("workload");
  d.value(config.workload);
  d.key("seed");
  d.value(config.seed);
  d.key("trace");
  d.value(args.trace);
  d.key("host");
  write_host(d, host);
  d.key("reps");
  d.value(static_cast<std::uint64_t>(reps.size()));
  d.key("setup_samples");
  d.begin_array();
  for (const double s : setup_samples) d.raw_value(number(s));
  d.end_array();
  d.key("work");
  write_counts(d, work);
  if (args.trace) {
    d.key("layer_work");
    write_counts(d, layer_counts);
    if (!args.trace_out.empty()) {
      d.key("trace_file");
      d.value(args.trace_out);
    }
  }
  d.key("figures");
  write_doubles(d, detail);

  obs::JsonWriter m;
  if (args.trace) {
    write_metrics(m, kPerLayer, std::size(kPerLayer), metrics, errors);
  } else {
    write_metrics(m, kEndToEnd, std::size(kEndToEnd), metrics, errors);
  }
  const bool correct = failed == 0 && errors.empty();

  d.key("errors");
  d.begin_array();
  for (std::size_t i = 0; i < errors.size() && i < 50; ++i) d.value(errors[i]);
  d.end_array();
  d.end_object();
  d.end_object();

  obs::JsonWriter r;
  r.begin_object();
  r.key("correct");
  r.value(correct);
  r.key("attempted");
  r.value(attempted);
  r.key("failed");
  r.value(failed);
  r.key("metrics");
  r.raw_value(m.str());
  r.end_object();

  for (const std::string& e : errors) std::fprintf(stderr, "ttsc_perf: %s\n", e.c_str());
  std::printf("%s\n%s\n", d.str().c_str(), r.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ttsc::perf

int main(int argc, char** argv) {
  const ttsc::perf::Args args = ttsc::perf::parse_args(argc, argv);
  try {
    return ttsc::perf::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttsc_perf: %s\n", e.what());
    return 1;
  }
}
