// ttsc-perf workload interface.
//
// Each workload provides three things to main.cpp:
//  * setup()  — the golden-model cache and a warm-up rep, everything a first
//               timed rep would otherwise pay; timed as setup_s;
//  * rep()    — one untimed-overhead rep through the public pool API (a
//               ParallelRunner sweep or a run_campaign call): only the API
//               call is timed, its outputs are checked afterwards;
//  * mirror() — the serial traced run: the same work re-done through each
//               layer's public functions, with a span around every call,
//               cross-checked against the last rep.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace ttsc::perf {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic work counts: identical across reps of one run and across
/// builds that change only speed.
using Counts = std::map<std::string, std::uint64_t>;

struct Rep {
  double seconds = 0.0;
  /// Cells (grid) or injections (campaigns) attempted and failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Counts work;
  std::vector<std::string> errors;
  /// Grid only, from the cells' own stage timers: summed busy seconds of
  /// every cell and module build, and the slowest cell.
  double busy_s = 0.0;
  double cell_s_max = 0.0;
};

struct Mirror {
  /// Per-layer work counts (identical on every mirror of a run) and rates
  /// measured by the mirror itself; span self times come from the Spans
  /// recorder.
  Counts counts;
  std::map<std::string, double> values;
  /// Cross-check failures against the last rep: a non-empty list means the
  /// per-layer numbers describe different work than the timed reps.
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Spans& spans) = 0;
  virtual Rep rep() = 0;
  virtual Mirror mirror(Spans& spans) = 0;
  /// Extra end-to-end figures of this workload (shown in the detail line,
  /// not gated), from the median rep time.
  virtual std::map<std::string, double> extras(double rep_s) const = 0;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 1;
  /// Campaign injections per cell; <= 0 keeps the workload's default.
  int injections = 0;
};

std::unique_ptr<Workload> make_grid(const Config& config);
std::unique_ptr<Workload> make_campaign(const Config& config, bool protected_cells);

/// Host seconds and simulated cycles of non-lockstep engine runs, per
/// model, for the sim.cycles.* / sim.cycles_per_s.* metrics.
struct EngineTally {
  double seconds[3] = {0, 0, 0};
  std::uint64_t cycles[3] = {0, 0, 0};

  void add(int model, std::uint64_t c, double s) {
    cycles[model] += c;
    seconds[model] += s;
  }
  void export_to(Mirror& out) const;
};

}  // namespace ttsc::perf
