// Built-in ExecObserver implementations.
//
//  * UtilizationCollector — per-FU trigger counts, per-bus transport
//    occupancy, dynamic opcode histogram and RF traffic, aggregated into a
//    UtilizationReport (mergeable across runs, renderable as a table).
//  * TraceObserver — human-readable cycle-by-cycle event log, capped at a
//    fixed number of events (--trace in the bench harnesses).
//  * TeeObserver — fans events out to two observers.
//  * ProfileCollector — per-block execution counts and block-to-block edge
//    counts from on_block_enter events (the input to opt::ProfileData and
//    profile-guided superblock formation).
//  * FetchTable — the first cycle each instruction/bundle index is fetched
//    (the resilience campaign's imem fetch table).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/opcode.hpp"
#include "mach/machine.hpp"
#include "sim/observer.hpp"

namespace ttsc::obs {
class Registry;
}

namespace ttsc::sim {

/// Aggregated execution profile of one or more simulation runs.
struct UtilizationReport {
  std::uint64_t cycles = 0;  // summed across merged runs
  std::uint64_t moves = 0;   // executed TTA transports
  std::uint64_t guard_squashes = 0;
  std::uint64_t rf_reads = 0;
  std::uint64_t rf_writes = 0;
  std::uint64_t stall_cycles = 0;
  std::vector<std::uint64_t> fu_triggers;  // per FU (index -1 → slot 0 of scalar)
  std::vector<std::uint64_t> bus_busy;     // per bus: executed + squashed moves
  std::array<std::uint64_t, static_cast<std::size_t>(ir::kNumOpcodes)> op_histogram{};

  std::uint64_t total_triggers() const;

  /// Accumulate another report (e.g. the other workloads of a sweep).
  /// Vector fields grow to the larger operand.
  void merge(const UtilizationReport& other);

  /// Render as a table using `machine` for FU/bus names. The machine is
  /// optional context: pass the machine the runs used, or nullptr for the
  /// generic layout (merged heterogeneous runs).
  std::string render(const mach::Machine* machine = nullptr) const;

  /// Export scalar totals into a metrics registry under `prefix` (e.g.
  /// "sim." -> "sim.moves", "sim.triggers", "sim.rf_reads", ...). Counts
  /// are simulation events, hence deterministic; wall time never enters.
  void export_to(obs::Registry& registry, const std::string& prefix) const;
};

/// Observer that accumulates a UtilizationReport over a run. The simulators
/// do not report total cycles through the observer protocol; the driver
/// records ExecResult::cycles via add_cycles() after the run.
class UtilizationCollector final : public ExecObserver {
 public:
  explicit UtilizationCollector(const mach::Machine& machine);

  void on_move(std::uint64_t cycle, int bus) override;
  void on_guard_squash(std::uint64_t cycle, int bus) override;
  void on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) override;
  void on_rf_read(std::uint64_t cycle, int rf, int index) override;
  void on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) override;
  void on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) override;

  void add_cycles(std::uint64_t cycles) { report_.cycles += cycles; }
  const UtilizationReport& report() const { return report_; }

 private:
  UtilizationReport report_;
};

/// Observer that formats the first `max_events` events as one line each.
class TraceObserver final : public ExecObserver {
 public:
  explicit TraceObserver(std::size_t max_events = 200) : max_events_(max_events) {}

  void on_move(std::uint64_t cycle, int bus) override;
  void on_guard_squash(std::uint64_t cycle, int bus) override;
  void on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) override;
  void on_rf_read(std::uint64_t cycle, int rf, int index) override;
  void on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) override;
  void on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) override;
  void on_block_enter(std::uint64_t cycle, std::uint32_t block) override;

  std::size_t events() const { return events_; }
  bool truncated() const { return events_ > max_events_; }
  /// The formatted trace; ends with an ellipsis line when truncated.
  std::string text() const;

 private:
  void line(std::uint64_t cycle, const std::string& body);

  std::size_t max_events_;
  std::size_t events_ = 0;
  std::string text_;
};

/// Fans every event out to two observers (either may be null).
class TeeObserver final : public ExecObserver {
 public:
  TeeObserver(ExecObserver* a, ExecObserver* b) : a_(a), b_(b) {}

  void on_move(std::uint64_t cycle, int bus) override;
  void on_guard_squash(std::uint64_t cycle, int bus) override;
  void on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) override;
  void on_rf_read(std::uint64_t cycle, int rf, int index) override;
  void on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) override;
  void on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) override;
  void on_block_enter(std::uint64_t cycle, std::uint32_t block) override;
  void on_exec(std::uint64_t cycle, std::uint32_t pc, bool shadow) override;
  void on_overhead(std::uint64_t cycle, OverheadKind kind, std::uint64_t cycles) override;
  void on_guard_write(std::uint64_t cycle, int guard, std::uint32_t value) override;
  void on_store(std::uint64_t cycle, std::uint32_t addr, std::uint32_t value,
                std::uint8_t width) override;

 private:
  ExecObserver* a_;
  ExecObserver* b_;
};

/// Observer that accumulates per-block execution frequencies and taken
/// control-flow edge counts from on_block_enter events. The collector is
/// engine-agnostic: block ids are whatever the simulated program's
/// block_entry table indexes (source IR block ids for all three backends),
/// so a profile gathered on one engine can drive recompilation for another.
/// Chains of empty (zero-length) blocks attribute to the last block sharing
/// the entry pc — see ExecObserver::on_block_enter.
class ProfileCollector final : public ExecObserver {
 public:
  void on_block_enter(std::uint64_t cycle, std::uint32_t block) override;

  /// Execution count per block id (indexable up to the largest observed id).
  const std::vector<std::uint64_t>& block_counts() const { return block_counts_; }
  /// Count per observed (from, to) block transition, in block-id order.
  const std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>& edge_counts() const {
    return edge_counts_;
  }

 private:
  std::vector<std::uint64_t> block_counts_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> edge_counts_;
  bool have_last_ = false;
  std::uint32_t last_block_ = 0;
};

/// Observer that records the first cycle each instruction/bundle index is
/// fetched: the first on_exec at that pc. All three fast loops run the
/// protected-imem fetch check (ProtectState::check_imem_fetch) directly
/// before on_exec, at the same pc and cycle, so a fault-free run's table
/// says exactly whether and when a poisoned codeword would first be checked.
class FetchTable final : public ExecObserver {
 public:
  static constexpr std::uint64_t kNever = UINT64_MAX;

  void on_exec(std::uint64_t cycle, std::uint32_t pc, bool shadow) override;

  /// The cycle `pc` was first fetched, or kNever.
  std::uint64_t first_fetch(std::uint32_t pc) const {
    return pc < first_.size() ? first_[pc] : kNever;
  }
  bool fetched(std::uint32_t pc) const { return first_fetch(pc) != kNever; }

 private:
  std::vector<std::uint64_t> first_;  // indexed by pc
};

}  // namespace ttsc::sim
