// A run's state at a cycle boundary, for all three machine models.
//
// A Snapshot holds everything a model's fast loop carries from one cycle
// boundary to the next — register files, the scalar scoreboard, TTA ports
// and guards, writes and results still in flight, the pc, a pending control
// transfer and the fault cursor — taken at the top of the loop, before that
// cycle's state faults apply. The memory image rides along as pages: the
// image the run started from, shared by every snapshot of the run, and the
// pages where the image at the snapshot differs from it.
//
// sim::Engine takes snapshots (run with a stop cycle) and continues from
// them (resume). A resumed run equals the uninterrupted run from the
// snapshot on — result, memory and observer events — which
// tests/snapshot_test.cpp holds on a generated corpus for all three models.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "ir/memory.hpp"
#include "sim/observer.hpp"

namespace ttsc::sim {

/// The stop cycle of a run that runs to its end.
inline constexpr std::uint64_t kNoStop = UINT64_MAX;

struct Snapshot {
  /// A write or result in flight: it lands `due` cycles after `cycle`
  /// (0: at the top of `cycle` itself). Entries keep the order the loop
  /// queued them in.
  struct InFlight {
    std::uint32_t due = 0;
    std::uint32_t slot = 0;  // flat RF slot, FU index or guard index
    std::uint32_t value = 0;
    std::int16_t rf = -1, reg = -1;  // an RF write's observer coordinates
  };

  /// The loop top the state belongs to: the cycle for VLIW and TTA, the
  /// next instruction's earliest issue cycle for scalar.
  std::uint64_t cycle = 0;
  std::uint32_t pc = 0;
  /// VLIW/TTA: cycles until a pending control transfer redirects to
  /// `transfer_target`, -1 when none is pending.
  std::int32_t transfer_in = -1;
  std::uint32_t transfer_target = 0;
  /// Faults of SimOptions::faults already applied.
  std::uint32_t faults_applied = 0;
  /// The last architecturally executed pc (profile counting).
  std::uint32_t last_arch = 0;

  std::vector<std::uint32_t> regs;        // flat RF slots
  std::vector<std::uint64_t> ready;       // scalar: cycle each slot becomes readable
  std::vector<std::uint32_t> fu_operand;  // TTA operand ports
  std::vector<std::uint32_t> fu_result;   // TTA result registers
  std::vector<std::uint8_t> guards;       // TTA guard registers
  std::vector<InFlight> rf_writes;        // VLIW write-back ring, TTA pending RF writes
  std::vector<InFlight> fu_results;       // TTA results in flight
  std::vector<InFlight> guard_writes;     // TTA pending guard latches

  /// The image the run started from, and the pages where the image at
  /// `cycle` differs from it. Empty on a snapshot a simulator class hands
  /// back directly: sim::Engine fills both.
  std::shared_ptr<const ir::PageSet> initial;
  ir::PageSet pages;

  /// Bytes held beyond the shared initial image.
  std::size_t bytes() const {
    return sizeof(Snapshot) + regs.size() * 4 + ready.size() * 8 + fu_operand.size() * 4 +
           fu_result.size() * 4 + guards.size() +
           (rf_writes.size() + fu_results.size() + guard_writes.size()) * sizeof(InFlight) +
           pages.byte_size();
  }
};

/// How a run with a stop cycle ended: it reached the stop (its Snapshot) or
/// ended before it (its ExecResult).
using Segment = std::variant<Snapshot, ExecResult>;

}  // namespace ttsc::sim
