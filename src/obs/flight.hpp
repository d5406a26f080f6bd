// Cycle-accurate flight recorder: a bounded, allocation-free ring buffer of
// per-cycle architectural events fed by the sim::ExecObserver protocol.
//
// The recorder captures the full event stream of a run — pc (on_exec),
// per-bus moves and squashes, FU triggers, RF reads/writes, guard latches,
// memory stores, scalar stalls/overheads and block entries — into a
// fixed-capacity ring preallocated at construction. The run loops therefore
// never allocate on its behalf: append is a store into the ring, and when
// the ring is full the recorder evicts *whole oldest cycles* from the tail
// so the retained window always starts at a cycle boundary (a black-box
// flight recorder keeps the most recent N cycles, not an arbitrary event
// suffix). Because the event stream is identical on the fast and reference
// paths of all three engines (the observer protocol's differential
// contract), a recording — and everything rendered from it: the VCD
// waveform export (report/vcd.hpp) and the "ttsc-flight-dump" v1 JSON — is
// a pure function of (program, machine, inputs) and byte-identical across
// paths, engines aside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mach/machine.hpp"
#include "sim/observer.hpp"

namespace ttsc::obs {

class Registry;

/// Discriminator for one recorded event. Values are part of the
/// "ttsc-flight-dump" v1 schema (rendered by name, not by number).
enum class FlightEventKind : std::uint8_t {
  Exec,        // instruction/bundle at `index` (pc) executed; aux = shadow
  BlockEnter,  // architectural entry into block `index`
  Move,        // executed TTA transport on bus `unit`
  GuardSquash, // squashed TTA transport on bus `unit`
  Trigger,     // operation fired on FU `unit` (-1 = scalar); value = opcode
  RfRead,      // RF `unit`, register `index` read
  RfWrite,     // RF `unit`, register `index` := value (commit cycle)
  GuardWrite,  // guard `unit` latched `value` (commit cycle)
  Store,       // memory[value-width bytes at addr `index`] := value; aux = width
  Stall,       // scalar hazard stall of `value` cycles
  Overhead,    // scalar timing-model overhead; aux = OverheadKind, value = cycles
};

constexpr const char* flight_event_kind_name(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::Exec: return "exec";
    case FlightEventKind::BlockEnter: return "block";
    case FlightEventKind::Move: return "move";
    case FlightEventKind::GuardSquash: return "squash";
    case FlightEventKind::Trigger: return "trigger";
    case FlightEventKind::RfRead: return "rf_read";
    case FlightEventKind::RfWrite: return "rf_write";
    case FlightEventKind::GuardWrite: return "guard_write";
    case FlightEventKind::Store: return "store";
    case FlightEventKind::Stall: return "stall";
    case FlightEventKind::Overhead: return "overhead";
  }
  return "?";
}

/// One recorded event: 24 bytes of POD. Field meaning depends on `kind`
/// (see FlightEventKind); unused fields are zero so recordings compare
/// bytewise.
struct FlightEvent {
  std::uint64_t cycle = 0;
  std::uint32_t value = 0;
  std::int32_t index = 0;
  std::int16_t unit = 0;
  FlightEventKind kind = FlightEventKind::Exec;
  std::uint8_t aux = 0;

  bool operator==(const FlightEvent&) const = default;
};

/// Bounded ring-buffer flight recorder. Attach as (or tee into) the
/// SimOptions::observer of any engine on either path. Events arrive in
/// nondecreasing cycle order on every engine (the scalar loop reports some
/// events at the issue cycle, which never precedes the cycle of an earlier
/// event), so the retained window is a contiguous, in-order suffix of the
/// run's event stream.
class FlightRecorder final : public sim::ExecObserver {
 public:
  /// Default ring capacity in events (~1.5 MB). At typical event rates of
  /// 3-10 events/cycle this retains the last several thousand cycles.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit FlightRecorder(const mach::Machine& machine,
                          std::size_t capacity = kDefaultCapacity);

  void on_move(std::uint64_t cycle, int bus) override;
  void on_guard_squash(std::uint64_t cycle, int bus) override;
  void on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) override;
  void on_rf_read(std::uint64_t cycle, int rf, int index) override;
  void on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) override;
  void on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) override;
  void on_block_enter(std::uint64_t cycle, std::uint32_t block) override;
  void on_exec(std::uint64_t cycle, std::uint32_t pc, bool shadow) override;
  void on_overhead(std::uint64_t cycle, sim::OverheadKind kind, std::uint64_t cycles) override;
  void on_guard_write(std::uint64_t cycle, int guard, std::uint32_t value) override;
  void on_store(std::uint64_t cycle, std::uint32_t addr, std::uint32_t value,
                std::uint8_t width) override;

  const mach::Machine& machine() const { return *machine_; }

  /// Retained events, oldest first. `at(0)` is the start of the window.
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return storage_.size(); }
  const FlightEvent& at(std::size_t i) const { return storage_[(head_ + i) % storage_.size()]; }

  /// Lifetime totals (retained + evicted).
  std::uint64_t total_events() const { return total_events_; }
  std::uint64_t dropped_events() const { return dropped_events_; }
  std::uint64_t dropped_cycles() const { return dropped_cycles_; }

  /// Cycle bounds of the retained window (0/0 when empty).
  std::uint64_t first_cycle() const { return count_ == 0 ? 0 : at(0).cycle; }
  std::uint64_t last_cycle() const { return count_ == 0 ? 0 : at(count_ - 1).cycle; }

  /// Reset to empty (capacity and machine binding retained).
  void clear();

  /// Export flight.* counters (events/dropped/window size) into `registry`.
  void export_to(Registry& registry) const;

 private:
  void push(const FlightEvent& ev);
  void evict_oldest_cycle();

  const mach::Machine* machine_;
  std::vector<FlightEvent> storage_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t dropped_cycles_ = 0;
};

/// Run metadata accompanying a forensic dump (the recorder only sees
/// events; the driver knows how the run ended).
struct FlightDumpInfo {
  std::string machine;
  std::string workload;
  std::string engine;       // "scalar" | "vliw" | "tta"
  std::string status;       // sim::exec_status_name
  std::string trap_reason;  // empty unless status == "trap"
  std::uint64_t trap_cycle = 0;
  std::uint64_t cycles = 0;
  std::uint64_t ret = 0;
};

/// Render the retained window as a "ttsc-flight-dump" v1 JSON document
/// (deterministic: a pure function of the recording and `info`).
std::string render_flight_dump(const FlightRecorder& recorder, const FlightDumpInfo& info);

}  // namespace ttsc::obs
