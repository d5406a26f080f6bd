#include "obs/flight.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"

namespace ttsc::obs {

FlightRecorder::FlightRecorder(const mach::Machine& machine, std::size_t capacity)
    : machine_(&machine) {
  TTSC_ASSERT(capacity > 0, "flight recorder capacity must be positive");
  storage_.resize(capacity);
}

void FlightRecorder::clear() {
  head_ = 0;
  count_ = 0;
  total_events_ = 0;
  dropped_events_ = 0;
  dropped_cycles_ = 0;
}

void FlightRecorder::evict_oldest_cycle() {
  // Drop the whole oldest cycle so the window still starts at a cycle
  // boundary. The pathological case — a single cycle producing more events
  // than the whole ring — degenerates to partially dropping the current
  // cycle, which the dropped_events counter makes visible.
  const std::uint64_t oldest = storage_[head_].cycle;
  while (count_ > 0 && storage_[head_].cycle == oldest) {
    head_ = (head_ + 1) % storage_.size();
    --count_;
    ++dropped_events_;
  }
  ++dropped_cycles_;
}

void FlightRecorder::push(const FlightEvent& ev) {
  ++total_events_;
  if (count_ == storage_.size()) evict_oldest_cycle();
  storage_[(head_ + count_) % storage_.size()] = ev;
  ++count_;
}

void FlightRecorder::on_move(std::uint64_t cycle, int bus) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::Move;
  ev.unit = static_cast<std::int16_t>(bus);
  push(ev);
}

void FlightRecorder::on_guard_squash(std::uint64_t cycle, int bus) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::GuardSquash;
  ev.unit = static_cast<std::int16_t>(bus);
  push(ev);
}

void FlightRecorder::on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::Trigger;
  ev.unit = static_cast<std::int16_t>(fu);
  ev.value = static_cast<std::uint32_t>(op);
  push(ev);
}

void FlightRecorder::on_rf_read(std::uint64_t cycle, int rf, int index) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::RfRead;
  ev.unit = static_cast<std::int16_t>(rf);
  ev.index = index;
  push(ev);
}

void FlightRecorder::on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::RfWrite;
  ev.unit = static_cast<std::int16_t>(rf);
  ev.index = index;
  ev.value = value;
  push(ev);
}

void FlightRecorder::on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::Stall;
  ev.value = static_cast<std::uint32_t>(stall_cycles);
  push(ev);
}

void FlightRecorder::on_block_enter(std::uint64_t cycle, std::uint32_t block) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::BlockEnter;
  ev.index = static_cast<std::int32_t>(block);
  push(ev);
}

void FlightRecorder::on_exec(std::uint64_t cycle, std::uint32_t pc, bool shadow) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::Exec;
  ev.index = static_cast<std::int32_t>(pc);
  ev.aux = shadow ? 1 : 0;
  push(ev);
}

void FlightRecorder::on_overhead(std::uint64_t cycle, sim::OverheadKind kind,
                                 std::uint64_t cycles) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::Overhead;
  ev.aux = static_cast<std::uint8_t>(kind);
  ev.value = static_cast<std::uint32_t>(cycles);
  push(ev);
}

void FlightRecorder::on_guard_write(std::uint64_t cycle, int guard, std::uint32_t value) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::GuardWrite;
  ev.unit = static_cast<std::int16_t>(guard);
  ev.value = value;
  push(ev);
}

void FlightRecorder::on_store(std::uint64_t cycle, std::uint32_t addr, std::uint32_t value,
                              std::uint8_t width) {
  FlightEvent ev;
  ev.cycle = cycle;
  ev.kind = FlightEventKind::Store;
  ev.index = static_cast<std::int32_t>(addr);
  ev.value = value;
  ev.aux = width;
  push(ev);
}

void FlightRecorder::export_to(Registry& registry) const {
  registry.add("flight.events", total_events_);
  registry.add("flight.retained_events", count_);
  registry.add("flight.dropped_events", dropped_events_);
  registry.add("flight.dropped_cycles", dropped_cycles_);
  if (count_ > 0) registry.add("flight.window_cycles", last_cycle() - first_cycle() + 1);
}

std::string render_flight_dump(const FlightRecorder& recorder, const FlightDumpInfo& info) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ttsc-flight-dump");
  w.key("version");
  w.value(std::uint64_t{1});
  w.key("machine");
  w.value(info.machine);
  w.key("workload");
  w.value(info.workload);
  w.key("engine");
  w.value(info.engine);
  w.key("status");
  w.value(info.status);
  if (!info.trap_reason.empty()) {
    w.key("trap_reason");
    w.value(info.trap_reason);
    w.key("trap_cycle");
    w.value(info.trap_cycle);
  }
  w.key("cycles");
  w.value(info.cycles);
  w.key("ret");
  w.value(info.ret);
  w.key("window");
  w.begin_object();
  w.key("first_cycle");
  w.value(recorder.first_cycle());
  w.key("last_cycle");
  w.value(recorder.last_cycle());
  w.key("events");
  w.value(static_cast<std::uint64_t>(recorder.size()));
  w.key("total_events");
  w.value(recorder.total_events());
  w.key("dropped_events");
  w.value(recorder.dropped_events());
  w.key("dropped_cycles");
  w.value(recorder.dropped_cycles());
  w.end_object();
  w.key("events");
  w.begin_array();
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& ev = recorder.at(i);
    w.begin_object();
    w.key("c");
    w.value(ev.cycle);
    w.key("k");
    w.value(flight_event_kind_name(ev.kind));
    switch (ev.kind) {
      case FlightEventKind::Exec:
        w.key("pc");
        w.value(static_cast<std::int64_t>(ev.index));
        if (ev.aux != 0) {
          w.key("shadow");
          w.value(true);
        }
        break;
      case FlightEventKind::BlockEnter:
        w.key("block");
        w.value(static_cast<std::int64_t>(ev.index));
        break;
      case FlightEventKind::Move:
      case FlightEventKind::GuardSquash:
        w.key("bus");
        w.value(static_cast<std::int64_t>(ev.unit));
        break;
      case FlightEventKind::Trigger:
        w.key("fu");
        w.value(static_cast<std::int64_t>(ev.unit));
        w.key("op");
        w.value(ir::opcode_name(static_cast<ir::Opcode>(ev.value)));
        break;
      case FlightEventKind::RfRead:
        w.key("rf");
        w.value(static_cast<std::int64_t>(ev.unit));
        w.key("reg");
        w.value(static_cast<std::int64_t>(ev.index));
        break;
      case FlightEventKind::RfWrite:
        w.key("rf");
        w.value(static_cast<std::int64_t>(ev.unit));
        w.key("reg");
        w.value(static_cast<std::int64_t>(ev.index));
        w.key("value");
        w.value(static_cast<std::uint64_t>(ev.value));
        break;
      case FlightEventKind::GuardWrite:
        w.key("guard");
        w.value(static_cast<std::int64_t>(ev.unit));
        w.key("value");
        w.value(static_cast<std::uint64_t>(ev.value));
        break;
      case FlightEventKind::Store:
        w.key("addr");
        w.value(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.index)));
        w.key("value");
        w.value(static_cast<std::uint64_t>(ev.value));
        w.key("width");
        w.value(static_cast<std::int64_t>(ev.aux));
        break;
      case FlightEventKind::Stall:
        w.key("cycles");
        w.value(static_cast<std::uint64_t>(ev.value));
        break;
      case FlightEventKind::Overhead:
        w.key("kind");
        w.value(static_cast<std::int64_t>(ev.aux));
        w.key("cycles");
        w.value(static_cast<std::uint64_t>(ev.value));
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

}  // namespace ttsc::obs
