#include "sim/collectors.hpp"

#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace ttsc::sim {

namespace {

void grow_add(std::vector<std::uint64_t>& dst, const std::vector<std::uint64_t>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
}

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

}  // namespace

std::uint64_t UtilizationReport::total_triggers() const {
  std::uint64_t n = 0;
  for (const std::uint64_t t : fu_triggers) n += t;
  return n;
}

void UtilizationReport::merge(const UtilizationReport& other) {
  cycles += other.cycles;
  moves += other.moves;
  guard_squashes += other.guard_squashes;
  rf_reads += other.rf_reads;
  rf_writes += other.rf_writes;
  stall_cycles += other.stall_cycles;
  grow_add(fu_triggers, other.fu_triggers);
  grow_add(bus_busy, other.bus_busy);
  for (std::size_t i = 0; i < op_histogram.size(); ++i) op_histogram[i] += other.op_histogram[i];
}

void UtilizationReport::export_to(obs::Registry& registry, const std::string& prefix) const {
  registry.add(prefix + "cycles", cycles);
  registry.add(prefix + "moves", moves);
  registry.add(prefix + "guard_squashes", guard_squashes);
  registry.add(prefix + "rf_reads", rf_reads);
  registry.add(prefix + "rf_writes", rf_writes);
  registry.add(prefix + "stall_cycles", stall_cycles);
  registry.add(prefix + "triggers", total_triggers());
}

std::string UtilizationReport::render(const mach::Machine* machine) const {
  std::string out;
  const double cyc = cycles > 0 ? static_cast<double>(cycles) : 1.0;
  out += format("cycles %llu, triggers %llu, rf reads %llu, rf writes %llu\n",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(total_triggers()),
                static_cast<unsigned long long>(rf_reads),
                static_cast<unsigned long long>(rf_writes));
  if (moves > 0 || guard_squashes > 0) {
    out += format("moves %llu executed, %llu squashed\n",
                  static_cast<unsigned long long>(moves),
                  static_cast<unsigned long long>(guard_squashes));
  }
  if (stall_cycles > 0) {
    out += format("stall cycles %llu (%.1f%%)\n", static_cast<unsigned long long>(stall_cycles),
                  100.0 * static_cast<double>(stall_cycles) / cyc);
  }
  for (std::size_t f = 0; f < fu_triggers.size(); ++f) {
    const char* name = machine != nullptr && f < machine->fus.size()
                           ? machine->fus[f].name.c_str()
                           : nullptr;
    std::string label = name != nullptr ? name : format("fu%zu", f);
    out += format("  fu %-8s %10llu triggers  %5.1f%% busy\n", label.c_str(),
                  static_cast<unsigned long long>(fu_triggers[f]),
                  100.0 * static_cast<double>(fu_triggers[f]) / cyc);
  }
  for (std::size_t b = 0; b < bus_busy.size(); ++b) {
    const char* name = machine != nullptr && b < machine->buses.size()
                           ? machine->buses[b].name.c_str()
                           : nullptr;
    std::string label = name != nullptr ? name : format("bus%zu", b);
    out += format("  bus %-7s %10llu moves     %5.1f%% occupied\n", label.c_str(),
                  static_cast<unsigned long long>(bus_busy[b]),
                  100.0 * static_cast<double>(bus_busy[b]) / cyc);
  }
  // Dynamic opcode mix, most frequent first.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < op_histogram.size(); ++i) {
    if (op_histogram[i] > 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return op_histogram[a] > op_histogram[b]; });
  for (const std::size_t i : order) {
    out += format("  op %-8s %10llu\n",
                  std::string(ir::opcode_name(static_cast<ir::Opcode>(i))).c_str(),
                  static_cast<unsigned long long>(op_histogram[i]));
  }
  return out;
}

UtilizationCollector::UtilizationCollector(const mach::Machine& machine) {
  report_.fu_triggers.assign(machine.fus.size(), 0);
  report_.bus_busy.assign(machine.buses.size(), 0);
}

void UtilizationCollector::on_move(std::uint64_t, int bus) {
  ++report_.moves;
  if (bus >= 0 && static_cast<std::size_t>(bus) < report_.bus_busy.size()) {
    ++report_.bus_busy[static_cast<std::size_t>(bus)];
  }
}

void UtilizationCollector::on_guard_squash(std::uint64_t, int bus) {
  ++report_.guard_squashes;
  // A squashed move still occupied its transport slot.
  if (bus >= 0 && static_cast<std::size_t>(bus) < report_.bus_busy.size()) {
    ++report_.bus_busy[static_cast<std::size_t>(bus)];
  }
}

void UtilizationCollector::on_trigger(std::uint64_t, int fu, ir::Opcode op) {
  if (fu >= 0) {
    if (static_cast<std::size_t>(fu) >= report_.fu_triggers.size()) {
      report_.fu_triggers.resize(static_cast<std::size_t>(fu) + 1, 0);
    }
    ++report_.fu_triggers[static_cast<std::size_t>(fu)];
  } else {
    // Scalar model: single implicit execution unit.
    if (report_.fu_triggers.empty()) report_.fu_triggers.resize(1, 0);
    ++report_.fu_triggers[0];
  }
  ++report_.op_histogram[static_cast<std::size_t>(op)];
}

void UtilizationCollector::on_rf_read(std::uint64_t, int, int) { ++report_.rf_reads; }

void UtilizationCollector::on_rf_write(std::uint64_t, int, int, std::uint32_t) {
  ++report_.rf_writes;
}

void UtilizationCollector::on_stall(std::uint64_t, std::uint64_t stall_cycles) {
  report_.stall_cycles += stall_cycles;
}

void TraceObserver::line(std::uint64_t cycle, const std::string& body) {
  ++events_;
  if (events_ > max_events_) return;
  text_ += format("[%8llu] ", static_cast<unsigned long long>(cycle));
  text_ += body;
  text_ += '\n';
}

void TraceObserver::on_move(std::uint64_t cycle, int bus) {
  line(cycle, format("move        bus %d", bus));
}

void TraceObserver::on_guard_squash(std::uint64_t cycle, int bus) {
  line(cycle, format("squash      bus %d", bus));
}

void TraceObserver::on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) {
  line(cycle, format("trigger     fu %d %s", fu, std::string(ir::opcode_name(op)).c_str()));
}

void TraceObserver::on_rf_read(std::uint64_t cycle, int rf, int index) {
  line(cycle, format("rf read     rf%d[%d]", rf, index));
}

void TraceObserver::on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) {
  line(cycle, format("rf write    rf%d[%d] = %u", rf, index, value));
}

void TraceObserver::on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) {
  line(cycle, format("stall       %llu cycles", static_cast<unsigned long long>(stall_cycles)));
}

std::string TraceObserver::text() const {
  if (!truncated()) return text_;
  return text_ + format("... %zu further events suppressed\n", events_ - max_events_);
}

void TeeObserver::on_move(std::uint64_t cycle, int bus) {
  if (a_ != nullptr) a_->on_move(cycle, bus);
  if (b_ != nullptr) b_->on_move(cycle, bus);
}

void TeeObserver::on_guard_squash(std::uint64_t cycle, int bus) {
  if (a_ != nullptr) a_->on_guard_squash(cycle, bus);
  if (b_ != nullptr) b_->on_guard_squash(cycle, bus);
}

void TeeObserver::on_trigger(std::uint64_t cycle, int fu, ir::Opcode op) {
  if (a_ != nullptr) a_->on_trigger(cycle, fu, op);
  if (b_ != nullptr) b_->on_trigger(cycle, fu, op);
}

void TeeObserver::on_rf_read(std::uint64_t cycle, int rf, int index) {
  if (a_ != nullptr) a_->on_rf_read(cycle, rf, index);
  if (b_ != nullptr) b_->on_rf_read(cycle, rf, index);
}

void TeeObserver::on_rf_write(std::uint64_t cycle, int rf, int index, std::uint32_t value) {
  if (a_ != nullptr) a_->on_rf_write(cycle, rf, index, value);
  if (b_ != nullptr) b_->on_rf_write(cycle, rf, index, value);
}

void TeeObserver::on_stall(std::uint64_t cycle, std::uint64_t stall_cycles) {
  if (a_ != nullptr) a_->on_stall(cycle, stall_cycles);
  if (b_ != nullptr) b_->on_stall(cycle, stall_cycles);
}

void TeeObserver::on_block_enter(std::uint64_t cycle, std::uint32_t block) {
  if (a_ != nullptr) a_->on_block_enter(cycle, block);
  if (b_ != nullptr) b_->on_block_enter(cycle, block);
}

void TeeObserver::on_exec(std::uint64_t cycle, std::uint32_t pc, bool shadow) {
  if (a_ != nullptr) a_->on_exec(cycle, pc, shadow);
  if (b_ != nullptr) b_->on_exec(cycle, pc, shadow);
}

void TeeObserver::on_overhead(std::uint64_t cycle, OverheadKind kind, std::uint64_t cycles) {
  if (a_ != nullptr) a_->on_overhead(cycle, kind, cycles);
  if (b_ != nullptr) b_->on_overhead(cycle, kind, cycles);
}

void TeeObserver::on_guard_write(std::uint64_t cycle, int guard, std::uint32_t value) {
  if (a_ != nullptr) a_->on_guard_write(cycle, guard, value);
  if (b_ != nullptr) b_->on_guard_write(cycle, guard, value);
}

void TeeObserver::on_store(std::uint64_t cycle, std::uint32_t addr, std::uint32_t value,
                           std::uint8_t width) {
  if (a_ != nullptr) a_->on_store(cycle, addr, value, width);
  if (b_ != nullptr) b_->on_store(cycle, addr, value, width);
}

void TraceObserver::on_block_enter(std::uint64_t cycle, std::uint32_t block) {
  line(cycle, format("block enter b%u", block));
}

void ProfileCollector::on_block_enter(std::uint64_t, std::uint32_t block) {
  if (block_counts_.size() <= block) block_counts_.resize(block + 1, 0);
  ++block_counts_[block];
  if (have_last_) ++edge_counts_[{last_block_, block}];
  have_last_ = true;
  last_block_ = block;
}

void FetchTable::on_exec(std::uint64_t cycle, std::uint32_t pc, bool) {
  if (first_.size() <= pc) first_.resize(pc + 1, kNever);
  if (first_[pc] == kNever) first_[pc] = cycle;
}

}  // namespace ttsc::sim
