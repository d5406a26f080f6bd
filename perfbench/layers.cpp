#include "layers.hpp"

#include "bench.hpp"
#include "codegen/legalize.hpp"
#include "codegen/lower.hpp"
#include "ir/verify.hpp"
#include "opt/passes.hpp"
#include "tta/binary.hpp"

namespace ttsc::perf {

ir::Module build_module(const workloads::Workload& w, Spans& spans) {
  ir::Module module;
  {
    auto span = spans.scope("ir.build_s");
    w.build(module);
    ir::verify(module);
  }
  auto span = spans.scope("opt.s");
  opt::optimize(module, workloads::entry_point());
  return module;
}

Compiled compile(const ir::Module& optimized, const mach::Machine& machine, Spans& spans,
                 bool table_stats) {
  Compiled c;
  std::optional<codegen::LowerResult> lowered;
  {
    auto span = spans.scope("codegen.lower_s");
    c.module = optimized;
    ir::Function& entry = c.module.function(workloads::entry_point());
    if (machine.model == mach::Model::Tta && machine.has_guards()) {
      opt::if_convert_selects(entry);
    } else {
      codegen::expand_selects(entry);
    }
    if (machine.model == mach::Model::Scalar) codegen::legalize_scalar_operands(entry);
    lowered.emplace(codegen::lower(c.module, workloads::entry_point(), machine));
    c.spills = lowered->spills_inserted;
  }
  switch (machine.model) {
    case mach::Model::Scalar: {
      auto span = spans.scope("scalar.emit_s");
      c.scalar = scalar::emit_scalar(lowered->func);
      if (table_stats) c.image_bits = c.scalar->image_bits(machine.scalar);
      break;
    }
    case mach::Model::Vliw: {
      auto span = spans.scope("vliw.schedule_s");
      vliw::ScheduleStats stats;
      c.vliw = vliw::schedule_vliw(lowered->func, machine, table_stats ? &stats : nullptr);
      if (table_stats) c.image_bits = vliw::image_bits(*c.vliw, machine);
      break;
    }
    case mach::Model::Tta: {
      auto span = spans.scope("tta.schedule_s");
      tta::TtaScheduleStats stats;
      c.tta = tta::schedule_tta(lowered->func, machine, {}, table_stats ? &stats : nullptr);
      if (table_stats) c.image_bits = tta::encode_program(*c.tta, machine).image_bits();
      break;
    }
  }
  return c;
}

void EngineTally::export_to(Mirror& out) const {
  for (int m = 0; m < 3; ++m) {
    out.counts[std::string("sim.cycles.") + kModelNames[m]] = cycles[m];
    out.values[std::string("sim.cycles_per_s.") + kModelNames[m]] =
        seconds[m] > 0 ? static_cast<double>(cycles[m]) / seconds[m] : 0.0;
  }
}

}  // namespace ttsc::perf
