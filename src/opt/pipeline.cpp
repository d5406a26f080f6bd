#include "ir/verify.hpp"
#include "obs/metrics.hpp"
#include "opt/passes.hpp"

namespace ttsc::opt {

void optimize(ir::Module& module, const std::string& root, const PipelineOptions& options,
              obs::Registry* metrics) {
  inline_all(module, root);
  ir::Function& func = module.function(root);
  obs::add(metrics, "opt.instrs_in", func.num_instrs());

  // Per-pass IR deltas, accumulated locally and merged once at pipeline end
  // (the hot-path shard contract of obs::Registry).
  obs::Registry local;
  obs::Registry* const shard = metrics != nullptr ? &local : nullptr;
  auto run_pass = [&](const char* name, auto&& pass) {
    const std::uint64_t before = func.num_instrs();
    const bool changed = pass();
    if (shard != nullptr) {
      const std::uint64_t after = func.num_instrs();
      const std::string prefix = std::string("opt.") + name;
      shard->add(prefix + ".calls");
      if (changed) shard->add(prefix + ".changed");
      if (after < before) shard->add(prefix + ".instrs_removed", before - after);
      if (after > before) shard->add(prefix + ".instrs_added", after - before);
    }
    return changed;
  };

  auto local_cleanup = [&] {
    bool any = false;
    for (int i = 0; i < options.max_iterations; ++i) {
      bool changed = false;
      changed |= run_pass("fold", [&] { return fold_constants(func); });
      changed |= run_pass("copyprop", [&] { return propagate_copies(func); });
      changed |= run_pass("cse", [&] { return eliminate_common_subexpressions(func); });
      changed |= run_pass("dce", [&] { return eliminate_dead_code(func); });
      changed |= run_pass("simplify_cfg", [&] { return simplify_cfg(func); });
      obs::add(shard, "opt.iterations");
      any |= changed;
      if (!changed) break;
    }
    return any;
  };

  local_cleanup();
  if (options.enable_licm) {
    for (int i = 0; i < 4; ++i) {
      const bool hoisted = run_pass("licm", [&] { return hoist_loop_invariants(func); });
      const bool cleaned = local_cleanup();
      if (!hoisted && !cleaned) break;
    }
  }
  ir::verify(func);
  if (metrics != nullptr) {
    local.add("opt.instrs_out", func.num_instrs());
    metrics->merge(local);
  }
}

}  // namespace ttsc::opt
