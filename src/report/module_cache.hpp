// Thread-safe memoization of optimized modules across an experiment sweep.
//
// Each workload's frontend + optimizer run happens exactly once no matter
// how many threads or machines request it (builds() counts the real
// builds). Everything downstream of the optimizer is machine-specific and
// is built per cell (see report::compile_backend).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ir/module.hpp"
#include "report/driver.hpp"
#include "workloads/workload.hpp"

namespace ttsc::obs {
class Registry;
}

namespace ttsc::report {

class ModuleCache {
 public:
  /// The optimized module for `workload`, building it on first use. The
  /// returned reference stays valid for the cache's lifetime. When given,
  /// `build_times` receives the frontend/opt wall time of the (possibly
  /// earlier, cached) build, and `metrics` receives the optimizer's "opt.*"
  /// counters — exactly once per workload regardless of thread count or how
  /// many cells request the module, so merged registries stay deterministic.
  const ir::Module& get(const workloads::Workload& workload,
                        support::StageSeconds* build_times = nullptr,
                        obs::Registry* metrics = nullptr);

  /// Number of modules built so far (the `--stats` "modules_built").
  std::size_t builds() const { return builds_; }

 private:
  // Hand-rolled once-per-entry instead of std::call_once: libstdc++'s
  // call_once can leave waiters hung when the callable throws (PR 66146),
  // and a failed build must be retryable by the next caller anyway.
  struct Entry {
    std::mutex build_mutex;
    bool built = false;
    ir::Module module;
    support::StageSeconds build_times;
  };

  std::mutex mutex_;                                       // guards the map only
  std::map<std::string, std::unique_ptr<Entry>> entries_;  // keyed by workload name
  std::atomic<std::size_t> builds_{0};
};

}  // namespace ttsc::report
