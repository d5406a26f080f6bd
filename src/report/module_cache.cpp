#include "report/module_cache.hpp"

#include "report/driver.hpp"

namespace ttsc::report {

const ir::Module& ModuleCache::get(const workloads::Workload& workload,
                                   support::StageSeconds* build_times, obs::Registry* metrics) {
  Entry* entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Entry>& slot = entries_[workload.name];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  // Build under the entry's own mutex, outside the map lock: concurrent
  // requests for *different* workloads build in parallel; requests for the
  // same workload block until the one build completes. A build that threw
  // leaves the entry unbuilt, so the next caller retries (and the error
  // reaches every waiter that raced this build attempt via its own retry).
  std::lock_guard<std::mutex> build_lock(entry->build_mutex);
  if (!entry->built) {
    // `metrics` is threaded through only on the one real build, so "opt.*"
    // counters land in the registry exactly once per workload per sweep.
    entry->module = build_optimized(workload, &entry->build_times, metrics);
    entry->built = true;
    ++builds_;
  }
  if (build_times != nullptr) *build_times = entry->build_times;
  return entry->module;
}

}  // namespace ttsc::report
