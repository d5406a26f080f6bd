// Fixed-size thread pool for the experiment engine.
//
// Deliberately minimal: a FIFO queue, N worker threads, futures for result
// and exception transport, and no work stealing — experiment grids are
// drained through an atomic index (parallel_for) so there is nothing to
// steal. Two properties the engine relies on:
//
//  * Nested-submit deadlock guard: a task submitted from one of the pool's
//    own worker threads executes inline on that worker instead of being
//    queued. A saturated pool whose tasks submit-and-wait therefore cannot
//    deadlock (the wait observes a completed future).
//  * Deterministic error propagation: parallel_for captures one exception
//    per index and, after every index has run, rethrows the lowest-index
//    failure — independent of thread interleaving. Its optional caller-side
//    callback ranks after every index.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ttsc::support {

class ThreadPool {
 public:
  /// `threads <= 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Index of the calling thread within its owning pool, or -1 when the
  /// caller is not a pool worker. Observability uses this to label trace
  /// shards ("worker-3") so a parallel sweep renders as a per-worker flame
  /// view; indices are per-pool (two pools both have a worker 0).
  static int current_worker_id();

  /// Queue `fn` for execution (FIFO). The future carries the result or the
  /// exception `fn` threw. Called from a worker of this pool, `fn` runs
  /// inline immediately (see the deadlock guard above).
  template <typename F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    if (on_worker_thread()) {
      (*task)();
    } else {
      enqueue([task] { (*task)(); });
    }
    return future;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop(int index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// Run fn(0) .. fn(n-1) across the pool's workers, blocking until every
/// index has executed. Indices are claimed through a shared atomic counter,
/// so the set of executed indices (and hence any side effect written to a
/// per-index slot) is deterministic even though the interleaving is not.
/// If one or more invocations throw, the exception of the lowest failing
/// index is rethrown after the whole range has run.
///
/// A null `pool` runs the indices inline on the caller, in index order; the
/// first throw propagates at once, and it is the lowest failing index too.
/// The serial drivers pass null, so they share their parallel loop body.
///
/// `on_caller`, when given, runs once on the calling thread, which would
/// otherwise sit idle: after the drains are queued and before the wait, so
/// it overlaps the pool's work (after index n-1 without a pool). Its throw
/// leaves the call only after every index has run, and only when no index
/// failed: it ranks as index n.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  const std::function<void()>& on_caller = {});

}  // namespace ttsc::support
