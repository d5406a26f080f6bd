#include "support/thread_pool.hpp"

#include <atomic>

#include "support/assert.hpp"

namespace ttsc::support {

namespace {
// Identity of the pool (if any) the current thread works for; the
// nested-submit deadlock guard keys off this.
thread_local const ThreadPool* tls_owner = nullptr;
// Index of the current thread within its owning pool (-1 off-pool); see
// ThreadPool::current_worker_id().
thread_local int tls_worker_id = -1;
}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads <= 0) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tls_owner == this; }

int ThreadPool::current_worker_id() { return tls_worker_id; }

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TTSC_ASSERT(!stopping_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop(int index) {
  tls_owner = this;
  tls_worker_id = index;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: submitted work always runs, so
      // futures obtained before the destructor never dangle unfulfilled.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task: exceptions land in the future
  }
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  const std::function<void()>& on_caller) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    if (on_caller) on_caller();
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t tasks =
      std::min<std::size_t>(n, static_cast<std::size_t>(pool->size()));
  std::vector<std::future<void>> pending;
  pending.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) pending.push_back(pool->submit(drain));
  std::exception_ptr caller_error;
  if (on_caller) {
    try {
      on_caller();
    } catch (...) {
      caller_error = std::current_exception();
    }
  }
  for (std::future<void>& f : pending) f.get();  // drain never throws
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

}  // namespace ttsc::support
