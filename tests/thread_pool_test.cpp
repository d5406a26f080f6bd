// support::ThreadPool: the concurrency substrate of the parallel
// experiment engine. Covers FIFO task ordering, exception propagation from
// workers to the caller, the nested-submit deadlock guard, parallel_for
// coverage/determinism, the inline loop parallel_for runs without a pool,
// and its caller-side callback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace ttsc::support {
namespace {

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WorkerThreadIdentity) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_TRUE(pool.submit([&pool] { return pool.on_worker_thread(); }).get());
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  // A saturated 1-thread pool whose task submits more work and waits on it
  // would classically deadlock; the guard runs nested submissions inline.
  ThreadPool pool(1);
  std::future<int> outer = pool.submit([&pool] {
    std::future<int> inner = pool.submit([&pool] {
      return pool.submit([] { return 7; }).get() + 1;  // two levels deep
    });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 9);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  parallel_for(&pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure) {
  ThreadPool pool(4);
  // Indices 3 and 11 fail; the rethrown exception must be index 3's,
  // regardless of which worker hit which index first — and every other
  // index must still have run.
  std::vector<std::atomic<int>> hits(16);
  try {
    parallel_for(&pool, 16, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 3 || i == 11) throw std::runtime_error("cell " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForFromWorkerThreadCompletes) {
  // parallel_for nested inside a pool task drains inline (deadlock guard).
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.submit([&] { parallel_for(&pool, 32, [&](std::size_t) { count.fetch_add(1); }); })
      .get();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ParallelForWithoutPoolRunsInlineInIndexOrder) {
  // The serial drivers' loop: every index on the calling thread, in order;
  // the first failure propagates at once, so later indices never run.
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(nullptr, 8, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));

  order.clear();
  try {
    parallel_for(nullptr, 16, [&](std::size_t i) {
      order.push_back(i);
      if (i == 3 || i == 11) throw std::runtime_error("cell " + std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ParallelForCallbackRunsOnTheCallerWhileThePoolDrains) {
  // Index 0 holds the only worker until the callback raises the flag, so it
  // sees the flag only when the callback runs before parallel_for waits.
  // The wait is bounded: a callback that runs after the drain fails the
  // case instead of hanging it.
  ThreadPool pool(1);
  std::atomic<bool> flag{false};
  bool seen = false;
  std::thread::id callback_thread;
  parallel_for(
      &pool, 1,
      [&](std::size_t) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        seen = flag.load();
      },
      [&] {
        callback_thread = std::this_thread::get_id();
        flag.store(true);
      });
  EXPECT_TRUE(seen);
  EXPECT_EQ(callback_thread, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForWithoutPoolRunsCallbackOnceAfterTheLastIndex) {
  std::vector<std::size_t> order;
  int calls = 0;
  parallel_for(nullptr, 5, [&](std::size_t i) { order.push_back(i); },
               [&] {
                 ++calls;
                 order.push_back(5);
               });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

  // An empty range still runs the callback, with or without a pool.
  ThreadPool pool(2);
  calls = 0;
  parallel_for(nullptr, 0, [](std::size_t) { FAIL() << "must not be called"; }, [&] { ++calls; });
  parallel_for(&pool, 0, [](std::size_t) { FAIL() << "must not be called"; }, [&] { ++calls; });
  EXPECT_EQ(calls, 2);
}

TEST(ThreadPool, ParallelForCallbackThrowRanksAfterEveryIndex) {
  // The callback throws at once, while the indices still run: its exception
  // leaves parallel_for only after every index has run.
  ThreadPool pool(4);
  constexpr std::size_t kN = 32;
  std::vector<std::atomic<int>> hits(kN);
  const auto slow = [&](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    hits[i].fetch_add(1);
  };
  try {
    parallel_for(&pool, kN, slow, [] { throw std::runtime_error("callback"); });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "callback");
  }
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // A failing index still wins over the callback, and the lowest one does.
  for (auto& h : hits) h.store(0);
  try {
    parallel_for(
        &pool, kN,
        [&](std::size_t i) {
          slow(i);
          if (i == 3 || i == 11) throw std::runtime_error("cell " + std::to_string(i));
        },
        [] { throw std::runtime_error("callback"); });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  ThreadPool negative(-3);
  EXPECT_GE(negative.size(), 1);
}

}  // namespace
}  // namespace ttsc::support
