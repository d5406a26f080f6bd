// Observability layer: JSON writer/parser, metrics registry semantics, and
// the span tracer — including the two contracts the layer is built around:
//
//  * determinism: a sweep's merged metrics registry is byte-identical for
//    any thread count (all merge operations commute; each build and each
//    grid cell contributes exactly one shard);
//  * near-zero disabled cost: with the tracer off and a null registry the
//    instrumentation never locks or allocates (a disabled Span records
//    nothing and the null-safe helpers are no-ops).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/parallel_runner.hpp"
#include "support/thread_pool.hpp"

namespace ttsc {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(Json, WriterProducesDeterministicDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("x");
  w.key("count");
  w.value(std::uint64_t{18446744073709551615ull});
  w.key("neg");
  w.value(std::int64_t{-42});
  w.key("ratio");
  w.value(0.5);
  w.key("on");
  w.value(true);
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"x\",\"count\":18446744073709551615,\"neg\":-42,"
            "\"ratio\":0.5,\"on\":true,\"list\":[1,2]}");
}

TEST(Json, ParseRoundTripsWriterOutput) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("big");
  w.value(std::uint64_t{9007199254740993ull});  // not representable as double
  w.key("s");
  w.value("a\"b");
  w.end_object();
  const obs::JsonValue v = obs::parse_json(w.str());
  EXPECT_EQ(v.at("big").as_uint(), 9007199254740993ull);
  EXPECT_EQ(v.at("s").as_string(), "a\"b");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::parse_json("{"), Error);
  EXPECT_THROW(obs::parse_json("[1,]"), Error);
  EXPECT_THROW(obs::parse_json("{} trailing"), Error);
  EXPECT_THROW(obs::parse_json("\"unterminated"), Error);
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, HistogramBucketsByBitWidth) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1024);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 1u);  // value 0
  EXPECT_EQ(h.buckets[1], 1u);  // value 1
  EXPECT_EQ(h.buckets[2], 2u);  // values 2, 3
  EXPECT_EQ(h.buckets[11], 1u);  // 1024 = 2^10
}

TEST(Metrics, MergeIsCommutative) {
  obs::Registry a;
  a.add("c", 3);
  a.gauge_max("g", 7);
  a.observe("h", 100);
  obs::Registry b;
  b.add("c", 4);
  b.add("only_b");
  b.gauge_max("g", 5);
  b.observe("h", 200);

  obs::Registry ab;
  ab.merge(a);
  ab.merge(b);
  obs::Registry ba;
  ba.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.render(), ba.render());
  EXPECT_EQ(ab.counter("c"), 7u);
  EXPECT_EQ(ab.counter("only_b"), 1u);
  EXPECT_EQ(ab.gauge("g"), 7u);
  EXPECT_EQ(ab.histograms().at("h").count, 2u);
}

TEST(Metrics, NullSafeHelpersAreNoOps) {
  obs::add(nullptr, "x");
  obs::observe(nullptr, "x", 1);
  obs::gauge_max(nullptr, "x", 1);
  obs::Registry r;
  obs::add(&r, "x", 2);
  EXPECT_EQ(r.counter("x"), 2u);
}

TEST(Metrics, JsonExportParses) {
  obs::Registry r;
  r.add("a.b", 5);
  r.gauge_max("g", 9);
  r.observe("h", 42);
  obs::JsonWriter w;
  r.write_json(w);
  const obs::JsonValue v = obs::parse_json(w.str());
  EXPECT_EQ(v.at("counters").at("a.b").as_uint(), 5u);
  EXPECT_EQ(v.at("gauges").at("g").as_uint(), 9u);
  EXPECT_EQ(v.at("histograms").at("h").at("count").as_uint(), 1u);
  EXPECT_EQ(v.at("histograms").at("h").at("sum").as_uint(), 42u);
}

// The tentpole determinism contract: the same sweep merged at 1, 2 and 8
// threads produces byte-identical registries (counters, gauges, histogram
// buckets — everything render() shows).
TEST(Metrics, SweepRegistryIsThreadCountInvariant) {
  auto sweep = [](int threads) {
    obs::Registry registry;
    report::ParallelRunner runner({.threads = threads, .registry = &registry});
    runner.run();
    return registry.render();
  };
  obs::Registry serial_registry;
  report::Matrix::run({}, &serial_registry);
  const std::string serial = serial_registry.render();
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, sweep(1));
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

// --------------------------------------------------------------- tracer --

TEST(Tracer, DisabledSpanRecordsNothingAndSkipsArgs) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.stop();
  tracer.clear();
  bool args_called = false;
  {
    obs::Span span("idle", [&] {
      args_called = true;
      return obs::SpanArgs{};
    });
    EXPECT_FALSE(span.active());
  }
  EXPECT_FALSE(args_called);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, RecordsNestedSpansAsValidChromeJson) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  {
    obs::Span outer("outer", [] { return obs::SpanArgs{{"k", "v"}}; });
    obs::Span inner("inner");
  }
  tracer.stop();
  const obs::JsonValue doc = obs::parse_json(tracer.chrome_json());
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  bool saw_meta = false;
  bool saw_outer = false;
  bool saw_inner = false;
  for (const obs::JsonValue& e : events.items) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_meta = true;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
    } else {
      ASSERT_EQ(ph, "X");
      EXPECT_GE(e.at("dur").as_double(), 0.0);
      if (e.at("name").as_string() == "outer") {
        saw_outer = true;
        EXPECT_EQ(e.at("args").at("k").as_string(), "v");
      }
      if (e.at("name").as_string() == "inner") saw_inner = true;
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  tracer.clear();
}

// Spans recorded from pool workers land in per-worker shards named after
// their ThreadPool worker IDs — the flame view's row labels.
TEST(Tracer, PoolWorkersGetNamedShards) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  {
    support::ThreadPool pool(4);
    support::parallel_for(&pool, 64, [&](std::size_t) {
      obs::Span span("work");
    });
  }
  tracer.stop();
  const obs::JsonValue doc = obs::parse_json(tracer.chrome_json());
  std::set<std::string> thread_names;
  for (const obs::JsonValue& e : doc.at("traceEvents").items) {
    if (e.at("ph").as_string() == "M") {
      thread_names.insert(e.at("args").at("name").as_string());
    }
  }
  // At least one worker shard must exist; every shard that recorded from
  // the pool is labelled "worker-N".
  bool saw_worker = false;
  for (const std::string& n : thread_names) {
    if (n.rfind("worker-", 0) == 0) saw_worker = true;
  }
  EXPECT_TRUE(saw_worker) << "no worker-N thread_name metadata in trace";
  tracer.clear();
}

TEST(Tracer, ThreadSafeUnderConcurrentSpans) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          obs::Span span("stress");
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  tracer.stop();
  EXPECT_EQ(tracer.event_count(), static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Export must still be a valid document.
  EXPECT_NO_THROW(obs::parse_json(tracer.chrome_json()));
  tracer.clear();
}

TEST(Tracer, WorkerIdIsMinusOneOffPool) {
  EXPECT_EQ(support::ThreadPool::current_worker_id(), -1);
  support::ThreadPool pool(2);
  std::atomic<bool> ok{true};
  support::parallel_for(&pool, 16, [&](std::size_t) {
    const int id = support::ThreadPool::current_worker_id();
    if (id < 0 || id >= 2) ok = false;
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace ttsc
