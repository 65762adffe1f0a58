#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace rups::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsFromThreadPoolWorkersAreLossless) {
  Counter c;
  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncsPerTask = 10'000;
  pool.parallel_for(0, kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kIncsPerTask; ++i) c.inc();
  });
  EXPECT_EQ(c.value(), kTasks * kIncsPerTask);
}

TEST(Counter, EightLiveThreadsWriteEightDistinctShards) {
  // Slots are handed out round-robin on first use, so threads that start
  // together never share a shard (a hashed thread id could).
  constexpr std::size_t kThreads = detail::kCounterShards;
  std::vector<std::size_t> slots(kThreads);
  std::latch all_live(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      slots[i] = detail::shard_index();
      EXPECT_EQ(detail::shard_index(), slots[i]);
      all_live.arrive_and_wait();
    });
  }
  for (std::thread& t : threads) t.join();
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 0; i < kThreads; ++i) EXPECT_EQ(slots[i], i);
}

TEST(Gauge, SetAddAndReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketSemantics) {
  // Bounds are upper edges; the last bucket catches everything above.
  Histogram h({1.0, 2.0, 4.0});
  h.record(0.5);   // <= 1.0
  h.record(1.0);   // <= 1.0 (upper edge inclusive)
  h.record(1.5);   // <= 2.0
  h.record(3.0);   // <= 4.0
  h.record(100.0); // overflow
  const HistogramSample s = h.sample("t");
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 106.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 5.0);
}

TEST(Histogram, EmptySampleHasZeroExtrema) {
  Histogram h({1.0});
  const HistogramSample s = h.sample("empty");
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Histogram, ConcurrentRecordsPreserveTotalCount) {
  Histogram h(exponential_bounds(1.0, 2.0, 10));
  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kPerTask = 2'000;
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      h.record(static_cast<double>((t * kPerTask + i) % 1000));
    }
  });
  const HistogramSample s = h.sample("c");
  EXPECT_EQ(s.count, kTasks * kPerTask);
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(Histogram, ExponentialBounds) {
  const auto bounds = exponential_bounds(1.0, 2.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_FALSE(default_latency_bounds_us().empty());
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {5.0});  // bounds fixed on creation
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Registry, SnapshotIsDeterministicAndSorted) {
  Registry reg;
  reg.counter("zebra").inc(3);
  reg.counter("alpha").inc(1);
  reg.gauge("mid").set(7.0);
  reg.histogram("lat", {10.0}).record(4.0);

  const MetricsSnapshot s1 = reg.snapshot();
  const MetricsSnapshot s2 = reg.snapshot();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.to_json(), s2.to_json());
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].name, "alpha");
  EXPECT_EQ(s1.counters[1].name, "zebra");
  ASSERT_NE(s1.counter("zebra"), nullptr);
  EXPECT_EQ(s1.counter("zebra")->value, 3u);
  EXPECT_EQ(s1.counter("missing"), nullptr);
  ASSERT_NE(s1.gauge("mid"), nullptr);
  ASSERT_NE(s1.histogram("lat"), nullptr);
  EXPECT_EQ(s1.histogram("lat")->count, 1u);
}

TEST(Registry, ResetZeroesEverythingButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("c");
  c.inc(9);
  reg.gauge("g").set(1.0);
  reg.histogram("h").record(5.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c")->value, 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("g")->value, 0.0);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
}

TEST(Snapshot, JsonRoundTrip) {
  Registry reg;
  reg.counter("syn.windows_scanned").inc(12345);
  reg.counter("v2v.payload_bytes").inc(182'000);
  reg.gauge("campaign.last_availability").set(0.875);
  Histogram& h = reg.histogram("campaign.query_latency_us", {10.0, 100.0});
  h.record(3.5);
  h.record(42.0);
  h.record(5000.0);

  const MetricsSnapshot original = reg.snapshot();
  const std::string json = original.to_json();
  const MetricsSnapshot parsed = MetricsSnapshot::from_json(json);
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(Snapshot, JsonRoundTripEmpty) {
  const MetricsSnapshot empty;
  EXPECT_EQ(MetricsSnapshot::from_json(empty.to_json()), empty);
}

TEST(Snapshot, FromJsonRejectsGarbage) {
  for (const char* doc : {
           "not json",
           "{\"counters\": [{]}",
           "[]",
           "{\"timers\": []}",
           "{\"counters\": [{\"name\": \"a\", \"unit\": 1}]}",
           "{\"gauges\": [{\"name\": \"a\", \"value\": \"1\"}]}",
           "{\"histograms\": [{\"name\": 3}]}",
           "{\"counters\": {}}",
           "{\"counters\": [{\"name\": \"a\", \"value\": -1}]}",
           "{\"histograms\": [{\"count\": -2}]}",
           "{\"histograms\": [{\"buckets\": [1, -1]}]}",
       }) {
    SCOPED_TRACE(doc);
    EXPECT_THROW((void)MetricsSnapshot::from_json(doc), std::runtime_error);
  }
}

TEST(Snapshot, EscapesNamesInJson) {
  MetricsSnapshot snap;
  snap.counters.push_back({"weird\"name\\with\nstuff", 1});
  const auto parsed = MetricsSnapshot::from_json(snap.to_json());
  EXPECT_EQ(parsed, snap);
}

TEST(Snapshot, EscapesControlCharactersAndRoundTripsHostileLabels) {
  // Family-cell shapes carry raw label values into metric names; control
  // characters and quotes must survive to_json -> from_json untouched and
  // the document must stay valid JSON for a generic parser.
  MetricsSnapshot snap;
  snap.counters.push_back(
      {std::string("fam{key=\"\x01quote\\\"mid\x1f\"}"), 3});
  snap.counters.push_back({std::string("nul\0inside", 10), 7});
  snap.gauges.push_back({"bell\x07tab\ttext", 2.5});
  const std::string json = snap.to_json();
  EXPECT_NO_THROW((void)rups::util::JsonValue::parse(json));
  const auto parsed = MetricsSnapshot::from_json(json);
  EXPECT_EQ(parsed, snap);
}

TEST(Snapshot, FromJsonDecodesUnicodeEscapes) {
  const MetricsSnapshot parsed = MetricsSnapshot::from_json(
      "{\"counters\": [{\"name\": \"a\\u0001b\\u00e9\", \"value\": 4}],\n"
      "  \"gauges\": [], \"histograms\": []}");
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].name, "a\x01" "b\xC3\xA9");
  EXPECT_EQ(parsed.counters[0].value, 4u);
}

TEST(ObsTimer, RecordsIntoHistogram) {
  Histogram h(default_latency_bounds_us());
  {
    ObsTimer timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ObsTimer, StopIsIdempotent) {
  Histogram h(default_latency_bounds_us());
  ObsTimer timer(&h);
  timer.stop();
  timer.stop();
  EXPECT_EQ(h.count(), 1u);
}

TEST(ChromeTraceSink, WritesLoadableSpanArray) {
  const auto path =
      std::filesystem::temp_directory_path() / "rups_test_trace.json";
  {
    ChromeTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    set_trace_sink(&sink);
    Histogram h(default_latency_bounds_us());
    {
      ObsTimer t1(&h, "outer");
      ObsTimer t2(&h, "inner");
    }
    set_trace_sink(nullptr);
    EXPECT_EQ(sink.events_written(), 2u);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text[text.size() - 2], ']');
  std::filesystem::remove(path);
}

TEST(Logger, LevelsFilterAndFileSink) {
  const auto path =
      std::filesystem::temp_directory_path() / "rups_test_log.txt";
  Logger& log = Logger::global();
  log.set_sink_file(path);
  log.set_min_level(LogLevel::kInfo);

  RUPS_LOG(kDebug) << "should not appear";
  RUPS_LOG(kInfo) << "info line " << 42;
  RUPS_LOG(kError) << "error line";

  log.set_sink_file({});  // back to stderr, flushes/closes the file

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text.find("should not appear"), std::string::npos);
  EXPECT_NE(text.find("info line 42"), std::string::npos);
  EXPECT_NE(text.find("INFO"), std::string::npos);
  EXPECT_NE(text.find("error line"), std::string::npos);
  EXPECT_NE(text.find("test_obs.cpp:"), std::string::npos);
  std::filesystem::remove(path);
  log.set_min_level(LogLevel::kWarn);
}

TEST(Logger, StatementBelowLevelEvaluatesNoOperands) {
  Logger& log = Logger::global();
  const LogLevel level0 = log.min_level();
  log.set_min_level(LogLevel::kWarn);
  int evaluations = 0;
  const auto side_effect = [&]() {
    ++evaluations;
    return 1;
  };
  RUPS_LOG(kTrace) << side_effect();
  RUPS_LOG(kDebug) << "never emitted " << side_effect() << side_effect();
  EXPECT_EQ(evaluations, 0);
  log.set_min_level(level0);
}

TEST(Logger, RateLimitDropsAndReports) {
  const auto path =
      std::filesystem::temp_directory_path() / "rups_test_ratelimit.txt";
  Logger& log = Logger::global();
  log.set_sink_file(path);
  log.set_min_level(LogLevel::kInfo);
  log.set_rate_limit(2.0);  // bucket starts with 2 tokens

  for (int i = 0; i < 10; ++i) RUPS_LOG(kInfo) << "burst " << i;
  EXPECT_GT(log.dropped_lines(), 0u);

  log.set_rate_limit(0.0);
  RUPS_LOG(kInfo) << "after limit";  // reports the dropped count
  log.set_sink_file({});

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("burst 0"), std::string::npos);
  EXPECT_NE(text.find("rate limit dropped"), std::string::npos);
  EXPECT_NE(text.find("after limit"), std::string::npos);
  std::filesystem::remove(path);
  log.set_min_level(LogLevel::kWarn);
}

TEST(HistogramQuantile, EmptyHistogramYieldsZero) {
  HistogramSample h;
  h.bounds = {1.0, 2.0};
  h.buckets = {0, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(HistogramSample{}, 0.99), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesBetweenEdges) {
  // All 5 samples landed in (min..10]; min is the effective lower edge.
  HistogramSample h;
  h.count = 5;
  h.min = 2.0;
  h.max = 8.0;
  h.bounds = {10.0};
  h.buckets = {5, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 6.0);  // 2 + 0.5*(10-2)
  // Quantiles clamp to the observed range: no estimate above max...
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 8.0);
  // ...or below min (q clamped to [0, 1] too).
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, -3.0), 2.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 7.0), 8.0);
}

TEST(HistogramQuantile, OverflowBucketResolvesToObservedMax) {
  // Samples beyond the last bound live in the unbounded +Inf bucket; the
  // only honest value there is the recorded max.
  HistogramSample h;
  h.count = 4;
  h.min = 12.0;
  h.max = 20.0;
  h.bounds = {10.0};
  h.buckets = {0, 4};
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 20.0);
}

TEST(HistogramQuantile, WalksCumulativeBuckets) {
  // 10 samples: 5 in (0..10], 4 in (10..20], 1 beyond 20.
  HistogramSample h;
  h.count = 10;
  h.min = 1.0;
  h.max = 30.0;
  h.bounds = {10.0, 20.0};
  h.buckets = {5, 4, 1};
  // p50: rank 5 is the last sample of bucket 0 -> its upper edge region.
  EXPECT_NEAR(histogram_quantile(h, 0.5), 10.0, 1e-9);
  // p80: rank 8 = 3rd of 4 samples in (10..20] -> 10 + (3/4)*10.
  EXPECT_NEAR(histogram_quantile(h, 0.8), 17.5, 1e-9);
  // p99 lands in the overflow bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 30.0);
}

TEST(HistogramQuantile, MatchesLiveHistogramSamples) {
  Histogram h(exponential_bounds(1.0, 2.0, 12));
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto sample = h.sample("quantile.live");
  const double p50 = histogram_quantile(sample, 0.50);
  const double p95 = histogram_quantile(sample, 0.95);
  const double p99 = histogram_quantile(sample, 0.99);
  // Bucketed estimates are coarse (x2 buckets) but must be ordered and
  // inside the right buckets.
  EXPECT_GT(p50, 256.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, sample.max);
}

TEST(GlobalRegistry, IsSingleProcessWideInstance) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
  Counter& c = Registry::global().counter("test_obs.unique_counter");
  c.inc(7);
  const auto snap = Registry::global().snapshot();
  ASSERT_NE(snap.counter("test_obs.unique_counter"), nullptr);
  EXPECT_GE(snap.counter("test_obs.unique_counter")->value, 7u);
}

}  // namespace
}  // namespace rups::obs
