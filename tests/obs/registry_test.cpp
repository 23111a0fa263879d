#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"
#include "obs/stream.h"
#include "obs/switch.h"

namespace gaugur::obs {
namespace {

TEST(SwitchTest, EnabledScopeRestoresPreviousState) {
  const bool before = Enabled();
  {
    EnabledScope off(false);
    EXPECT_FALSE(Enabled());
    {
      EnabledScope on(true);
      EXPECT_TRUE(Enabled());
    }
    EXPECT_FALSE(Enabled());
  }
  EXPECT_EQ(Enabled(), before);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  EnabledScope on(true);
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST(CounterTest, DisabledAddIsNoop) {
  Counter counter;
  {
    EnabledScope off(false);
    counter.Add(17);
  }
  EXPECT_EQ(counter.Value(), 0u);
  {
    EnabledScope on(true);
    counter.Add(17);
  }
  EXPECT_EQ(counter.Value(), 17u);
}

TEST(GaugeTest, ConcurrentAddSubNetsToZero) {
  EnabledScope on(true);
  Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 20000; ++i) {
        gauge.Add(3);
        gauge.Sub(3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Add(5);
  gauge.Sub(2);
  EXPECT_EQ(gauge.Value(), 3);
}

TEST(HistogramTest, PercentilesOnUniformDistribution) {
  EnabledScope on(true);
  // Bounds 100, 200, ..., 1000; values 1..1000 uniformly -> each bucket
  // holds exactly 100 samples and interpolation is exact.
  std::vector<double> bounds;
  for (int b = 100; b <= 1000; b += 100) bounds.push_back(b);
  Histogram hist(bounds);
  for (int v = 1; v <= 1000; ++v) hist.Record(v);

  EXPECT_EQ(hist.Count(), 1000u);
  EXPECT_NEAR(hist.Mean(), 500.5, 1e-9);
  EXPECT_NEAR(hist.Percentile(0.50), 500.0, 1e-9);
  EXPECT_NEAR(hist.Percentile(0.95), 950.0, 1e-9);
  EXPECT_NEAR(hist.Percentile(0.99), 990.0, 1e-9);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  EnabledScope on(true);
  Histogram hist(Histogram::DefaultBounds());
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        hist.Record(static_cast<double>((t * 37 + i) % 1000));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.Count(),
            static_cast<std::uint64_t>(kThreads) * kRecordsPerThread);
}

TEST(HistogramTest, OverflowBucketAndEmpty) {
  EnabledScope on(true);
  const std::vector<double> bounds = {1.0, 2.0};
  Histogram hist(bounds);
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0.0);
  hist.Record(100.0);  // beyond the last finite bound
  const HistogramSnapshot snap = hist.Snap();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[2], 1u);
  // Overflow percentile reports the last finite edge, not a fabrication.
  EXPECT_EQ(hist.Percentile(0.99), 2.0);
}

TEST(RegistryTest, HandlesAreStableAndNamed) {
  EnabledScope on(true);
  Registry registry;
  Counter& a = registry.GetCounter("x.count");
  Counter& b = registry.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(2);
  b.Add(3);
  EXPECT_EQ(registry.Snap().counters.at("x.count"), 5u);
  registry.Reset();
  EXPECT_EQ(registry.Snap().counters.at("x.count"), 0u);
  EXPECT_EQ(&a, &registry.GetCounter("x.count"));  // still valid post-Reset
}

TEST(RegistryTest, ConcurrentGetAndIncrementFromManyThreads) {
  EnabledScope on(true);
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the same names itself (exercises the
      // create-on-first-use path under contention) then hammers them.
      Counter& counter = registry.GetCounter("shared.count");
      Gauge& gauge = registry.GetGauge("shared.level");
      Histogram& hist = registry.GetHistogram("shared.us");
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.Add(1);
        gauge.Add(1);
        gauge.Sub(1);
        hist.Record(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const Snapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("shared.count"),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(snap.gauges.at("shared.level"), 0);
  EXPECT_EQ(snap.histograms.at("shared.us").count,
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "c": null, )"
      R"("s": "quote \" slash \\ newline \n"})";
  const JsonValue doc = JsonValue::Parse(text);
  EXPECT_EQ(doc.Find("a")->AsArray()[2].AsNumber(), -300.0);
  EXPECT_TRUE(doc.Find("b")->Find("nested")->AsBool());
  EXPECT_TRUE(doc.Find("c")->IsNull());
  EXPECT_EQ(doc.Find("s")->AsString(), "quote \" slash \\ newline \n");
  // Round trip: dump -> parse -> equal document.
  EXPECT_EQ(JsonValue::Parse(doc.Dump()), doc);
  EXPECT_EQ(JsonValue::Parse(doc.Dump(2)), doc);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::Parse("{"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("[1,]"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("{\"a\": 1} trailing"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("tru"), JsonParseError);
}

TEST(RunReportTest, JsonRoundTripsSnapshotExactly) {
  EnabledScope on(true);
  Registry registry;
  registry.GetCounter("lab.measurements").Add(314);
  registry.GetGauge("pool.queue_depth").Add(7);
  registry.GetGauge("pool.queue_depth").Sub(7);
  Histogram& hist = registry.GetHistogram("lab.measure_us");
  for (int i = 0; i < 1000; ++i) hist.Record(0.37 * i);

  RunReport report("unit-test", registry.Snap());
  report.SetMeta("seed", "42");
  const std::string json = report.ToJsonString();

  // The document is valid JSON with the documented schema marker...
  const JsonValue doc = JsonValue::Parse(json);
  EXPECT_EQ(doc.Find("schema")->AsString(), kRunReportSchema);
  // v4 histogram summaries carry the derived tail quantile alongside the
  // coarser ones, monotone with them.
  const JsonValue* entry =
      doc.Find("histograms")->Find("lab.measure_us");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->Find("p999"), nullptr);
  EXPECT_GE(entry->Find("p999")->AsNumber(),
            entry->Find("p99")->AsNumber());
  // ...carrying the snapshot's exact integers and the metadata.
  EXPECT_EQ(doc.Find("counters")->Find("lab.measurements")->AsNumber(), 314);
  EXPECT_EQ(doc.Find("gauges")->Find("pool.queue_depth")->AsNumber(), 0);
  EXPECT_EQ(entry->Find("count")->AsNumber(), 1000);
  EXPECT_EQ(doc.Find("meta")->Find("seed")->AsString(), "42");
}

TEST(RunReportTest, RejectsWrongSchema) {
  EXPECT_THROW(RunReport::FromJsonString(R"({"schema": "bogus/v9"})"),
               std::logic_error);
  EXPECT_THROW(RunReport::FromJsonString("[]"), std::logic_error);
}

TEST(RunReportTest, TextTablesMentionEveryMetric) {
  EnabledScope on(true);
  Registry registry;
  registry.GetCounter("alpha.count").Add(1);
  registry.GetGauge("beta.level").Add(2);
  registry.GetHistogram("gamma.us").Record(5.0);
  const RunReport report("text", registry.Snap());
  const std::string text = report.ToText();
  EXPECT_NE(text.find("alpha.count"), std::string::npos);
  EXPECT_NE(text.find("beta.level"), std::string::npos);
  EXPECT_NE(text.find("gamma.us"), std::string::npos);
}

TEST(MetricsDeltaTest, UnchangedGaugeOmittedFromDeltaLine) {
  EnabledScope on(true);
  Registry registry;
  Gauge& steady = registry.GetGauge("steady.level");
  Gauge& moving = registry.GetGauge("moving.level");
  steady.Add(5);
  moving.Add(1);
  const Snapshot base = registry.Snap();
  moving.Add(2);
  const Snapshot delta = registry.Snap().DeltaSince(base);
  // Gauges report their current level, and only when it changed.
  EXPECT_EQ(delta.gauges.count("steady.level"), 0u);
  ASSERT_EQ(delta.gauges.count("moving.level"), 1u);
  EXPECT_EQ(delta.gauges.at("moving.level"), 3);
  const JsonValue line = MetricsDeltaToJson(delta, /*seq=*/1, /*tick=*/10.0);
  EXPECT_EQ(line.Find("schema")->AsString(), kMetricsDeltaSchema);
  EXPECT_EQ(line.Find("gauges")->Find("steady.level"), nullptr);
  EXPECT_EQ(line.Find("gauges")->Find("moving.level")->AsNumber(), 3.0);
}

TEST(MetricsDeltaTest, CounterIncrementsAcrossMultipleDrains) {
  EnabledScope on(true);
  Registry registry;
  Counter& counter = registry.GetCounter("drain.count");

  // Drain 1: the counter's whole value relative to an empty baseline.
  counter.Add(3);
  Snapshot baseline;
  Snapshot delta = registry.Snap().DeltaSince(baseline);
  EXPECT_EQ(delta.counters.at("drain.count"), 3u);
  baseline = registry.Snap();

  // Drain 2: only the increment since the previous drain.
  counter.Add(4);
  delta = registry.Snap().DeltaSince(baseline);
  EXPECT_EQ(delta.counters.at("drain.count"), 4u);
  JsonValue line = MetricsDeltaToJson(delta, /*seq=*/2, /*tick=*/20.0);
  EXPECT_EQ(line.Find("counters")->Find("drain.count")->AsNumber(), 4.0);
  baseline = registry.Snap();

  // Drain 3: idle interval -> the counter vanishes from the line.
  delta = registry.Snap().DeltaSince(baseline);
  EXPECT_EQ(delta.counters.count("drain.count"), 0u);
  line = MetricsDeltaToJson(delta, /*seq=*/3, /*tick=*/30.0);
  EXPECT_EQ(line.Find("counters")->Find("drain.count"), nullptr);
  EXPECT_TRUE(line.Find("counters")->AsObject().empty());
}

TEST(MetricsDeltaTest, HistogramBucketIncrementsStreamExactly) {
  EnabledScope on(true);
  Registry registry;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram& hist = registry.GetHistogram("delta.us", bounds);
  hist.Record(0.5);
  hist.Record(5.0);
  const Snapshot base = registry.Snap();

  hist.Record(50.0);
  hist.Record(500.0);  // overflow bucket
  const Snapshot delta = registry.Snap().DeltaSince(base);
  const HistogramSnapshot& diff = delta.histograms.at("delta.us");
  // Only the two new records survive the subtraction, each in its bucket.
  EXPECT_EQ(diff.count, 2u);
  EXPECT_DOUBLE_EQ(diff.sum, 550.0);
  ASSERT_EQ(diff.counts.size(), 4u);
  EXPECT_EQ(diff.counts[0], 0u);  // <= 1: unchanged
  EXPECT_EQ(diff.counts[1], 0u);  // <= 10: unchanged
  EXPECT_EQ(diff.counts[2], 1u);  // <= 100: the 50.0
  EXPECT_EQ(diff.counts[3], 1u);  // overflow: the 500.0
  const JsonValue line = MetricsDeltaToJson(delta, /*seq=*/4, /*tick=*/40.0);
  const JsonValue* entry = line.Find("histograms")->Find("delta.us");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("count")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(entry->Find("sum")->AsNumber(), 550.0);

  // An unchanged histogram is omitted entirely.
  const Snapshot idle = registry.Snap().DeltaSince(registry.Snap());
  EXPECT_TRUE(idle.histograms.empty());
  EXPECT_TRUE(MetricsDeltaToJson(idle, /*seq=*/5, /*tick=*/50.0)
                  .Find("histograms")
                  ->AsObject()
                  .empty());
}

}  // namespace
}  // namespace gaugur::obs
