// Streaming-pipeline tests: segment rotation exactness (a line never
// splits across segments), manifest round-trip, metrics-delta semantics,
// timeseries sealed handoff, the exact-replay invariant (concatenated
// segments == monolithic dump, byte for byte), drop_oldest accounting
// (manifest drops == obs.sink.dropped), concurrent append-while-draining
// (the TSan CI job runs this suite), the exit and terminate flush, and the
// write-error counter. Everything uses local EventLog / FleetTimeSeries /
// Registry instances so sequence numbers start fresh per test.

#include "obs/sink.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/stream.h"
#include "obs/switch.h"
#include "obs/timeseries.h"

namespace gaugur::obs {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gaugur_sink_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Concatenates a stream's segments in manifest order.
std::string ConcatSegments(const std::string& dir, const Manifest& manifest,
                           const std::string& stream) {
  std::string all;
  const auto it = manifest.streams.find(stream);
  if (it == manifest.streams.end()) return all;
  for (const SegmentInfo& segment : it->second.segments) {
    all += ReadFile(dir + "/" + segment.file);
  }
  return all;
}

TEST(SegmentWriter, RotatesBeforeLineThatWouldOverflow) {
  const std::string dir = TempDir("rotate");
  SegmentWriter writer(dir, "events", /*max_segment_bytes=*/50);
  const std::string line(30, 'x');  // 31 bytes with newline

  EXPECT_TRUE(writer.Append(line, 1, 0.5));   // opens segment 1
  EXPECT_TRUE(writer.Append(line, 2, 1.5));   // 62 > 50 -> new segment
  EXPECT_FALSE(writer.Append(std::string(5, 'y'), 3, 2.5));  // fits
  writer.Close();

  const StreamManifest& summary = writer.Summary();
  ASSERT_EQ(summary.segments.size(), 2u);
  EXPECT_EQ(summary.segments[0].file, "events-00001.jsonl");
  EXPECT_EQ(summary.segments[1].file, "events-00002.jsonl");
  EXPECT_EQ(summary.segments[0].lines, 1u);
  EXPECT_EQ(summary.segments[1].lines, 2u);
  EXPECT_EQ(summary.lines_total, 3u);
  EXPECT_EQ(summary.segments[0].seq_min, 1u);
  EXPECT_EQ(summary.segments[0].seq_max, 1u);
  EXPECT_EQ(summary.segments[1].seq_min, 2u);
  EXPECT_EQ(summary.segments[1].seq_max, 3u);
  EXPECT_EQ(summary.segments[1].tick_min, 1.5);
  EXPECT_EQ(summary.segments[1].tick_max, 2.5);

  // No line was split: every segment ends in a newline and the contents
  // concatenate to exactly what was appended.
  EXPECT_EQ(ReadFile(dir + "/events-00001.jsonl"), line + "\n");
  EXPECT_EQ(ReadFile(dir + "/events-00002.jsonl"),
            line + "\n" + std::string(5, 'y') + "\n");

  // An oversized line still lands whole (its own segment, never split).
  SegmentWriter big(dir, "big", /*max_segment_bytes=*/10);
  const std::string huge(80, 'z');
  big.Append(huge, 1, 0.0);
  big.Append(huge, 2, 1.0);
  big.Close();
  EXPECT_EQ(big.Summary().segments.size(), 2u);
  EXPECT_EQ(ReadFile(dir + "/big-00001.jsonl"), huge + "\n");
  fs::remove_all(dir);
}

TEST(StreamManifest, RoundTripsThroughJsonAndDisk) {
  Manifest manifest;
  manifest.backpressure = "drop_oldest";
  manifest.finalized = true;
  StreamManifest events;
  SegmentInfo segment;
  segment.file = "events-00001.jsonl";
  segment.lines = 12;
  segment.bytes = 3456;
  segment.seq_min = 1;
  segment.seq_max = 12;
  segment.tick_min = 0.25;
  segment.tick_max = 17.75;
  events.segments.push_back(segment);
  events.lines_total = 12;
  events.dropped = 3;
  events.write_errors = 1;
  manifest.streams["events"] = events;
  manifest.streams["metrics_delta"] = StreamManifest{};

  EXPECT_EQ(Manifest::FromJson(manifest.ToJson()), manifest);

  const std::string dir = TempDir("manifest");
  ASSERT_TRUE(manifest.Write(dir));
  Manifest loaded;
  ASSERT_TRUE(Manifest::Load(dir, &loaded));
  EXPECT_EQ(loaded, manifest);
  // The write is atomic (tmp + rename): no tmp file left behind.
  EXPECT_FALSE(fs::exists(dir + "/manifest.json.tmp"));
  fs::remove_all(dir);
}

TEST(StreamManifest, SelectSegmentsByRangeOverlap) {
  StreamManifest stream;
  const auto add = [&](double tick_min, double tick_max, std::uint64_t s_min,
                       std::uint64_t s_max) {
    SegmentInfo segment;
    segment.lines = 1;
    segment.tick_min = tick_min;
    segment.tick_max = tick_max;
    segment.seq_min = s_min;
    segment.seq_max = s_max;
    stream.segments.push_back(segment);
  };
  add(0.0, 10.0, 1, 100);
  add(10.0, 20.0, 101, 200);
  add(30.0, 40.0, 201, 300);

  EXPECT_EQ(SelectSegmentsByTick(stream, 12.0, 15.0),
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(SelectSegmentsByTick(stream, 9.0, 31.0),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(SelectSegmentsByTick(stream, 21.0, 29.0).empty());
  EXPECT_EQ(SelectSegmentsBySeq(stream, 150, 250),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(SelectSegmentsBySeq(stream, 301, 400).empty());
}

TEST(MetricsDelta, DeltaSinceReportsOnlyChanges) {
  EnabledScope on(true);
  Registry registry;
  Counter& hits = registry.GetCounter("hits");
  Gauge& depth = registry.GetGauge("depth");
  registry.GetCounter("idle");  // never incremented
  hits.Add(3);
  depth.Add(2);
  const Snapshot baseline = registry.Snap();

  hits.Add(2);
  const Snapshot delta = registry.Snap().DeltaSince(baseline);
  // Counters report the increment; untouched entries are omitted.
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters.at("hits"), 2u);
  EXPECT_TRUE(delta.gauges.empty());

  depth.Sub(1);
  const Snapshot delta2 = registry.Snap().DeltaSince(baseline);
  // Gauges report the level, not the increment.
  EXPECT_EQ(delta2.gauges.at("depth"), 1);

  // An idle interval produces an empty delta.
  const Snapshot current = registry.Snap();
  const Snapshot idle = current.DeltaSince(current);
  EXPECT_TRUE(idle.counters.empty());
  EXPECT_TRUE(idle.gauges.empty());
  EXPECT_TRUE(idle.histograms.empty());

  // The wire line round-trips structurally.
  const JsonValue line = MetricsDeltaToJson(delta, 7, 12.5);
  EXPECT_EQ(line.Find("schema")->AsString(), kMetricsDeltaSchema);
  EXPECT_EQ(line.Find("seq")->AsNumber(), 7.0);
  EXPECT_EQ(line.Find("counters")->Find("hits")->AsNumber(), 2.0);
}

TEST(TimeseriesStreaming, SealedSegmentsCarryFullFidelity) {
  EnabledScope on(true);
  FleetTimeSeries series({/*capacity_per_server=*/4});
  series.SetStreaming(true, /*seal_after=*/3);

  for (int i = 0; i < 7; ++i) {
    ServerSample sample;
    sample.tick = static_cast<double>(i);
    sample.slots.push_back({/*game_id=*/i, /*fps=*/60.0 + i, {0.1, 0.2}});
    series.Record(0, std::move(sample));
  }
  // The in-memory ring thinned (capacity 4) but the stream must not.
  EXPECT_LE(series.Series(0).size(), 4u);

  std::vector<SealedSeriesSegment> sealed = series.DrainSealed();
  ASSERT_EQ(sealed.size(), 2u);  // two full seals of 3; 1 still staged
  EXPECT_EQ(sealed[0].samples.size(), 3u);
  EXPECT_EQ(sealed[1].samples.size(), 3u);

  std::vector<SealedSeriesSegment> rest =
      series.DrainSealed(/*seal_partial=*/true);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].samples.size(), 1u);

  double expected_tick = 0.0;
  for (const auto* batch : {&sealed, &rest}) {
    for (const SealedSeriesSegment& segment : *batch) {
      EXPECT_EQ(segment.server, 0u);
      for (const ServerSample& sample : segment.samples) {
        EXPECT_EQ(sample.tick, expected_tick);
        expected_tick += 1.0;
      }
    }
  }
  EXPECT_EQ(expected_tick, 7.0);
  EXPECT_EQ(series.StreamDropped(), 0u);

  // The timeseries wire line parses back to the same sample.
  ServerSample sample;
  sample.tick = 3.25;
  sample.slots.push_back({/*game_id=*/5, /*fps=*/58.5, {0.5, 0.25, 0.125}});
  const std::string line =
      TimeseriesLineToJson(9, 2, sample).Dump(/*indent=*/-1);
  const std::vector<TimeseriesPoint> parsed = ParseTimeseriesJsonl(line);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 9u);
  EXPECT_EQ(parsed[0].server, 2u);
  EXPECT_EQ(parsed[0].sample, sample);
}

/// Appends a deterministic event mix to `log`.
void AppendWorkload(EventLog& log, int count) {
  for (int i = 0; i < count; ++i) {
    JsonObject fields;
    fields["i"] = JsonValue(i);
    fields["fps"] = JsonValue(60.0 - 0.1 * i);
    log.Append(i % 3 == 0 ? EventKind::kDecision : EventKind::kArrival,
               static_cast<double>(i) * 0.5,
               i % 3 == 0 ? static_cast<std::uint64_t>(i) : 0,
               std::move(fields));
  }
}

TEST(TelemetrySink, StreamedSegmentsReplayByteIdenticalToSnapshot) {
  EnabledScope on(true);
  const std::string dir = TempDir("replay");

  // Run A: streamed through a sink with a small segment cap so the run
  // rotates several times.
  EventLog streamed({/*shard_capacity=*/64, /*num_shards=*/4});
  FleetTimeSeries series;
  Registry registry;
  {
    SinkConfig config;
    config.directory = dir;
    config.max_segment_bytes = 2048;
    config.flush_interval_ms = 1;
    config.event_log = &streamed;
    config.timeseries = &series;
    config.registry = &registry;
    TelemetrySink sink(std::move(config));
    AppendWorkload(streamed, 300);
    sink.Stop();
    const TelemetrySink::Stats stats = sink.GetStats();
    EXPECT_EQ(stats.events_written, 300u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.write_errors, 0u);
    EXPECT_GT(stats.rotations, 0u);
  }
  // Drained entries were released as the run went.
  EXPECT_EQ(streamed.Residency(), 0u);
  EXPECT_EQ(streamed.TotalDropped(), 0u);

  // Run B: identical appends into a fresh log, dumped monolithically.
  EventLog monolithic({/*shard_capacity=*/1024, /*num_shards=*/4});
  AppendWorkload(monolithic, 300);

  Manifest manifest;
  ASSERT_TRUE(Manifest::Load(dir, &manifest));
  EXPECT_TRUE(manifest.finalized);
  const StreamManifest& events = manifest.streams.at(kEventsStream);
  EXPECT_GT(events.segments.size(), 1u);
  EXPECT_EQ(events.lines_total, 300u);
  EXPECT_EQ(events.dropped, 0u);
  EXPECT_EQ(events.write_errors, 0u);

  // The invariant that makes streaming trustworthy: concatenated
  // segments are byte-identical to the non-streaming snapshot dump, and
  // the manifest's per-segment line counts match the files.
  const std::string concat = ConcatSegments(dir, manifest, kEventsStream);
  EXPECT_EQ(concat, monolithic.ToJsonl());
  for (const SegmentInfo& segment : events.segments) {
    const std::string text = ReadFile(dir + "/" + segment.file);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(text.begin(), text.end(), '\n')),
              segment.lines);
    EXPECT_EQ(text.size(), segment.bytes);
  }
  const std::vector<Event> parsed = EventLog::ParseJsonl(concat);
  EXPECT_EQ(parsed, monolithic.Snapshot());
  fs::remove_all(dir);
}

TEST(TelemetrySink, ConcurrentAppendWhileDrainingIsLossless) {
  EnabledScope on(true);
  const std::string dir = TempDir("concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;

  // Shard rings far smaller than the workload: with block backpressure
  // the writer MUST drain mid-run or the appenders would stall forever.
  EventLog log({/*shard_capacity=*/32, /*num_shards=*/4});
  FleetTimeSeries series;
  Registry registry;
  SinkConfig config;
  config.directory = dir;
  config.flush_interval_ms = 1;
  config.backpressure = OverflowPolicy::kBlock;
  config.event_log = &log;
  config.timeseries = &series;
  config.registry = &registry;
  TelemetrySink sink(std::move(config));

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append(EventKind::kArrival, static_cast<double>(i), 0,
                   {{"thread", JsonValue(t)}, {"i", JsonValue(i)}});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  sink.Stop();

  EXPECT_EQ(log.TotalAppended(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.StreamDropped(), 0u);
  EXPECT_EQ(log.Residency(), 0u);

  Manifest manifest;
  ASSERT_TRUE(Manifest::Load(dir, &manifest));
  EXPECT_TRUE(manifest.finalized);
  EXPECT_EQ(manifest.backpressure, "block");
  const std::vector<Event> parsed =
      EventLog::ParseJsonl(ConcatSegments(dir, manifest, kEventsStream));
  ASSERT_EQ(parsed.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Gap-free: sequence numbers are exactly 1..N in order.
  std::set<std::uint64_t> seqs;
  for (const Event& event : parsed) seqs.insert(event.seq);
  EXPECT_EQ(seqs.size(), parsed.size());
  EXPECT_EQ(*seqs.begin(), 1u);
  EXPECT_EQ(*seqs.rbegin(), static_cast<std::uint64_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].seq, parsed[i - 1].seq + 1);
  }
  fs::remove_all(dir);
}

TEST(TelemetrySink, DropOldestAccountingMatchesManifestAndCounter) {
  EnabledScope on(true);
  const std::string dir = TempDir("drop");
  const std::uint64_t counter_before =
      Registry::Global().GetCounter("obs.sink.dropped").Value();

  EventLog log({/*shard_capacity=*/8, /*num_shards=*/1});
  FleetTimeSeries series;
  Registry registry;
  SinkConfig config;
  config.directory = dir;
  // A glacial flush interval: all appends land before the first drain,
  // so the tiny ring must overflow.
  config.flush_interval_ms = 10000;
  config.backpressure = OverflowPolicy::kDropOldest;
  config.event_log = &log;
  config.timeseries = &series;
  config.registry = &registry;
  TelemetrySink sink(std::move(config));

  AppendWorkload(log, 50);
  sink.Stop();

  EXPECT_EQ(log.StreamDropped(), 42u);  // 50 appended, ring holds 8
  const std::uint64_t counter_delta =
      Registry::Global().GetCounter("obs.sink.dropped").Value() -
      counter_before;
  Manifest manifest;
  ASSERT_TRUE(Manifest::Load(dir, &manifest));
  EXPECT_EQ(manifest.backpressure, "drop_oldest");
  const StreamManifest& events = manifest.streams.at(kEventsStream);
  // The loss is visible in all three places, and they agree.
  EXPECT_EQ(events.dropped, 42u);
  EXPECT_EQ(counter_delta, 42u);
  EXPECT_EQ(events.lines_total, 8u);
  // What did reach disk is the newest tail, in order.
  const std::vector<Event> parsed =
      EventLog::ParseJsonl(ConcatSegments(dir, manifest, kEventsStream));
  ASSERT_EQ(parsed.size(), 8u);
  EXPECT_EQ(parsed.front().seq, 43u);
  EXPECT_EQ(parsed.back().seq, 50u);
  fs::remove_all(dir);
}

TEST(EventLogStreaming, WriteJsonlFailureBumpsWriteErrorCounter) {
  EnabledScope on(true);
  const std::uint64_t before =
      Registry::Global().GetCounter("obs.sink.write_errors").Value();
  EventLog log({/*shard_capacity=*/8, /*num_shards=*/1});
  log.Append(EventKind::kArrival, 0.0, 0, {});
  EXPECT_FALSE(
      log.WriteJsonl("/nonexistent_gaugur_dir/deeper/events.jsonl"));
  EXPECT_GE(Registry::Global().GetCounter("obs.sink.write_errors").Value(),
            before + 1);
}

/// Starts a sink on `dir` that only the exit flush may stop, then
/// appends 25 events to the global log. Runs inside a death-test child.
void StartLeakedSinkWith25Events(const std::string& dir) {
  SetEnabled(true);
  SinkConfig config;
  config.directory = dir;
  config.flush_interval_ms = 1000;  // the exit arrives first
  // Leaked on purpose: only the exit flush may stop it. The static keeps
  // it reachable, so LeakSanitizer does not flag it; volatile keeps the
  // compiler from dropping a store nothing reads.
  [[maybe_unused]] static TelemetrySink* volatile sink = nullptr;
  sink = new TelemetrySink(std::move(config));
  AppendWorkload(EventLog::Global(), 25);
}

/// The child's final drain finalized the manifest with every event.
void ExpectFinalizedWith25Events(const std::string& dir) {
  Manifest manifest;
  ASSERT_TRUE(Manifest::Load(dir, &manifest));
  EXPECT_TRUE(manifest.finalized);
  const StreamManifest& events = manifest.streams.at(kEventsStream);
  EXPECT_EQ(events.lines_total, 25u);
  EXPECT_EQ(events.write_errors, 0u);
  const std::vector<Event> parsed =
      EventLog::ParseJsonl(ConcatSegments(dir, manifest, kEventsStream));
  EXPECT_EQ(parsed.size(), 25u);
}

TEST(SinkExitFlush, StdExitFinalizesManifestInSubprocess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string dir = TempDir("exitflush");
  // The child never calls Stop(): the atexit handler must drain.
  EXPECT_EXIT(
      {
        StartLeakedSinkWith25Events(dir);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  ExpectFinalizedWith25Events(dir);
  fs::remove_all(dir);
}

TEST(SinkExitFlush, TerminateFinalizesManifestInSubprocess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string dir = TempDir("terminateflush");
  // The sink's terminate handler drains, then chains to the previous
  // handler, which aborts.
  EXPECT_EXIT(
      {
        StartLeakedSinkWith25Events(dir);
        std::terminate();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  ExpectFinalizedWith25Events(dir);
  fs::remove_all(dir);
}

TEST(TelemetrySink, FromEnvHonorsSinkDirSwitch) {
  EnabledScope on(true);
  unsetenv("GAUGUR_SINK_DIR");
  EXPECT_EQ(TelemetrySink::FromEnv(), nullptr);

  const std::string dir = TempDir("fromenv");
  setenv("GAUGUR_SINK_DIR", dir.c_str(), 1);
  {
    // The sink rides the obs master switch: no writer while obs is off.
    EnabledScope off(false);
    EXPECT_EQ(TelemetrySink::FromEnv(), nullptr);
  }
  setenv("GAUGUR_SINK_SEGMENT_BYTES", "4096", 1);
  {
    std::unique_ptr<TelemetrySink> sink = TelemetrySink::FromEnv();
    ASSERT_NE(sink, nullptr);
    EXPECT_EQ(sink->directory(), dir);
    EXPECT_EQ(TelemetrySink::Active(), sink.get());
    sink->Stop();
    EXPECT_EQ(TelemetrySink::Active(), nullptr);
    Manifest manifest;
    ASSERT_TRUE(Manifest::Load(dir, &manifest));
    // No variable picks the policy: an env-built sink always blocks.
    EXPECT_EQ(manifest.backpressure, "block");
  }
  unsetenv("GAUGUR_SINK_DIR");
  unsetenv("GAUGUR_SINK_SEGMENT_BYTES");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gaugur::obs
