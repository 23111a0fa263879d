#include "obs/sink.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <string>

#include "common/check.h"
#include "obs/switch.h"

namespace gaugur::obs {

namespace {

// A metrics-delta line is emitted every this many drain cycles (and
// always on explicit Flush/Stop).
constexpr std::size_t kMetricsEvery = 8;

std::atomic<TelemetrySink*> g_active{nullptr};

std::terminate_handler previous_terminate = nullptr;

// Stops the live sink, if any. A stop that dies (std::terminate during
// atexit) re-enters through the terminate handler; the nested call must
// not stop again.
void FlushActiveSink() {
  static std::atomic<bool> running{false};
  bool expected = false;
  if (!running.compare_exchange_strong(expected, true)) return;
  if (TelemetrySink* sink = g_active.load(std::memory_order_acquire)) {
    sink->Stop();
  }
  running.store(false);
}

[[noreturn]] void FlushOnTerminate() {
  FlushActiveSink();
  if (previous_terminate != nullptr) previous_terminate();
  std::abort();
}

void ArmExitFlushOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Function-local statics and atexit handlers share one LIFO teardown
    // list. Force the telemetry globals into existence BEFORE the flush
    // handler registers, so at exit the flush runs first — while every
    // global it drains (and the sink's writer thread reads) is alive.
    // Without this, a global first touched after the handler registered
    // is destroyed before the flush runs, racing ~Registry against the
    // sink's writer thread during std::exit.
    Registry::Global();
    EventLog::Global();
    FleetTimeSeries::Global();
    std::atexit(FlushActiveSink);
    previous_terminate = std::set_terminate(FlushOnTerminate);
  });
}

}  // namespace

const char* BackpressureName(OverflowPolicy policy) {
  return policy == OverflowPolicy::kBlock ? "block" : "drop_oldest";
}

TelemetrySink::TelemetrySink(SinkConfig config)
    : config_(std::move(config)),
      log_(config_.event_log != nullptr ? config_.event_log
                                        : &EventLog::Global()),
      timeseries_(config_.timeseries != nullptr ? config_.timeseries
                                                : &FleetTimeSeries::Global()),
      registry_(config_.registry != nullptr ? config_.registry
                                            : &Registry::Global()),
      events_writer_(config_.directory, kEventsStream,
                     config_.max_segment_bytes),
      metrics_writer_(config_.directory, kMetricsStream,
                      config_.max_segment_bytes),
      timeseries_writer_(config_.directory, kTimeseriesStream,
                         config_.max_segment_bytes) {
  GAUGUR_CHECK_MSG(!config_.directory.empty(), "sink needs a directory");
  GAUGUR_CHECK_MSG(config_.flush_interval_ms > 0,
                   "sink flush interval must be positive");
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) NoteWriteError("sink directory", config_.directory);

  TelemetrySink* expected = nullptr;
  GAUGUR_CHECK_MSG(
      g_active.compare_exchange_strong(expected, this,
                                       std::memory_order_acq_rel),
      "only one TelemetrySink may be live per process");

  log_->SetStreaming(true, config_.backpressure);
  timeseries_->SetStreaming(true);
  ArmExitFlushOnce();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    WriteManifestLocked(/*finalized=*/false);
  }
  writer_ = std::thread(&TelemetrySink::WriterLoop, this);
}

TelemetrySink::~TelemetrySink() { Stop(); }

TelemetrySink* TelemetrySink::Active() {
  return g_active.load(std::memory_order_acquire);
}

std::unique_ptr<TelemetrySink> TelemetrySink::FromEnv() {
  // The sink rides the same master switch as the sources it drains:
  // with obs off there is nothing to stream, so don't spin a writer.
  if (!Enabled()) return nullptr;
  const char* dir = std::getenv("GAUGUR_SINK_DIR");
  if (dir == nullptr || dir[0] == '\0') return nullptr;
  SinkConfig config;
  config.directory = dir;
  if (const char* bytes = std::getenv("GAUGUR_SINK_SEGMENT_BYTES")) {
    const unsigned long long parsed = std::strtoull(bytes, nullptr, 10);
    if (parsed > 0) config.max_segment_bytes = parsed;
  }
  return std::make_unique<TelemetrySink>(std::move(config));
}

void TelemetrySink::NoteTick(double tick) {
  last_tick_.store(tick, std::memory_order_relaxed);
}

void TelemetrySink::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (writer_exited_) return;
  const std::uint64_t ticket = ++flush_requested_;
  wake_writer_.notify_all();
  cycle_done_.wait(lock, [&] {
    return flush_completed_ >= ticket || writer_exited_;
  });
}

void TelemetrySink::Stop() {
  if (stop_started_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  wake_writer_.notify_all();
  if (writer_.joinable()) writer_.join();
  // Detach the sources only after the writer's final drain, so nothing
  // recorded before Stop() is discarded unstreamed.
  log_->SetStreaming(false, config_.backpressure);
  timeseries_->SetStreaming(false);
  TelemetrySink* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

void TelemetrySink::WriterLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    wake_writer_.wait_for(
        lock, std::chrono::milliseconds(config_.flush_interval_ms), [&] {
          return stop_requested_ || flush_requested_ > flush_completed_;
        });
    if (stop_requested_) break;
    const bool flushing = flush_requested_ > flush_completed_;
    DrainCycleLocked(/*final_cycle=*/flushing);
    if (flushing) {
      events_writer_.Flush();
      metrics_writer_.Flush();
      timeseries_writer_.Flush();
      WriteManifestLocked(/*finalized=*/false);
      flush_completed_ = flush_requested_;
      cycle_done_.notify_all();
    }
  }
  DrainCycleLocked(/*final_cycle=*/true);
  events_writer_.Close();
  metrics_writer_.Close();
  timeseries_writer_.Close();
  WriteManifestLocked(/*finalized=*/true);
  writer_exited_ = true;
  flush_completed_ = flush_requested_;
  cycle_done_.notify_all();
}

void TelemetrySink::DrainCycleLocked(bool final_cycle) {
  bool rotated = false;

  std::vector<Event> events = log_->DrainSince(event_cursor_);
  if (!events.empty()) {
    stats_.max_drain_batch =
        std::max(stats_.max_drain_batch,
                 static_cast<std::uint64_t>(events.size()));
    for (const Event& event : events) {
      line_.clear();
      event.AppendJson(line_);
      rotated |= events_writer_.Append(line_, event.seq, event.tick);
    }
    event_cursor_ = events.back().seq;
    stats_.events_written += events.size();
  }

  const std::vector<SealedSeriesSegment> sealed =
      timeseries_->DrainSealed(/*seal_partial=*/final_cycle);
  for (const SealedSeriesSegment& segment : sealed) {
    for (const ServerSample& sample : segment.samples) {
      ++timeseries_seq_;
      rotated |= timeseries_writer_.Append(
          TimeseriesLineToJson(timeseries_seq_, segment.server, sample)
              .Dump(/*indent=*/-1),
          timeseries_seq_, sample.tick);
      ++stats_.timeseries_lines;
    }
  }

  ++cycles_;
  if (final_cycle || cycles_ % kMetricsEvery == 0) {
    Snapshot current = registry_->Snap();
    const Snapshot delta = current.DeltaSince(metrics_baseline_);
    const bool empty = delta.counters.empty() && delta.gauges.empty() &&
                       delta.histograms.empty();
    if (!empty || final_cycle) {
      ++metrics_seq_;
      const double tick = last_tick_.load(std::memory_order_relaxed);
      rotated |= metrics_writer_.Append(
          MetricsDeltaToJson(delta, metrics_seq_, tick).Dump(/*indent=*/-1),
          metrics_seq_, tick);
      ++stats_.metrics_lines;
      metrics_baseline_ = std::move(current);
    }
  }

  if (rotated) {
    ++stats_.rotations;
    // Manifest rewritten on every rotation: a crash leaves at most the
    // open segments undescribed, never a stale segment list.
    WriteManifestLocked(/*finalized=*/false);
  }
}

Manifest TelemetrySink::BuildManifestLocked(bool finalized) const {
  Manifest manifest;
  manifest.backpressure = BackpressureName(config_.backpressure);
  manifest.finalized = finalized;
  StreamManifest events = events_writer_.Summary();
  events.dropped = log_->StreamDropped();
  manifest.streams[kEventsStream] = std::move(events);
  manifest.streams[kMetricsStream] = metrics_writer_.Summary();
  StreamManifest timeseries = timeseries_writer_.Summary();
  timeseries.dropped = timeseries_->StreamDropped();
  manifest.streams[kTimeseriesStream] = std::move(timeseries);
  return manifest;
}

void TelemetrySink::WriteManifestLocked(bool finalized) {
  BuildManifestLocked(finalized).Write(config_.directory);
}

Manifest TelemetrySink::CurrentManifest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return BuildManifestLocked(/*finalized=*/writer_exited_);
}

TelemetrySink::Stats TelemetrySink::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.dropped = log_->StreamDropped() + timeseries_->StreamDropped();
  stats.write_errors = events_writer_.write_errors() +
                       metrics_writer_.write_errors() +
                       timeseries_writer_.write_errors();
  return stats;
}

}  // namespace gaugur::obs
