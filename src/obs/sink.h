// TelemetrySink: the asynchronous streaming writer.
//
// One background thread drains the process's telemetry sources — the
// event log (via EventLog::DrainSince cursors), the metrics registry
// (periodic delta snapshots), and the fleet time series (sealed
// full-fidelity segments) — into rotating JSONL segment files in a sink
// directory, described by a manifest.json (see obs/stream.h for the
// on-disk format). While a sink is attached, drained event-ring entries
// are released, so a multi-hour run holds only one drain interval of
// telemetry in memory instead of the whole history.
//
// Backpressure between the simulation and the writer is the event log's
// OverflowPolicy: kBlock (lossless; appenders wait when a shard ring
// fills faster than the writer drains) or kDropOldest (never stalls the
// simulation; losses are tallied in the manifest and the
// `obs.sink.dropped` counter).
//
// Crash safety: the first sink arms one atexit handler and one
// std::terminate handler that stop the live sink, so process exit —
// clean, std::exit, or std::terminate — performs a final drain, seals
// the segments, and rewrites the manifest with finalized=true. The
// manifest is also rewritten on every rotation, so a kill -9 leaves at
// most the open segment undescribed.
//
// The whole pipeline honors the GAUGUR_OBS_ENABLED kill switch: with
// obs disabled the sources record nothing, so the sink writes empty
// streams. FromEnv() is the runtime switch: it returns a live sink iff
// GAUGUR_SINK_DIR is set.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "obs/timeseries.h"

namespace gaugur::obs {

/// Stable wire name for a policy ("block" / "drop_oldest").
const char* BackpressureName(OverflowPolicy policy);

struct SinkConfig {
  /// Directory the segments + manifest are written into (created if
  /// missing). Required.
  std::string directory;
  /// Rotate a stream's segment before a line would push it past this.
  std::size_t max_segment_bytes = std::size_t{1} << 20;
  /// Writer-thread drain cadence.
  int flush_interval_ms = 20;
  /// What Append() does when an event shard fills between drains.
  OverflowPolicy backpressure = OverflowPolicy::kBlock;
  /// Sources; null means the process-wide Global() instances. Tests
  /// point these at local instances for isolation.
  EventLog* event_log = nullptr;
  FleetTimeSeries* timeseries = nullptr;
  Registry* registry = nullptr;
};

class TelemetrySink {
 public:
  /// Attaches to the sources, creates the directory, writes an initial
  /// manifest, and starts the writer thread. At most one sink may be
  /// live per process (GAUGUR_CHECK).
  explicit TelemetrySink(SinkConfig config);
  /// Equivalent to Stop().
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Synchronous drain: returns after the writer completed one full
  /// cycle (events + sealed series + a metrics delta) and flushed the
  /// segment streams.
  void Flush();

  /// Final drain + manifest finalization + writer join + source detach.
  /// Idempotent; called by the destructor and the exit-flush hook.
  void Stop();

  /// Advances the tick the metrics-delta lines are stamped with (the
  /// sink has no other view of simulation time).
  void NoteTick(double tick);

  struct Stats {
    std::uint64_t events_written = 0;
    std::uint64_t metrics_lines = 0;
    std::uint64_t timeseries_lines = 0;
    /// Source-side losses (ring/sealed-queue overflow) while attached.
    std::uint64_t dropped = 0;
    std::uint64_t write_errors = 0;
    std::uint64_t rotations = 0;
    /// Largest single event drain batch — the peak number of events
    /// that were resident in the rings at a drain cut, i.e. the ring
    /// high-water mark the streaming run actually reached.
    std::uint64_t max_drain_batch = 0;
  };
  Stats GetStats() const;

  /// The manifest as it would be written right now.
  Manifest CurrentManifest() const;

  const std::string& directory() const { return config_.directory; }

  /// The process's live sink, or null. Set by the constructor, cleared
  /// by Stop().
  static TelemetrySink* Active();

  /// Builds a sink from the environment: returns null unless
  /// GAUGUR_SINK_DIR is set. GAUGUR_SINK_SEGMENT_BYTES overrides the
  /// segment size; every other field keeps its SinkConfig default.
  static std::unique_ptr<TelemetrySink> FromEnv();

 private:
  void WriterLoop();
  /// One drain cycle; `final_cycle` forces a metrics delta and a
  /// partial-seal timeseries drain. Caller holds mutex_.
  void DrainCycleLocked(bool final_cycle);
  Manifest BuildManifestLocked(bool finalized) const;
  void WriteManifestLocked(bool finalized);

  SinkConfig config_;
  EventLog* log_;
  FleetTimeSeries* timeseries_;
  Registry* registry_;

  mutable std::mutex mutex_;
  SegmentWriter events_writer_;
  SegmentWriter metrics_writer_;
  SegmentWriter timeseries_writer_;
  std::uint64_t event_cursor_ = 0;
  /// The event line being written, reused across events.
  std::string line_;
  std::uint64_t metrics_seq_ = 0;
  std::uint64_t timeseries_seq_ = 0;
  std::size_t cycles_ = 0;
  Snapshot metrics_baseline_;
  Stats stats_;

  std::atomic<double> last_tick_{0.0};
  std::condition_variable wake_writer_;
  std::condition_variable cycle_done_;
  std::uint64_t flush_requested_ = 0;
  std::uint64_t flush_completed_ = 0;
  bool stop_requested_ = false;
  bool writer_exited_ = false;
  std::atomic<bool> stop_started_{false};
  std::thread writer_;
};

}  // namespace gaugur::obs
