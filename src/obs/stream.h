// Streaming-telemetry primitives: rotating JSONL segment files, the
// manifest that describes them, and the wire helpers for the
// metrics-delta and time-series streams.
//
// This header is the source-side half of the streaming pipeline; the
// background writer that drives it lives in obs/sink.h. Everything here
// is synchronous and single-owner (the sink's writer thread), so there
// are no locks — thread safety is the sink's job.
//
// Segment files: each telemetry stream ("events", "metrics_delta",
// "timeseries") is written as size-capped JSONL segments
// (events-00001.jsonl, events-00002.jsonl, ...). A line is NEVER split
// across segments: the writer rotates *before* a line that would push
// the current segment past the byte cap. Concatenating a stream's
// segments in manifest order therefore reproduces the monolithic dump
// byte for byte.
//
// Manifest (manifest.json in the sink directory, schema
// "gaugur.obs.manifest/v1"): per stream, the ordered segment list with
// line counts, byte sizes, and seq/tick ranges, plus drop and
// write-error tallies. It is rewritten atomically (tmp + rename) on
// every rotation and finalized on the last flush, so a reader always
// sees a parseable description of what is on disk and an offline tool
// can pick only the segments overlapping a seq or tick range.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace gaugur::obs {

inline constexpr const char* kManifestSchema = "gaugur.obs.manifest/v1";
inline constexpr const char* kMetricsDeltaSchema =
    "gaugur.obs.metrics_delta/v1";
inline constexpr const char* kTimeseriesSchema = "gaugur.obs.timeseries/v1";

/// Stream names used as manifest keys and segment file prefixes.
inline constexpr const char* kEventsStream = "events";
inline constexpr const char* kMetricsStream = "metrics_delta";
inline constexpr const char* kTimeseriesStream = "timeseries";

inline constexpr const char* kManifestFileName = "manifest.json";

// ---------------------------------------------------------------------------
// Write errors.

/// Logs a write failure (with errno text) to stderr and bumps the
/// `obs.sink.write_errors` counter — shared by every telemetry writer so
/// silent data loss always leaves a metric.
void NoteWriteError(std::string_view what, const std::string& path);

// ---------------------------------------------------------------------------
// Segments & manifest.

struct SegmentInfo {
  std::string file;  // file name relative to the sink directory
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  std::uint64_t seq_min = 0;
  std::uint64_t seq_max = 0;
  double tick_min = 0.0;
  double tick_max = 0.0;

  JsonValue ToJson() const;
  static SegmentInfo FromJson(const JsonValue& value);

  friend bool operator==(const SegmentInfo&, const SegmentInfo&) = default;
};

/// One stream's section of the manifest.
struct StreamManifest {
  std::vector<SegmentInfo> segments;
  std::uint64_t lines_total = 0;
  /// Entries lost to drop_oldest backpressure before they reached disk.
  std::uint64_t dropped = 0;
  std::uint64_t write_errors = 0;

  JsonValue ToJson() const;
  static StreamManifest FromJson(const JsonValue& value);

  friend bool operator==(const StreamManifest&,
                         const StreamManifest&) = default;
};

struct Manifest {
  std::string backpressure = "block";  // "block" | "drop_oldest"
  /// True once the final flush sealed every stream; a false value in a
  /// loaded manifest means the producing run is live or died mid-write
  /// after the last rotation.
  bool finalized = false;
  std::map<std::string, StreamManifest> streams;

  JsonValue ToJson() const;
  static Manifest FromJson(const JsonValue& value);

  /// Atomic rewrite of <dir>/manifest.json (tmp + rename); returns false
  /// (and notes a write error) on I/O failure.
  bool Write(const std::string& dir) const;
  /// Parses <dir>/manifest.json; returns false if missing/unreadable.
  static bool Load(const std::string& dir, Manifest* out);

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Indexes of segments whose [tick_min, tick_max] overlaps [lo, hi] —
/// the lazy-loading primitive trace_explorer uses for windowed reads.
std::vector<std::size_t> SelectSegmentsByTick(const StreamManifest& stream,
                                              double lo, double hi);
/// Same, by sequence-number range.
std::vector<std::size_t> SelectSegmentsBySeq(const StreamManifest& stream,
                                             std::uint64_t lo,
                                             std::uint64_t hi);

/// Size-capped rotating JSONL writer for one stream. Not thread-safe;
/// owned by the sink's writer thread.
class SegmentWriter {
 public:
  SegmentWriter(std::string dir, std::string prefix,
                std::size_t max_segment_bytes);

  /// Writes `line` + '\n', rotating to a fresh segment first when the
  /// line would push the current one past the byte cap (a line is never
  /// split; an oversized line gets a segment of its own). `seq` and
  /// `tick` feed the per-segment ranges in the manifest. Returns true
  /// when a new segment was opened (manifest rewrite due).
  bool Append(std::string_view line, std::uint64_t seq, double tick);

  /// Flushes the current segment's stream buffer to the OS.
  void Flush();
  /// Seals the current segment (further Appends open a new one).
  void Close();

  /// Manifest section describing everything written so far (the open
  /// segment included, with its live counts).
  const StreamManifest& Summary() const { return summary_; }
  std::uint64_t write_errors() const { return summary_.write_errors; }

 private:
  void OpenNextSegment();

  std::string dir_;
  std::string prefix_;
  std::size_t max_bytes_;
  std::ofstream out_;
  StreamManifest summary_;
  std::size_t next_index_ = 1;
};

// ---------------------------------------------------------------------------
// Wire helpers for the non-event streams.

/// One metrics-delta line: the changed entries of a registry snapshot
/// relative to the previous delta (counters/histograms as increments,
/// gauges as levels — see Snapshot::DeltaSince).
///
///   {"schema": "gaugur.obs.metrics_delta/v1", "seq": <n>, "tick": <t>,
///    "counters": {...}, "gauges": {...},
///    "histograms": {"<name>": {"count": <d>, "sum": <d>}}}
JsonValue MetricsDeltaToJson(const Snapshot& delta, std::uint64_t seq,
                             double tick);

/// One time-series line: a single ServerSample at full fidelity.
///
///   {"schema": "gaugur.obs.timeseries/v1", "seq": <n>,
///    "server": <s>, "tick": <t>, "slots": [...]}
JsonValue TimeseriesLineToJson(std::uint64_t seq, std::size_t server,
                               const ServerSample& sample);

struct TimeseriesPoint {
  std::uint64_t seq = 0;
  std::size_t server = 0;
  ServerSample sample;

  friend bool operator==(const TimeseriesPoint&,
                         const TimeseriesPoint&) = default;
};

/// Parses a timeseries-stream JSONL dump; throws std::logic_error
/// (GAUGUR_CHECK) on malformed lines or schema mismatches.
std::vector<TimeseriesPoint> ParseTimeseriesJsonl(std::string_view text);

}  // namespace gaugur::obs
