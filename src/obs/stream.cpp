#include "obs/stream.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace gaugur::obs {

void NoteWriteError(std::string_view what, const std::string& path) {
  // The counter handle is cached: write errors can fire from exit hooks
  // where registry mutation is still safe but repeated map lookups are
  // pointless.
  static Counter& errors =
      Registry::Global().GetCounter("obs.sink.write_errors");
  errors.Add(1);
  std::fprintf(stderr, "[obs] write error: cannot write %.*s to %s: %s\n",
               static_cast<int>(what.size()), what.data(), path.c_str(),
               std::strerror(errno));
}

// ---------------------------------------------------------------------------
// Manifest.

JsonValue SegmentInfo::ToJson() const {
  JsonObject object;
  object["file"] = file;
  object["lines"] = static_cast<unsigned long long>(lines);
  object["bytes"] = static_cast<unsigned long long>(bytes);
  object["seq_min"] = static_cast<unsigned long long>(seq_min);
  object["seq_max"] = static_cast<unsigned long long>(seq_max);
  object["tick_min"] = tick_min;
  object["tick_max"] = tick_max;
  return JsonValue(std::move(object));
}

SegmentInfo SegmentInfo::FromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsObject(), "segment must be a JSON object");
  SegmentInfo info;
  const JsonValue* file = value.Find("file");
  GAUGUR_CHECK_MSG(file != nullptr && file->IsString(),
                   "segment missing 'file'");
  info.file = file->AsString();
  const auto count = [&](const char* key) {
    return JsonIntegerField<std::uint64_t>(value, key);
  };
  const auto tick = [&](const char* key) {
    const JsonValue* v = value.Find(key);
    GAUGUR_CHECK_MSG(v != nullptr && v->IsNumber(),
                     "segment missing numeric field");
    return v->AsNumber();
  };
  info.lines = count("lines");
  info.bytes = count("bytes");
  info.seq_min = count("seq_min");
  info.seq_max = count("seq_max");
  info.tick_min = tick("tick_min");
  info.tick_max = tick("tick_max");
  return info;
}

JsonValue StreamManifest::ToJson() const {
  JsonObject object;
  JsonArray segment_array;
  segment_array.reserve(segments.size());
  for (const SegmentInfo& segment : segments) {
    segment_array.push_back(segment.ToJson());
  }
  object["segments"] = JsonValue(std::move(segment_array));
  object["lines_total"] = static_cast<unsigned long long>(lines_total);
  object["dropped"] = static_cast<unsigned long long>(dropped);
  object["write_errors"] = static_cast<unsigned long long>(write_errors);
  return JsonValue(std::move(object));
}

StreamManifest StreamManifest::FromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsObject(), "stream manifest must be an object");
  StreamManifest stream;
  const JsonValue* segments = value.Find("segments");
  GAUGUR_CHECK_MSG(segments != nullptr && segments->IsArray(),
                   "stream manifest missing 'segments'");
  for (const JsonValue& segment : segments->AsArray()) {
    stream.segments.push_back(SegmentInfo::FromJson(segment));
  }
  const auto num = [&](const char* key) {
    return JsonIntegerField<std::uint64_t>(value, key);
  };
  stream.lines_total = num("lines_total");
  stream.dropped = num("dropped");
  stream.write_errors = num("write_errors");
  return stream;
}

JsonValue Manifest::ToJson() const {
  JsonObject object;
  object["schema"] = kManifestSchema;
  object["backpressure"] = backpressure;
  object["finalized"] = finalized;
  JsonObject stream_map;
  for (const auto& [name, stream] : streams) {
    stream_map[name] = stream.ToJson();
  }
  object["streams"] = JsonValue(std::move(stream_map));
  return JsonValue(std::move(object));
}

Manifest Manifest::FromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsObject(), "manifest must be a JSON object");
  const JsonValue* schema = value.Find("schema");
  GAUGUR_CHECK_MSG(schema != nullptr && schema->IsString() &&
                       schema->AsString() == kManifestSchema,
                   "unknown manifest schema");
  Manifest manifest;
  const JsonValue* backpressure = value.Find("backpressure");
  GAUGUR_CHECK_MSG(backpressure != nullptr && backpressure->IsString(),
                   "manifest missing 'backpressure'");
  manifest.backpressure = backpressure->AsString();
  const JsonValue* finalized = value.Find("finalized");
  GAUGUR_CHECK_MSG(finalized != nullptr && finalized->IsBool(),
                   "manifest missing 'finalized'");
  manifest.finalized = finalized->AsBool();
  const JsonValue* streams = value.Find("streams");
  GAUGUR_CHECK_MSG(streams != nullptr && streams->IsObject(),
                   "manifest missing 'streams'");
  for (const auto& [name, stream] : streams->AsObject()) {
    manifest.streams[name] = StreamManifest::FromJson(stream);
  }
  return manifest;
}

bool Manifest::Write(const std::string& dir) const {
  const std::string path = dir + "/" + kManifestFileName;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) {
      NoteWriteError("manifest", tmp);
      return false;
    }
    out << ToJson().Dump(2) << '\n';
    out.flush();
    if (!out) {
      NoteWriteError("manifest", tmp);
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    NoteWriteError("manifest", path);
    return false;
  }
  return true;
}

bool Manifest::Load(const std::string& dir, Manifest* out) {
  const std::string path = dir + "/" + kManifestFileName;
  std::ifstream in(path);
  if (!in) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in && !in.eof()) return false;
  *out = FromJson(JsonValue::Parse(text));
  return true;
}

std::vector<std::size_t> SelectSegmentsByTick(const StreamManifest& stream,
                                              double lo, double hi) {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < stream.segments.size(); ++i) {
    const SegmentInfo& segment = stream.segments[i];
    if (segment.lines == 0) continue;
    if (segment.tick_max < lo || segment.tick_min > hi) continue;
    selected.push_back(i);
  }
  return selected;
}

std::vector<std::size_t> SelectSegmentsBySeq(const StreamManifest& stream,
                                             std::uint64_t lo,
                                             std::uint64_t hi) {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < stream.segments.size(); ++i) {
    const SegmentInfo& segment = stream.segments[i];
    if (segment.lines == 0) continue;
    if (segment.seq_max < lo || segment.seq_min > hi) continue;
    selected.push_back(i);
  }
  return selected;
}

// ---------------------------------------------------------------------------
// SegmentWriter.

SegmentWriter::SegmentWriter(std::string dir, std::string prefix,
                             std::size_t max_segment_bytes)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      max_bytes_(max_segment_bytes) {
  GAUGUR_CHECK_MSG(max_bytes_ > 0, "segment byte cap must be nonzero");
}

void SegmentWriter::OpenNextSegment() {
  char name[64];
  std::snprintf(name, sizeof(name), "%s-%05zu.jsonl", prefix_.c_str(),
                next_index_++);
  const std::string path = dir_ + "/" + name;
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) {
    NoteWriteError(prefix_, path);
    ++summary_.write_errors;
  }
  SegmentInfo segment;
  segment.file = name;
  summary_.segments.push_back(std::move(segment));
}

bool SegmentWriter::Append(std::string_view line, std::uint64_t seq,
                           double tick) {
  const std::uint64_t needed = line.size() + 1;  // trailing newline
  bool rotated = false;
  if (summary_.segments.empty() || !out_.is_open()) {
    OpenNextSegment();
    rotated = true;
  } else if (summary_.segments.back().bytes > 0 &&
             summary_.segments.back().bytes + needed > max_bytes_) {
    // Rotate BEFORE the line that would overflow: a line never spans two
    // segments, so concatenating segments reproduces the monolithic dump.
    out_.close();
    OpenNextSegment();
    rotated = true;
  }
  out_ << line << '\n';
  if (!out_) {
    NoteWriteError(prefix_, dir_ + "/" + summary_.segments.back().file);
    ++summary_.write_errors;
    out_.clear();  // keep the stream usable; the error is tallied
  }
  SegmentInfo& segment = summary_.segments.back();
  if (segment.lines == 0) {
    segment.seq_min = seq;
    segment.tick_min = tick;
    segment.tick_max = tick;
  }
  segment.seq_max = seq;
  segment.tick_min = std::min(segment.tick_min, tick);
  segment.tick_max = std::max(segment.tick_max, tick);
  ++segment.lines;
  segment.bytes += needed;
  ++summary_.lines_total;
  return rotated;
}

void SegmentWriter::Flush() {
  if (out_.is_open()) out_.flush();
}

void SegmentWriter::Close() {
  if (out_.is_open()) out_.close();
}

// ---------------------------------------------------------------------------
// Wire helpers.

JsonValue MetricsDeltaToJson(const Snapshot& delta, std::uint64_t seq,
                             double tick) {
  JsonObject object;
  object["schema"] = kMetricsDeltaSchema;
  object["seq"] = static_cast<unsigned long long>(seq);
  object["tick"] = tick;
  JsonObject counters;
  for (const auto& [name, value] : delta.counters) {
    counters[name] = static_cast<unsigned long long>(value);
  }
  object["counters"] = JsonValue(std::move(counters));
  JsonObject gauges;
  for (const auto& [name, value] : delta.gauges) {
    gauges[name] = static_cast<long long>(value);
  }
  object["gauges"] = JsonValue(std::move(gauges));
  JsonObject histograms;
  for (const auto& [name, hist] : delta.histograms) {
    JsonObject entry;
    entry["count"] = static_cast<unsigned long long>(hist.count);
    entry["sum"] = hist.sum;
    histograms[name] = JsonValue(std::move(entry));
  }
  object["histograms"] = JsonValue(std::move(histograms));
  return JsonValue(std::move(object));
}

JsonValue TimeseriesLineToJson(std::uint64_t seq, std::size_t server,
                               const ServerSample& sample) {
  JsonObject object;
  object["schema"] = kTimeseriesSchema;
  object["seq"] = static_cast<unsigned long long>(seq);
  object["server"] = static_cast<unsigned long long>(server);
  object["tick"] = sample.tick;
  object["slots"] = SlotSamplesToJson(sample.slots);
  return JsonValue(std::move(object));
}

std::vector<TimeseriesPoint> ParseTimeseriesJsonl(std::string_view text) {
  std::vector<TimeseriesPoint> points;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const JsonValue value = JsonValue::Parse(line);
    GAUGUR_CHECK_MSG(value.IsObject(), "timeseries line must be an object");
    const JsonValue* schema = value.Find("schema");
    GAUGUR_CHECK_MSG(schema != nullptr && schema->IsString() &&
                         schema->AsString() == kTimeseriesSchema,
                     "unknown timeseries schema");
    TimeseriesPoint point;
    point.seq = JsonIntegerField<std::uint64_t>(value, "seq");
    point.server = JsonIntegerField<std::size_t>(value, "server");
    const JsonValue* tick = value.Find("tick");
    GAUGUR_CHECK_MSG(tick != nullptr && tick->IsNumber(),
                     "timeseries line missing 'tick'");
    point.sample.tick = tick->AsNumber();
    const JsonValue* slots = value.Find("slots");
    GAUGUR_CHECK_MSG(slots != nullptr && slots->IsArray(),
                     "timeseries line missing 'slots'");
    point.sample.slots = SlotSamplesFromJson(*slots);
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace gaugur::obs
