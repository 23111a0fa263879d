#include "obs/timeseries.h"

#include <algorithm>

#include "common/check.h"
#include "obs/switch.h"

namespace gaugur::obs {

JsonValue SlotSamplesToJson(const std::vector<SlotSample>& slots) {
  JsonArray array;
  array.reserve(slots.size());
  for (const SlotSample& slot : slots) {
    JsonObject slot_json;
    slot_json["game_id"] = static_cast<long long>(slot.game_id);
    slot_json["fps"] = slot.fps;
    JsonArray pressure;
    for (double p : slot.pressure) pressure.push_back(JsonValue(p));
    slot_json["pressure"] = JsonValue(std::move(pressure));
    array.push_back(JsonValue(std::move(slot_json)));
  }
  return JsonValue(std::move(array));
}

std::vector<SlotSample> SlotSamplesFromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsArray(), "slots must be a JSON array");
  std::vector<SlotSample> slots;
  slots.reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    GAUGUR_CHECK_MSG(entry.IsObject(), "slot must be a JSON object");
    SlotSample slot;
    slot.game_id = JsonIntegerField<int>(entry, "game_id");
    const JsonValue* fps = entry.Find("fps");
    GAUGUR_CHECK_MSG(fps != nullptr && fps->IsNumber(),
                     "slot missing numeric 'fps'");
    slot.fps = fps->AsNumber();
    const JsonValue* pressure = entry.Find("pressure");
    GAUGUR_CHECK_MSG(pressure != nullptr && pressure->IsArray(),
                     "slot missing 'pressure' array");
    for (const JsonValue& p : pressure->AsArray()) {
      GAUGUR_CHECK_MSG(p.IsNumber(), "pressure entry must be a number");
      slot.pressure.push_back(p.AsNumber());
    }
    slots.push_back(std::move(slot));
  }
  return slots;
}

FleetTimeSeries::FleetTimeSeries(TimeSeriesConfig config) {
  Configure(config);
}

FleetTimeSeries& FleetTimeSeries::Global() {
  static FleetTimeSeries* series = new FleetTimeSeries();
  return *series;
}

void FleetTimeSeries::Configure(TimeSeriesConfig config) {
  GAUGUR_CHECK_MSG(config.capacity_per_server >= 2,
                   "time series needs capacity >= 2");
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  series_.clear();
  samples_seen_ = 0;
}

void FleetTimeSeries::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
  samples_seen_ = 0;
  staging_.clear();
  sealed_.clear();
  stream_dropped_ = 0;
}

void FleetTimeSeries::SetStreaming(bool streaming, std::size_t seal_after) {
  GAUGUR_CHECK_MSG(seal_after > 0, "seal_after must be nonzero");
  std::lock_guard<std::mutex> lock(mutex_);
  streaming_ = streaming;
  seal_after_ = seal_after;
  if (!streaming) {
    staging_.clear();
    sealed_.clear();
  }
}

void FleetTimeSeries::SealLocked(std::size_t server,
                                 std::vector<ServerSample>* staged) {
  SealedSeriesSegment segment;
  segment.server = server;
  segment.samples = std::move(*staged);
  staged->clear();
  sealed_.push_back(std::move(segment));
  while (sealed_.size() > kMaxSealedSegments) {
    stream_dropped_ += sealed_.front().samples.size();
    sealed_.pop_front();
  }
}

std::vector<SealedSeriesSegment> FleetTimeSeries::DrainSealed(
    bool seal_partial) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (seal_partial) {
    for (auto& [server, staged] : staging_) {
      if (!staged.empty()) SealLocked(server, &staged);
    }
  }
  std::vector<SealedSeriesSegment> drained(
      std::make_move_iterator(sealed_.begin()),
      std::make_move_iterator(sealed_.end()));
  sealed_.clear();
  return drained;
}

std::uint64_t FleetTimeSeries::StreamDropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stream_dropped_;
}

void FleetTimeSeries::Record(std::size_t server, ServerSample sample) {
  if (!Enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++samples_seen_;
  if (streaming_) {
    // Stage a full-fidelity copy BEFORE the thinning below: the stream
    // must carry what was recorded, not what the bounded ring kept.
    std::vector<ServerSample>& staged = staging_[server];
    staged.push_back(sample);
    if (staged.size() >= seal_after_) SealLocked(server, &staged);
  }
  ServerSeries& series = series_[server];
  series.last = sample;
  if (!series.samples.empty() &&
      sample.tick - series.samples.back().tick < series.min_gap) {
    return;
  }
  series.samples.push_back(std::move(sample));
  if (series.samples.size() > config_.capacity_per_server) {
    // Halving decimation: keep every other sample (newest included so the
    // most recent state survives), then double the minimum gap so the
    // thinned resolution is enforced for future appends too.
    std::vector<ServerSample> kept;
    kept.reserve(series.samples.size() / 2 + 1);
    for (std::size_t i = series.samples.size() % 2 == 0 ? 1 : 0;
         i < series.samples.size(); i += 2) {
      kept.push_back(std::move(series.samples[i]));
    }
    series.samples = std::move(kept);
    const double span =
        series.samples.back().tick - series.samples.front().tick;
    series.min_gap = std::max(
        series.min_gap * 2.0,
        span > 0.0 ? 2.0 * span / static_cast<double>(
                                      config_.capacity_per_server)
                   : 0.0);
    if (series.min_gap == 0.0) series.min_gap = 1e-9;
  }
}

std::vector<ServerSample> FleetTimeSeries::Series(std::size_t server) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(server);
  if (it == series_.end()) return {};
  return it->second.samples;
}

std::map<std::size_t, ServerSample> FleetTimeSeries::LatestSamples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::size_t, ServerSample> latest;
  for (const auto& [server, series] : series_) {
    latest[server] = series.last;
  }
  return latest;
}

std::vector<std::pair<std::size_t, double>> FleetTimeSeries::LatestMinFps()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::size_t, double>> latest;
  latest.reserve(series_.size());
  for (const auto& [server, series] : series_) {
    if (series.last.slots.empty()) continue;
    double min_fps = series.last.slots.front().fps;
    for (const SlotSample& slot : series.last.slots) {
      min_fps = std::min(min_fps, slot.fps);
    }
    latest.emplace_back(server, min_fps);
  }
  return latest;
}

std::size_t FleetTimeSeries::NumServers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

FleetTimeSeries::Summary FleetTimeSeries::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Summary summary;
  summary.servers = series_.size();
  summary.samples_seen = samples_seen_;
  for (const auto& [server, series] : series_) {
    summary.samples_kept += series.samples.size();
    summary.max_gap = std::max(summary.max_gap, series.min_gap);
  }
  return summary;
}

JsonValue FleetTimeSeries::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonObject servers;
  for (const auto& [server, series] : series_) {
    JsonArray samples;
    for (const ServerSample& sample : series.samples) {
      JsonObject entry;
      entry["tick"] = sample.tick;
      entry["slots"] = SlotSamplesToJson(sample.slots);
      samples.push_back(JsonValue(std::move(entry)));
    }
    servers[std::to_string(server)] = JsonValue(std::move(samples));
  }
  return JsonValue(std::move(servers));
}

}  // namespace gaugur::obs
