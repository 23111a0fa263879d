#include "obs/forensics.h"

#include <unordered_set>

#include "common/check.h"

namespace gaugur::obs {

namespace {

std::uint64_t FieldU64(const JsonObject& fields, const char* key) {
  auto it = fields.find(key);
  if (it == fields.end() || !it->second.IsNumber()) return 0;
  return JsonInteger<std::uint64_t>(&it->second, key);
}

double FieldF64(const JsonObject& fields, const char* key) {
  auto it = fields.find(key);
  if (it == fields.end() || !it->second.IsNumber()) return 0.0;
  return it->second.AsNumber();
}

int FieldInt(const JsonObject& fields, const char* key, int fallback) {
  auto it = fields.find(key);
  if (it == fields.end() || !it->second.IsNumber()) return fallback;
  return JsonInteger<int>(&it->second, key);
}

std::string FieldString(const JsonObject& fields, const char* key) {
  auto it = fields.find(key);
  if (it == fields.end() || !it->second.IsString()) return {};
  return it->second.AsString();
}

double OptF64(const JsonValue& doc, const char* key) {
  const JsonValue* value = doc.Find(key);
  GAUGUR_CHECK_MSG(value != nullptr && value->IsNumber(),
                   "forensics: expected a numeric field");
  return value->AsNumber();
}

}  // namespace

JsonValue ViolationRecap::ToJson() const {
  JsonObject object;
  object["seq"] = static_cast<unsigned long long>(seq);
  object["decision_id"] = static_cast<unsigned long long>(decision_id);
  object["server"] = static_cast<unsigned long long>(server);
  object["tick"] = tick;
  object["victim_game"] = static_cast<long long>(victim_game);
  object["realized_fps"] = realized_fps;
  object["qos_fps"] = qos_fps;
  object["dominant_resource"] = dominant_resource;
  object["offender_game"] = static_cast<long long>(offender_game);
  return JsonValue(std::move(object));
}

ViolationRecap ViolationRecap::FromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsObject(), "violation recap must be an object");
  ViolationRecap recap;
  recap.seq = JsonIntegerField<std::uint64_t>(value, "seq");
  recap.decision_id = JsonIntegerField<std::uint64_t>(value, "decision_id");
  recap.server = JsonIntegerField<std::uint64_t>(value, "server");
  recap.tick = OptF64(value, "tick");
  recap.victim_game = static_cast<int>(OptF64(value, "victim_game"));
  recap.realized_fps = OptF64(value, "realized_fps");
  recap.qos_fps = OptF64(value, "qos_fps");
  const JsonValue* resource = value.Find("dominant_resource");
  GAUGUR_CHECK_MSG(resource != nullptr && resource->IsString(),
                   "violation recap missing 'dominant_resource'");
  recap.dominant_resource = resource->AsString();
  recap.offender_game = static_cast<int>(OptF64(value, "offender_game"));
  return recap;
}

JsonValue ForensicsSummary::ToJson() const {
  JsonObject doc;
  doc["events"] = static_cast<unsigned long long>(events);
  doc["events_dropped"] = static_cast<unsigned long long>(events_dropped);
  JsonObject by_kind;
  for (const auto& [kind, count] : events_by_kind) {
    by_kind[kind] = static_cast<unsigned long long>(count);
  }
  doc["events_by_kind"] = JsonValue(std::move(by_kind));
  doc["decisions"] = static_cast<unsigned long long>(decisions);
  doc["violations"] = static_cast<unsigned long long>(violations);
  doc["violations_linked"] =
      static_cast<unsigned long long>(violations_linked);
  JsonArray recaps;
  for (const ViolationRecap& recap : recent_violations) {
    recaps.push_back(recap.ToJson());
  }
  doc["recent_violations"] = JsonValue(std::move(recaps));
  JsonObject timeseries;
  timeseries["servers"] = static_cast<unsigned long long>(ts_servers);
  timeseries["samples_seen"] =
      static_cast<unsigned long long>(ts_samples_seen);
  timeseries["samples_kept"] =
      static_cast<unsigned long long>(ts_samples_kept);
  doc["timeseries"] = JsonValue(std::move(timeseries));
  return JsonValue(std::move(doc));
}

ForensicsSummary ForensicsSummary::FromJson(const JsonValue& doc) {
  GAUGUR_CHECK_MSG(doc.IsObject(), "forensics section must be an object");
  ForensicsSummary summary;
  summary.events = JsonIntegerField<std::uint64_t>(doc, "events");
  summary.events_dropped =
      JsonIntegerField<std::uint64_t>(doc, "events_dropped");
  const JsonValue* by_kind = doc.Find("events_by_kind");
  GAUGUR_CHECK_MSG(by_kind != nullptr && by_kind->IsObject(),
                   "forensics missing 'events_by_kind' object");
  for (const auto& [kind, count] : by_kind->AsObject()) {
    summary.events_by_kind[kind] =
        JsonInteger<std::uint64_t>(&count, "event-kind count");
  }
  summary.decisions = JsonIntegerField<std::uint64_t>(doc, "decisions");
  summary.violations = JsonIntegerField<std::uint64_t>(doc, "violations");
  summary.violations_linked =
      JsonIntegerField<std::uint64_t>(doc, "violations_linked");
  const JsonValue* recaps = doc.Find("recent_violations");
  GAUGUR_CHECK_MSG(recaps != nullptr && recaps->IsArray(),
                   "forensics missing 'recent_violations' array");
  for (const JsonValue& recap : recaps->AsArray()) {
    summary.recent_violations.push_back(ViolationRecap::FromJson(recap));
  }
  const JsonValue* timeseries = doc.Find("timeseries");
  GAUGUR_CHECK_MSG(timeseries != nullptr && timeseries->IsObject(),
                   "forensics missing 'timeseries' object");
  summary.ts_servers = JsonIntegerField<std::uint64_t>(*timeseries, "servers");
  summary.ts_samples_seen =
      JsonIntegerField<std::uint64_t>(*timeseries, "samples_seen");
  summary.ts_samples_kept =
      JsonIntegerField<std::uint64_t>(*timeseries, "samples_kept");
  return summary;
}

ForensicsSummary BuildForensics(std::span<const Event> events,
                                std::uint64_t dropped,
                                const FleetTimeSeries::Summary& timeseries,
                                std::size_t max_recaps) {
  ForensicsSummary summary;
  summary.events = events.size();
  summary.events_dropped = dropped;
  summary.ts_servers = timeseries.servers;
  summary.ts_samples_seen = timeseries.samples_seen;
  summary.ts_samples_kept = timeseries.samples_kept;

  std::unordered_set<std::uint64_t> decision_ids;
  for (const Event& event : events) {
    ++summary.events_by_kind[EventKindName(event.kind)];
    if (event.kind == EventKind::kDecision) {
      ++summary.decisions;
      decision_ids.insert(event.decision_id);
    }
  }
  for (const Event& event : events) {
    if (event.kind != EventKind::kQosViolation) continue;
    ++summary.violations;
    if (event.decision_id != 0 && decision_ids.count(event.decision_id)) {
      ++summary.violations_linked;
    }
    ViolationRecap recap;
    recap.seq = event.seq;
    recap.decision_id = event.decision_id;
    recap.server = FieldU64(event.fields, "server");
    recap.tick = event.tick;
    recap.victim_game = FieldInt(event.fields, "victim_game", -1);
    recap.realized_fps = FieldF64(event.fields, "realized_fps");
    recap.qos_fps = FieldF64(event.fields, "qos_fps");
    recap.dominant_resource = FieldString(event.fields, "dominant_resource");
    recap.offender_game = FieldInt(event.fields, "offender_game", -1);
    summary.recent_violations.push_back(std::move(recap));
    if (summary.recent_violations.size() > max_recaps) {
      summary.recent_violations.erase(summary.recent_violations.begin());
    }
  }
  return summary;
}

}  // namespace gaugur::obs
