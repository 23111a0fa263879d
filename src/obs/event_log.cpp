#include "obs/event_log.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/stream.h"
#include "obs/switch.h"

namespace gaugur::obs {

namespace {

constexpr const char* kKindNames[kNumEventKinds] = {
    "decision", "arrival",       "departure", "power_on",
    "power_off", "qos_violation", "retrain",   "alert",
};

struct EventLogMetrics {
  Counter& appended = Registry::Global().GetCounter("obs.events_appended");
  Counter& dropped = Registry::Global().GetCounter("obs.events_dropped");
  Counter& sink_dropped = Registry::Global().GetCounter("obs.sink.dropped");

  static EventLogMetrics& Get() {
    static EventLogMetrics metrics;
    return metrics;
  }
};

constexpr std::string_view kCandidatesKey = "candidates";

JsonValue CandidatesToJson(const std::vector<DecisionCandidate>& candidates) {
  JsonArray array;
  array.reserve(candidates.size());
  for (const DecisionCandidate& c : candidates) {
    JsonObject entry;
    entry["cache_hits"] = static_cast<unsigned long long>(c.cache_hits);
    entry["feasible"] = c.feasible;
    entry["memory_ok"] = c.memory_ok;
    entry["min_margin"] = c.min_margin;
    entry["queries"] = static_cast<unsigned long long>(c.queries);
    array.push_back(JsonValue(std::move(entry)));
  }
  return JsonValue(std::move(array));
}

/// CandidatesToJson(candidates).Dump(), without the tree.
void AppendCandidates(std::string& out,
                      const std::vector<DecisionCandidate>& candidates) {
  out.push_back('[');
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const DecisionCandidate& c = candidates[i];
    out += i == 0 ? "{\"cache_hits\":" : ",{\"cache_hits\":";
    AppendJsonNumber(out, static_cast<double>(c.cache_hits));
    out += c.feasible ? ",\"feasible\":true" : ",\"feasible\":false";
    out += c.memory_ok ? ",\"memory_ok\":true" : ",\"memory_ok\":false";
    out += ",\"min_margin\":";
    AppendJsonNumber(out, c.min_margin);
    out += ",\"queries\":";
    AppendJsonNumber(out, static_cast<double>(c.queries));
    out.push_back('}');
  }
  out.push_back(']');
}

/// Reads a count written from a uint64: a number, integral, in range.
bool ReadCount(const JsonValue& value, std::uint64_t* out) {
  if (!value.IsNumber()) return false;
  const double d = value.AsNumber();
  if (!(d >= 0.0 && d < 0x1p64 && d == std::trunc(d))) return false;
  *out = static_cast<std::uint64_t>(d);
  return true;
}

/// Reads `value` as CandidatesToJson's output; false on any other shape.
bool ReadCandidates(const JsonValue& value,
                    std::vector<DecisionCandidate>* out) {
  if (!value.IsArray()) return false;
  out->reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    if (!entry.IsObject() || entry.AsObject().size() != 5) return false;
    const JsonValue* feasible = entry.Find("feasible");
    const JsonValue* memory_ok = entry.Find("memory_ok");
    const JsonValue* queries = entry.Find("queries");
    const JsonValue* cache_hits = entry.Find("cache_hits");
    const JsonValue* min_margin = entry.Find("min_margin");
    DecisionCandidate c;
    if (feasible == nullptr || !feasible->IsBool() || memory_ok == nullptr ||
        !memory_ok->IsBool() || queries == nullptr ||
        !ReadCount(*queries, &c.queries) || cache_hits == nullptr ||
        !ReadCount(*cache_hits, &c.cache_hits) || min_margin == nullptr ||
        !min_margin->IsNumber()) {
      return false;
    }
    c.feasible = feasible->AsBool();
    c.memory_ok = memory_ok->AsBool();
    c.min_margin = min_margin->AsNumber();
    out->push_back(c);
  }
  return true;
}

}  // namespace

const char* EventKindName(EventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  GAUGUR_CHECK_MSG(index < kNumEventKinds, "unknown EventKind");
  return kKindNames[index];
}

bool EventKindFromName(std::string_view name, EventKind* out) {
  for (std::size_t i = 0; i < kNumEventKinds; ++i) {
    if (name == kKindNames[i]) {
      *out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

JsonValue Event::ToJson() const& { return Event(*this).ToJson(); }

JsonValue Event::ToJson() && {
  if (candidates.has_value()) {
    fields[std::string(kCandidatesKey)] = CandidatesToJson(*candidates);
  }
  JsonObject object;
  object["schema"] = kEventSchema;
  object["seq"] = static_cast<unsigned long long>(seq);
  object["tick"] = tick;
  object["kind"] = EventKindName(kind);
  object["decision_id"] = static_cast<unsigned long long>(decision_id);
  object["fields"] = JsonValue(std::move(fields));
  return JsonValue(std::move(object));
}

void Event::AppendJson(std::string& out) const {
  // The members in ToJson's (sorted) key order.
  out += "{\"decision_id\":";
  AppendJsonNumber(out, static_cast<double>(decision_id));
  out += ",\"fields\":{";
  bool first = true;
  const auto key = [&](std::string_view name) {
    out += first ? "\"" : ",\"";
    first = false;
    AppendJsonEscaped(out, name);
    out += "\":";
  };
  bool candidates_due = candidates.has_value();
  for (const auto& [name, member] : fields) {
    if (candidates_due && name >= kCandidatesKey) {
      key(kCandidatesKey);
      AppendCandidates(out, *candidates);
      candidates_due = false;
    }
    if (candidates.has_value() && name == kCandidatesKey) continue;
    key(name);
    AppendJsonValue(out, member);
  }
  if (candidates_due) {
    key(kCandidatesKey);
    AppendCandidates(out, *candidates);
  }
  out += "},\"kind\":\"";
  out += EventKindName(kind);
  out += "\",\"schema\":\"";
  out += kEventSchema;
  out += "\",\"seq\":";
  AppendJsonNumber(out, static_cast<double>(seq));
  out += ",\"tick\":";
  AppendJsonNumber(out, tick);
  out.push_back('}');
}

Event Event::FromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsObject(), "event must be a JSON object");
  const JsonValue* schema = value.Find("schema");
  GAUGUR_CHECK_MSG(schema != nullptr && schema->IsString() &&
                       schema->AsString() == kEventSchema,
                   "unknown event schema");
  Event event;
  event.seq = JsonIntegerField<std::uint64_t>(value, "seq");
  const JsonValue* tick = value.Find("tick");
  GAUGUR_CHECK_MSG(tick != nullptr && tick->IsNumber(),
                   "event missing numeric 'tick'");
  event.tick = tick->AsNumber();
  const JsonValue* kind = value.Find("kind");
  GAUGUR_CHECK_MSG(kind != nullptr && kind->IsString(),
                   "event missing 'kind'");
  GAUGUR_CHECK_MSG(EventKindFromName(kind->AsString(), &event.kind),
                   "unknown event kind name");
  event.decision_id = JsonIntegerField<std::uint64_t>(value, "decision_id");
  const JsonValue* fields = value.Find("fields");
  GAUGUR_CHECK_MSG(fields != nullptr && fields->IsObject(),
                   "event missing 'fields' object");
  event.fields = fields->AsObject();
  const auto it = event.fields.find(std::string(kCandidatesKey));
  if (it != event.fields.end()) {
    std::vector<DecisionCandidate> candidates;
    if (ReadCandidates(it->second, &candidates)) {
      event.candidates = std::move(candidates);
      event.fields.erase(it);
    }
  }
  return event;
}

EventLog::EventLog(EventLogConfig config) { Configure(config); }

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Configure(EventLogConfig config) {
  GAUGUR_CHECK_MSG(config.shard_capacity > 0 && config.num_shards > 0,
                   "event log needs nonzero capacity and shards");
  config_ = config;
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards.push_back(std::make_unique<Shard>());
  }
  shards_ = std::move(shards);
  appended_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void EventLog::Clear() {
  for (const auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->ring.clear();
    }
    shard->space_freed.notify_all();
  }
  appended_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  stream_dropped_.store(0, std::memory_order_relaxed);
}

void EventLog::SetStreaming(bool streaming, OverflowPolicy policy) {
  // Flip the flags while holding every shard lock: an appender blocked
  // in the kBlock wait re-checks its predicate under its shard lock, so
  // publishing the detach under those locks (then notifying) cannot
  // miss a waiter that was between its predicate check and its sleep.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    streaming_.store(streaming, std::memory_order_relaxed);
    policy_.store(policy, std::memory_order_relaxed);
  }
  for (const auto& shard : shards_) shard->space_freed.notify_all();
}

void EventLog::Append(EventKind kind, double tick,
                      std::uint64_t decision_id, JsonObject fields,
                      std::optional<std::vector<DecisionCandidate>> candidates) {
  if (!Enabled()) return;
  Event event;
  event.tick = tick;
  event.kind = kind;
  event.decision_id = decision_id;
  event.fields = std::move(fields);
  event.candidates = std::move(candidates);
  Shard& shard = *shards_[detail::ThreadShard() % shards_.size()];
  bool dropped_one = false;
  bool streaming_drop = false;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (shard.ring.size() >= config_.shard_capacity &&
        streaming_.load(std::memory_order_relaxed) &&
        policy_.load(std::memory_order_relaxed) == OverflowPolicy::kBlock) {
      shard.space_freed.wait(lock, [&] {
        return shard.ring.size() < config_.shard_capacity ||
               !streaming_.load(std::memory_order_relaxed) ||
               policy_.load(std::memory_order_relaxed) !=
                   OverflowPolicy::kBlock;
      });
    }
    if (shard.ring.size() >= config_.shard_capacity) {
      shard.ring.pop_front();
      dropped_one = true;
      streaming_drop = streaming_.load(std::memory_order_relaxed);
    }
    // Seq is stamped under the shard lock: DrainSince holds all shard
    // locks for its cut, so no event can be in flight with an allocated
    // seq the drain's cursor advance would skip forever.
    event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    shard.ring.push_back(std::move(event));
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  EventLogMetrics::Get().appended.Add(1);
  if (dropped_one) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    EventLogMetrics::Get().dropped.Add(1);
    if (streaming_drop) {
      stream_dropped_.fetch_add(1, std::memory_order_relaxed);
      EventLogMetrics::Get().sink_dropped.Add(1);
    }
  }
}

std::vector<Event> EventLog::DrainSince(std::uint64_t cursor) {
  // All shard locks at once: the cut is atomic across shards, so the
  // returned batch is exactly the events with cursor < seq <= max(seq)
  // at the cut — no gaps, no duplicates on the next drain. Appenders
  // only ever take one shard lock, so ordered acquisition cannot
  // deadlock. The merge sort runs after the locks are released, so
  // appenders wait only for the cut itself.
  std::vector<Event> drained;
  {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
    for (const auto& shard : shards_) {
      // Within a shard the ring is seq-ascending (seq stamped under the
      // shard lock), so the survivors form a prefix.
      auto& ring = shard->ring;
      auto first = ring.begin();
      while (first != ring.end() && first->seq <= cursor) ++first;
      drained.insert(drained.end(), std::make_move_iterator(first),
                     std::make_move_iterator(ring.end()));
      ring.erase(first, ring.end());
      shard->space_freed.notify_all();
    }
  }
  std::sort(drained.begin(), drained.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return drained;
}

std::size_t EventLog::Residency() const {
  std::size_t resident = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    resident += shard->ring.size();
  }
  return resident;
}

std::vector<Event> EventLog::Snapshot() const {
  std::vector<Event> merged;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    merged.insert(merged.end(), shard->ring.begin(), shard->ring.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return merged;
}

std::string EventLog::ToJsonl() const {
  std::string out;
  for (const Event& event : Snapshot()) {
    event.AppendJson(out);
    out.push_back('\n');
  }
  return out;
}

bool EventLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    NoteWriteError("event log", path);
    return false;
  }
  out << ToJsonl();
  out.flush();
  if (!out) {
    NoteWriteError("event log", path);
    return false;
  }
  return true;
}

std::vector<Event> EventLog::ParseJsonl(std::string_view text) {
  std::vector<Event> events;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    events.push_back(Event::FromJson(JsonValue::Parse(line)));
  }
  return events;
}

bool EventLog::ReadJsonl(const std::string& path, std::vector<Event>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = ParseJsonl(text.str());
  return true;
}

}  // namespace gaugur::obs
