#include "obs/latency_profiler.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"

namespace gaugur::obs {

namespace {

constexpr std::array<std::string_view, kNumPhases> kPhaseNames = {
    "candidate_enum", "colocation_hash", "feature_build", "cache_lookup",
    "kernel_eval",    "policy_select",   "event_emit",
};

/// Fleet-level phase histograms, registered once in the global Registry
/// so phase summaries stream through the TelemetrySink metrics-delta
/// mechanism like every other metric. Same grid as sched.decision_us.
struct PhaseHistograms {
  std::array<Histogram*, kNumPhases> phase;
  Histogram* barrier_wait;
  Histogram* cache_lock_wait;

  static PhaseHistograms& Get() {
    static PhaseHistograms instance = [] {
      PhaseHistograms h{};
      auto& registry = Registry::Global();
      const auto bounds = Histogram::ExponentialBounds(1.0, 2.0, 16);
      for (std::size_t i = 0; i < kNumPhases; ++i) {
        h.phase[i] = &registry.GetHistogram(
            "sched.phase." + std::string(kPhaseNames[i]) + "_us", bounds);
      }
      h.barrier_wait =
          &registry.GetHistogram("sched.barrier_wait_us", bounds);
      h.cache_lock_wait =
          &registry.GetHistogram("gaugur.cache.lock_wait_us", bounds);
      return h;
    }();
    return instance;
  }
};

void AtomicMaxDouble(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

double GetNum(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  GAUGUR_CHECK_MSG(value != nullptr && value->IsNumber(),
                   "profile section: missing number field");
  return value->AsNumber();
}

/// Phase maps serialize as {"<phase_name>": <value-or-object>, ...} so
/// the JSON is self-describing; parsing goes through PhaseFromName.
template <typename PerPhase>
JsonObject PhaseMapToJson(const std::array<PerPhase, kNumPhases>& phases,
                          JsonValue (*to_json)(const PerPhase&)) {
  JsonObject object;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    object[std::string(kPhaseNames[i])] = to_json(phases[i]);
  }
  return object;
}

template <typename PerPhase>
std::array<PerPhase, kNumPhases> PhaseMapFromJson(
    const JsonValue& value, PerPhase (*from_json)(const JsonValue&)) {
  GAUGUR_CHECK_MSG(value.IsObject(), "profile section: phases not an object");
  std::array<PerPhase, kNumPhases> phases{};
  for (const auto& [name, entry] : value.AsObject()) {
    Phase phase;
    GAUGUR_CHECK_MSG(PhaseFromName(name, &phase),
                     "profile section: unknown phase name");
    phases[static_cast<std::size_t>(phase)] = from_json(entry);
  }
  return phases;
}

}  // namespace

std::string_view PhaseName(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

bool PhaseFromName(std::string_view name, Phase* out) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (kPhaseNames[i] == name) {
      *out = static_cast<Phase>(i);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Summary serialization

JsonValue PhaseStats::ToJson() const {
  JsonObject object;
  object["count"] = static_cast<unsigned long long>(count);
  object["total_us"] = total_us;
  object["max_us"] = max_us;
  return JsonValue(std::move(object));
}

PhaseStats PhaseStats::FromJson(const JsonValue& value) {
  PhaseStats stats;
  stats.count = JsonIntegerField<std::uint64_t>(value, "count");
  stats.total_us = GetNum(value, "total_us");
  stats.max_us = GetNum(value, "max_us");
  return stats;
}

JsonValue ShardProfile::ToJson() const {
  JsonObject object;
  object["shard"] = static_cast<unsigned long long>(shard);
  object["decisions"] = static_cast<unsigned long long>(decisions);
  object["phases"] = JsonValue(PhaseMapToJson<PhaseStats>(
      phases, [](const PhaseStats& stats) { return stats.ToJson(); }));
  object["barrier_waits"] = static_cast<unsigned long long>(barrier_waits);
  object["barrier_wait_us"] = barrier_wait_us;
  object["window_busy_us"] = window_busy_us;
  return JsonValue(std::move(object));
}

ShardProfile ShardProfile::FromJson(const JsonValue& value) {
  ShardProfile profile;
  profile.shard = JsonIntegerField<std::uint64_t>(value, "shard");
  profile.decisions = JsonIntegerField<std::uint64_t>(value, "decisions");
  const JsonValue* phases = value.Find("phases");
  GAUGUR_CHECK_MSG(phases != nullptr, "profile shard: missing phases");
  profile.phases = PhaseMapFromJson<PhaseStats>(*phases, &PhaseStats::FromJson);
  profile.barrier_waits =
      JsonIntegerField<std::uint64_t>(value, "barrier_waits");
  profile.barrier_wait_us = GetNum(value, "barrier_wait_us");
  profile.window_busy_us = GetNum(value, "window_busy_us");
  return profile;
}

JsonValue WindowImbalance::ToJson() const {
  JsonObject object;
  object["windows"] = static_cast<unsigned long long>(windows);
  object["spread_total_us"] = spread_total_us;
  object["spread_max_us"] = spread_max_us;
  return JsonValue(std::move(object));
}

WindowImbalance WindowImbalance::FromJson(const JsonValue& value) {
  WindowImbalance imbalance;
  imbalance.windows = JsonIntegerField<std::uint64_t>(value, "windows");
  imbalance.spread_total_us = GetNum(value, "spread_total_us");
  imbalance.spread_max_us = GetNum(value, "spread_max_us");
  return imbalance;
}

JsonValue CacheContention::ToJson() const {
  JsonObject object;
  object["acquisitions"] = static_cast<unsigned long long>(acquisitions);
  object["contended"] = static_cast<unsigned long long>(contended);
  object["wait_us"] = wait_us;
  object["wait_max_us"] = wait_max_us;
  return JsonValue(std::move(object));
}

CacheContention CacheContention::FromJson(const JsonValue& value) {
  CacheContention contention;
  contention.acquisitions =
      JsonIntegerField<std::uint64_t>(value, "acquisitions");
  contention.contended = JsonIntegerField<std::uint64_t>(value, "contended");
  contention.wait_us = GetNum(value, "wait_us");
  contention.wait_max_us = GetNum(value, "wait_max_us");
  return contention;
}

JsonValue TailExemplar::ToJson() const {
  JsonObject object;
  object["decision_id"] = static_cast<unsigned long long>(decision_id);
  object["tick"] = tick;
  object["shard"] = static_cast<unsigned long long>(shard);
  object["total_us"] = total_us;
  object["phase_us"] = JsonValue(PhaseMapToJson<double>(
      phase_us, [](const double& us) { return JsonValue(us); }));
  return JsonValue(std::move(object));
}

TailExemplar TailExemplar::FromJson(const JsonValue& value) {
  TailExemplar exemplar;
  exemplar.decision_id = JsonIntegerField<std::uint64_t>(value, "decision_id");
  exemplar.tick = GetNum(value, "tick");
  exemplar.shard = JsonIntegerField<std::uint64_t>(value, "shard");
  exemplar.total_us = GetNum(value, "total_us");
  const JsonValue* phases = value.Find("phase_us");
  GAUGUR_CHECK_MSG(phases != nullptr, "profile exemplar: missing phase_us");
  exemplar.phase_us = PhaseMapFromJson<double>(
      *phases, [](const JsonValue& us) {
        GAUGUR_CHECK_MSG(us.IsNumber(), "profile exemplar: phase not number");
        return us.AsNumber();
      });
  return exemplar;
}

JsonValue LatencyProfileSummary::ToJson() const {
  JsonObject object;
  object["decisions"] = static_cast<unsigned long long>(decisions);
  object["fleet"] = JsonValue(PhaseMapToJson<PhaseStats>(
      fleet, [](const PhaseStats& stats) { return stats.ToJson(); }));
  JsonArray shard_array;
  shard_array.reserve(shards.size());
  for (const auto& shard : shards) shard_array.push_back(shard.ToJson());
  object["shards"] = JsonValue(std::move(shard_array));
  object["imbalance"] = imbalance.ToJson();
  object["cache"] = cache.ToJson();
  JsonArray exemplar_array;
  exemplar_array.reserve(exemplars.size());
  for (const auto& exemplar : exemplars) {
    exemplar_array.push_back(exemplar.ToJson());
  }
  object["exemplars"] = JsonValue(std::move(exemplar_array));
  return JsonValue(std::move(object));
}

LatencyProfileSummary LatencyProfileSummary::FromJson(const JsonValue& value) {
  GAUGUR_CHECK_MSG(value.IsObject(), "profile section: not an object");
  LatencyProfileSummary summary;
  summary.decisions = JsonIntegerField<std::uint64_t>(value, "decisions");
  const JsonValue* fleet = value.Find("fleet");
  GAUGUR_CHECK_MSG(fleet != nullptr, "profile section: missing fleet");
  summary.fleet = PhaseMapFromJson<PhaseStats>(*fleet, &PhaseStats::FromJson);
  const JsonValue* shards = value.Find("shards");
  GAUGUR_CHECK_MSG(shards != nullptr && shards->IsArray(),
                   "profile section: missing shards");
  for (const auto& shard : shards->AsArray()) {
    summary.shards.push_back(ShardProfile::FromJson(shard));
  }
  const JsonValue* imbalance = value.Find("imbalance");
  GAUGUR_CHECK_MSG(imbalance != nullptr, "profile section: missing imbalance");
  summary.imbalance = WindowImbalance::FromJson(*imbalance);
  const JsonValue* cache = value.Find("cache");
  GAUGUR_CHECK_MSG(cache != nullptr, "profile section: missing cache");
  summary.cache = CacheContention::FromJson(*cache);
  const JsonValue* exemplars = value.Find("exemplars");
  GAUGUR_CHECK_MSG(exemplars != nullptr && exemplars->IsArray(),
                   "profile section: missing exemplars");
  for (const auto& exemplar : exemplars->AsArray()) {
    summary.exemplars.push_back(TailExemplar::FromJson(exemplar));
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Recorder

namespace detail {

DecisionScratch& TlsScratch() {
  thread_local DecisionScratch scratch;
  return scratch;
}

}  // namespace detail

LatencyProfiler::LatencyProfiler() {
  exemplars_.reserve(kTailExemplars);
}

LatencyProfiler& LatencyProfiler::Global() {
  static LatencyProfiler instance;
  return instance;
}

void LatencyProfiler::BeginDecision(std::size_t shard) {
  if (!Active()) return;
  auto& scratch = detail::TlsScratch();
  scratch.active = true;
  scratch.shard_slot = static_cast<std::uint32_t>(shard % kMaxShardSlots);
  scratch.depth = 0;
  scratch.exclusive_us.fill(0.0);
  scratch.activations.fill(0);
}

void LatencyProfiler::EndDecision(std::uint64_t decision_id, double tick) {
  auto& scratch = detail::TlsScratch();
  if (!scratch.active) return;
  scratch.active = false;

  ShardSlab& slab = slabs_[scratch.shard_slot];
  slab.decisions.fetch_add(1, std::memory_order_relaxed);
  auto& histograms = PhaseHistograms::Get();
  double total_us = 0.0;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (scratch.activations[i] == 0) continue;
    const double us = scratch.exclusive_us[i];
    total_us += us;
    slab.phase_count[i].fetch_add(scratch.activations[i],
                                  std::memory_order_relaxed);
    slab.phase_total_us[i].fetch_add(us, std::memory_order_relaxed);
    AtomicMaxDouble(slab.phase_max_us[i], us);
    histograms.phase[i]->Record(us);
  }

  if (total_us > exemplar_floor_.load(std::memory_order_relaxed)) {
    TailExemplar exemplar;
    exemplar.decision_id = decision_id;
    exemplar.tick = tick;
    exemplar.shard = scratch.shard_slot;
    exemplar.total_us = total_us;
    exemplar.phase_us = scratch.exclusive_us;
    ConsiderExemplar(exemplar);
  }
}

void LatencyProfiler::ConsiderExemplar(const TailExemplar& exemplar) {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (exemplars_.size() < kTailExemplars) {
    exemplars_.push_back(exemplar);
  } else {
    auto slowest_min = std::min_element(
        exemplars_.begin(), exemplars_.end(),
        [](const TailExemplar& a, const TailExemplar& b) {
          return a.total_us < b.total_us;
        });
    if (exemplar.total_us <= slowest_min->total_us) return;
    *slowest_min = exemplar;
  }
  if (exemplars_.size() == kTailExemplars) {
    double floor = exemplars_.front().total_us;
    for (const auto& kept : exemplars_) {
      floor = std::min(floor, kept.total_us);
    }
    exemplar_floor_.store(floor, std::memory_order_relaxed);
  }
}

void LatencyProfiler::RecordBarrierWait(std::size_t shard, double wait_us) {
  if (!Active()) return;
  ShardSlab& slab = slabs_[shard % kMaxShardSlots];
  slab.barrier_waits.fetch_add(1, std::memory_order_relaxed);
  slab.barrier_wait_us.fetch_add(wait_us, std::memory_order_relaxed);
  PhaseHistograms::Get().barrier_wait->Record(wait_us);
}

void LatencyProfiler::RecordWindow(std::span<const double> shard_busy_us) {
  if (!Active() || shard_busy_us.empty()) return;
  double min_us = shard_busy_us[0];
  double max_us = shard_busy_us[0];
  for (std::size_t shard = 0; shard < shard_busy_us.size(); ++shard) {
    const double busy = shard_busy_us[shard];
    min_us = std::min(min_us, busy);
    max_us = std::max(max_us, busy);
    slabs_[shard % kMaxShardSlots].window_busy_us.fetch_add(
        busy, std::memory_order_relaxed);
  }
  const double spread = max_us - min_us;
  std::lock_guard<std::mutex> lock(window_mutex_);
  imbalance_.windows += 1;
  imbalance_.spread_total_us += spread;
  imbalance_.spread_max_us = std::max(imbalance_.spread_max_us, spread);
}

void LatencyProfiler::RecordCacheAcquisition(double wait_us, bool contended) {
  cache_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (!contended) return;
  cache_contended_.fetch_add(1, std::memory_order_relaxed);
  cache_wait_us_.fetch_add(wait_us, std::memory_order_relaxed);
  AtomicMaxDouble(cache_wait_max_us_, wait_us);
  PhaseHistograms::Get().cache_lock_wait->Record(wait_us);
}

void LatencyProfiler::Reset() {
  for (auto& slab : slabs_) {
    slab.decisions.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      slab.phase_count[i].store(0, std::memory_order_relaxed);
      slab.phase_total_us[i].store(0.0, std::memory_order_relaxed);
      slab.phase_max_us[i].store(0.0, std::memory_order_relaxed);
    }
    slab.barrier_waits.store(0, std::memory_order_relaxed);
    slab.barrier_wait_us.store(0.0, std::memory_order_relaxed);
    slab.window_busy_us.store(0.0, std::memory_order_relaxed);
  }
  cache_acquisitions_.store(0, std::memory_order_relaxed);
  cache_contended_.store(0, std::memory_order_relaxed);
  cache_wait_us_.store(0.0, std::memory_order_relaxed);
  cache_wait_max_us_.store(0.0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    imbalance_ = WindowImbalance{};
  }
  {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    exemplars_.clear();
    exemplar_floor_.store(-1.0, std::memory_order_relaxed);
  }
}

LatencyProfileSummary LatencyProfiler::Summary() const {
  LatencyProfileSummary summary;
  for (std::size_t slot = 0; slot < kMaxShardSlots; ++slot) {
    const ShardSlab& slab = slabs_[slot];
    ShardProfile profile;
    profile.shard = slot;
    profile.decisions = slab.decisions.load(std::memory_order_relaxed);
    profile.barrier_waits = slab.barrier_waits.load(std::memory_order_relaxed);
    profile.barrier_wait_us =
        slab.barrier_wait_us.load(std::memory_order_relaxed);
    profile.window_busy_us =
        slab.window_busy_us.load(std::memory_order_relaxed);
    bool any_phase = false;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      PhaseStats& stats = profile.phases[i];
      stats.count = slab.phase_count[i].load(std::memory_order_relaxed);
      stats.total_us = slab.phase_total_us[i].load(std::memory_order_relaxed);
      stats.max_us = slab.phase_max_us[i].load(std::memory_order_relaxed);
      any_phase |= stats.count > 0;
    }
    if (profile.decisions == 0 && profile.barrier_waits == 0 && !any_phase &&
        profile.window_busy_us == 0.0) {
      continue;
    }
    summary.decisions += profile.decisions;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      const PhaseStats& stats = profile.phases[i];
      summary.fleet[i].count += stats.count;
      summary.fleet[i].total_us += stats.total_us;
      summary.fleet[i].max_us =
          std::max(summary.fleet[i].max_us, stats.max_us);
    }
    summary.shards.push_back(std::move(profile));
  }
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    summary.imbalance = imbalance_;
  }
  summary.cache.acquisitions =
      cache_acquisitions_.load(std::memory_order_relaxed);
  summary.cache.contended = cache_contended_.load(std::memory_order_relaxed);
  summary.cache.wait_us = cache_wait_us_.load(std::memory_order_relaxed);
  summary.cache.wait_max_us =
      cache_wait_max_us_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(exemplar_mutex_);
    summary.exemplars = exemplars_;
  }
  std::sort(summary.exemplars.begin(), summary.exemplars.end(),
            [](const TailExemplar& a, const TailExemplar& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.decision_id < b.decision_id;
            });
  return summary;
}

}  // namespace gaugur::obs
