#include "obs/model_monitor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "obs/metrics.h"

namespace gaugur::obs {

namespace {

/// Live registry mirrors of the monitor's tallies, so dashboards that
/// only scrape the metric registry still see model health.
struct MonitorMetrics {
  Counter& predictions =
      Registry::Global().GetCounter("model_monitor.predictions");
  Counter& outcomes_joined =
      Registry::Global().GetCounter("model_monitor.outcomes_joined");
  Counter& observations_unmatched =
      Registry::Global().GetCounter("model_monitor.observations_unmatched");
  Counter& evicted_pending =
      Registry::Global().GetCounter("model_monitor.evicted_pending");
  Counter& drift_alerts =
      Registry::Global().GetCounter("model_monitor.drift_alerts");
  Counter& attr_cm_false_positive =
      Registry::Global().GetCounter("model_monitor.attr_cm_false_positive");
  Counter& attr_rm_overestimate =
      Registry::Global().GetCounter("model_monitor.attr_rm_overestimate");
  Counter& attr_capacity_pressure =
      Registry::Global().GetCounter("model_monitor.attr_capacity_pressure");
  Counter& qos_violations_observed =
      Registry::Global().GetCounter("model_monitor.qos_violations_observed");
  Gauge& cm_precision_bp =
      Registry::Global().GetGauge("model_monitor.cm_precision_bp");
  Gauge& cm_recall_bp =
      Registry::Global().GetGauge("model_monitor.cm_recall_bp");
  Gauge& cm_fpr_bp = Registry::Global().GetGauge("model_monitor.cm_fpr_bp");
  Gauge& rm_mae_milli_fps =
      Registry::Global().GetGauge("model_monitor.rm_mae_milli_fps");
  Histogram& rm_abs_error_fps = Registry::Global().GetHistogram(
      "model_monitor.rm_abs_error_fps",
      Histogram::ExponentialBounds(0.125, 2.0, 14));  // 0.125 .. 1024 FPS

  static MonitorMetrics& Get() {
    static MonitorMetrics metrics;
    return metrics;
  }
};

/// Gauges are delta-based; "set to value" is an add of the difference.
/// Callers serialize through the monitor mutex, so the read-modify-write
/// does not race with itself.
void SetGauge(Gauge& gauge, std::int64_t value) {
  gauge.Add(value - gauge.Value());
}

/// Home entry of `key` in a chain index of `mask + 1` entries. Join keys
/// are usually hashes already; mixing keeps small integer keys from
/// clustering.
std::size_t ChainHome(std::uint64_t key, std::size_t mask) {
  std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h) & mask;
}

double SafeRatio(std::uint64_t num, std::uint64_t denom) {
  return denom == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(denom);
}

JsonValue DriftToJson(const DriftSummary& drift) {
  JsonObject object;
  object["has_reference"] = drift.has_reference;
  object["reference_samples"] =
      static_cast<unsigned long long>(drift.reference_samples);
  object["online_samples"] =
      static_cast<unsigned long long>(drift.online_samples);
  object["max_psi"] = drift.max_psi;
  object["features_over_threshold"] =
      static_cast<unsigned long long>(drift.features_over_threshold);
  JsonArray features;
  for (const PsiEntry& entry : drift.features) {
    JsonObject feature;
    feature["feature"] = entry.feature;
    feature["psi"] = entry.psi;
    feature["alert"] = entry.alert;
    features.push_back(JsonValue(std::move(feature)));
  }
  object["features"] = JsonValue(std::move(features));
  return JsonValue(std::move(object));
}

}  // namespace

std::uint64_t FeatureDigest(std::span<const double> features) {
  // FNV-1a over the IEEE-754 bit patterns.
  std::uint64_t hash = 1469598103934665603ull;
  for (double value : features) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffull;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

double PopulationStabilityIndex(std::span<const double> reference_probs,
                                std::span<const std::uint64_t> online_counts) {
  GAUGUR_CHECK(reference_probs.size() == online_counts.size());
  std::uint64_t total = 0;
  for (std::uint64_t c : online_counts) total += c;
  if (total == 0) return 0.0;
  // Classic proportion floor keeps empty bins finite.
  constexpr double kFloor = 1e-4;
  double psi = 0.0;
  for (std::size_t i = 0; i < reference_probs.size(); ++i) {
    const double online = std::max(
        kFloor, static_cast<double>(online_counts[i]) /
                    static_cast<double>(total));
    const double reference = std::max(kFloor, reference_probs[i]);
    psi += (online - reference) * std::log(online / reference);
  }
  return psi;
}

std::size_t BinIndex(const std::vector<double>& edges, double value) {
  return static_cast<std::size_t>(
      std::upper_bound(edges.begin(), edges.end(), value) - edges.begin());
}

std::size_t FeatureReference::Bin(std::size_t f, double value) const {
  return BinIndex(edges[f], value);
}

JsonValue ModelMonitorSummary::ToJson() const {
  JsonObject cm;
  cm["predictions"] = static_cast<unsigned long long>(cm_predictions);
  cm["tp"] = static_cast<unsigned long long>(cm_tp);
  cm["fp"] = static_cast<unsigned long long>(cm_fp);
  cm["tn"] = static_cast<unsigned long long>(cm_tn);
  cm["fn"] = static_cast<unsigned long long>(cm_fn);
  cm["precision"] = cm_precision;
  cm["recall"] = cm_recall;
  cm["fpr"] = cm_fpr;
  cm["accuracy"] = cm_accuracy;
  JsonArray calibration;
  for (const CalibrationBin& bin : cm_calibration) {
    JsonObject entry;
    entry["lo"] = bin.lo;
    entry["hi"] = bin.hi;
    entry["count"] = static_cast<unsigned long long>(bin.count);
    entry["mean_predicted"] = bin.mean_predicted;
    entry["observed_rate"] = bin.observed_rate;
    calibration.push_back(JsonValue(std::move(entry)));
  }
  cm["calibration"] = JsonValue(std::move(calibration));
  cm["drift"] = DriftToJson(cm_drift);

  JsonObject rm;
  rm["predictions"] = static_cast<unsigned long long>(rm_predictions);
  rm["outcomes"] = static_cast<unsigned long long>(rm_outcomes);
  rm["mae_fps"] = rm_mae_fps;
  rm["p95_abs_error_fps"] = rm_p95_abs_error_fps;
  rm["bias_fps"] = rm_bias_fps;
  rm["drift"] = DriftToJson(rm_drift);

  JsonObject stream;
  stream["outcomes_joined"] =
      static_cast<unsigned long long>(outcomes_joined);
  stream["observations_unmatched"] =
      static_cast<unsigned long long>(observations_unmatched);
  stream["evicted_pending"] =
      static_cast<unsigned long long>(evicted_pending);
  stream["window"] = static_cast<unsigned long long>(window);

  JsonObject attribution;
  attribution["cm_false_positive"] =
      static_cast<unsigned long long>(attr_cm_false_positive);
  attribution["rm_overestimate"] =
      static_cast<unsigned long long>(attr_rm_overestimate);
  attribution["capacity_pressure"] =
      static_cast<unsigned long long>(attr_capacity_pressure);
  attribution["qos_violations_observed"] =
      static_cast<unsigned long long>(qos_violations_observed);
  JsonObject by_resource;
  for (const auto& [resource, count] : attr_by_resource) {
    by_resource[resource] = static_cast<unsigned long long>(count);
  }
  attribution["by_resource"] = JsonValue(std::move(by_resource));
  JsonObject offenders;
  for (const auto& [game, count] : attr_offenders) {
    offenders[game] = static_cast<unsigned long long>(count);
  }
  attribution["offenders"] = JsonValue(std::move(offenders));

  JsonObject doc;
  doc["cm"] = JsonValue(std::move(cm));
  doc["rm"] = JsonValue(std::move(rm));
  doc["stream"] = JsonValue(std::move(stream));
  doc["attribution"] = JsonValue(std::move(attribution));
  return JsonValue(std::move(doc));
}

void ModelMonitor::DriftState::ResetOnline() {
  counts.assign(reference.NumFeatures(), {});
  for (std::size_t f = 0; f < reference.NumFeatures(); ++f) {
    counts[f].assign(reference.probs[f].size(), 0);
  }
  alerted.assign(reference.NumFeatures(), false);
  samples = 0;
}

ModelMonitor::ModelMonitor(ModelMonitorConfig config) {
  Configure(std::move(config));
}

ModelMonitor& ModelMonitor::Global() {
  static ModelMonitor* monitor = new ModelMonitor();  // thread-exit safe
  return *monitor;
}

void ModelMonitor::Configure(ModelMonitorConfig config) {
  GAUGUR_CHECK(config.ring_capacity >= 1);
  GAUGUR_CHECK(config.window >= 1);
  GAUGUR_CHECK(config.calibration_bins >= 1);
  GAUGUR_CHECK(config.drift_check_interval >= 1);
  GAUGUR_CHECK(config.ring_capacity < kNoSlot);
  std::lock_guard lock(mutex_);
  config_ = std::move(config);
  ring_.assign(config_.ring_capacity, Slot{});
  ring_head_ = 0;
  next_id_ = 0;
  chains_.assign(std::bit_ceil(2 * config_.ring_capacity), Chain{});
  window_.clear();
  cm_tp_ = cm_fp_ = cm_tn_ = cm_fn_ = 0;
  rm_outcomes_ = 0;
  rm_sum_abs_err_ = rm_sum_signed_err_ = 0.0;
  for (DriftState& state : drift_) {
    state.reference = FeatureReference{};
    state.edges = nullptr;
    state.ResetOnline();
  }
  cm_predictions_ = rm_predictions_ = 0;
  outcomes_joined_ = observations_unmatched_ = evicted_pending_ = 0;
  attr_cm_false_positive_ = attr_rm_overestimate_ = 0;
  attr_capacity_pressure_ = 0;
  drift_alert_events_ = 0;
  qos_violations_observed_ = 0;
  attr_by_resource_.clear();
  attr_offenders_.clear();
}

void ModelMonitor::Reset() { Configure(config_); }

void ModelMonitor::SetReference(ModelKind kind, FeatureReference reference) {
  std::lock_guard lock(mutex_);
  const auto k = static_cast<std::size_t>(kind);
  DriftState& state = drift_[k];
  state.reference = std::move(reference);
  if (last_edges_[k] == nullptr || *last_edges_[k] != state.reference.edges) {
    last_edges_[k] = std::make_shared<const BinEdges>(state.reference.edges);
  }
  state.edges = last_edges_[k];
  state.ResetOnline();
}

FeatureFingerprint ModelMonitor::Fingerprint(
    ModelKind kind, std::span<const double> features) const {
  FeatureFingerprint fingerprint;
  fingerprint.digest = FeatureDigest(features);
  std::shared_ptr<const BinEdges> edges;
  {
    std::lock_guard lock(mutex_);
    edges = drift_[static_cast<std::size_t>(kind)].edges;
  }
  if (edges == nullptr || edges->empty() ||
      edges->size() != features.size()) {
    return fingerprint;
  }
  fingerprint.bins.resize(features.size());
  for (std::size_t f = 0; f < features.size(); ++f) {
    const std::size_t bin = BinIndex((*edges)[f], features[f]);
    if (bin > std::numeric_limits<std::uint16_t>::max()) {
      fingerprint.bins.clear();
      return fingerprint;
    }
    fingerprint.bins[f] = static_cast<std::uint16_t>(bin);
  }
  fingerprint.edges = std::move(edges);
  return fingerprint;
}

FeatureReference ModelMonitor::Reference(ModelKind kind) const {
  std::lock_guard lock(mutex_);
  return drift_[static_cast<std::size_t>(kind)].reference;
}

bool ModelMonitor::HasData() const {
  std::lock_guard lock(mutex_);
  return cm_predictions_ + rm_predictions_ > 0;
}

void ModelMonitor::RecordPrediction(ModelKind kind, std::uint64_t join_key,
                                    std::span<const double> features,
                                    double predicted, double threshold,
                                    bool decision, double qos_fps,
                                    const FeatureFingerprint* fingerprint) {
  const PredictionAudit audit{join_key,  features, predicted,  threshold,
                              decision,  qos_fps,  fingerprint};
  RecordPredictions(kind, {&audit, 1});
}

void ModelMonitor::RecordPredictions(ModelKind kind,
                                     std::span<const PredictionAudit> batch) {
  if (!Enabled() || batch.empty()) return;
  std::uint64_t evicted = 0;
  {
    std::lock_guard lock(mutex_);
    DriftState& state = drift_[static_cast<std::size_t>(kind)];
    for (const PredictionAudit& audit : batch) {
      evicted += RecordLocked(kind, state, audit) ? 1 : 0;
    }
    (kind == ModelKind::kCm ? cm_predictions_ : rm_predictions_) +=
        batch.size();
  }
  MonitorMetrics& metrics = MonitorMetrics::Get();
  metrics.predictions.Add(batch.size());
  if (evicted > 0) metrics.evicted_pending.Add(evicted);
}

bool ModelMonitor::RecordLocked(ModelKind kind, DriftState& state,
                                const PredictionAudit& audit) {
  const auto slot_index = static_cast<std::uint32_t>(ring_head_);
  Slot& slot = ring_[slot_index];
  const bool evicted = slot.used && slot.pending;
  if (evicted) EvictLocked(slot_index);

  slot.used = true;
  slot.pending = true;
  const std::uint64_t digest = audit.fingerprint != nullptr
                                   ? audit.fingerprint->digest
                                   : FeatureDigest(audit.features);
  slot.record = PredictionRecord{next_id_++,      kind,
                                 audit.join_key,  digest,
                                 audit.predicted, audit.threshold,
                                 audit.decision,  audit.qos_fps};
  Chain& chain = chains_[FindChainLocked(audit.join_key)];
  if (chain.head == kNoSlot) {
    chain.key = audit.join_key;
    chain.head = slot_index;
  } else {
    ring_[chain.tail].next = slot_index;
  }
  chain.tail = slot_index;
  ring_head_ = (ring_head_ + 1) % ring_.size();

  const std::span<const double> features = audit.features;
  if (!state.reference.Empty() &&
      features.size() == state.reference.NumFeatures()) {
    const FeatureFingerprint* fingerprint = audit.fingerprint;
    if (fingerprint != nullptr && fingerprint->edges == state.edges) {
      for (std::size_t f = 0; f < features.size(); ++f) {
        ++state.counts[f][fingerprint->bins[f]];
      }
    } else {
      for (std::size_t f = 0; f < features.size(); ++f) {
        ++state.counts[f][state.reference.Bin(f, features[f])];
      }
    }
    ++state.samples;
    if (state.samples % config_.drift_check_interval == 0) {
      EvaluateDriftLocked(state);
    }
  }
  return evicted;
}

std::size_t ModelMonitor::FindChainLocked(std::uint64_t key) const {
  const std::size_t mask = chains_.size() - 1;
  std::size_t index = ChainHome(key, mask);
  while (chains_[index].head != kNoSlot && chains_[index].key != key) {
    index = (index + 1) & mask;
  }
  return index;
}

void ModelMonitor::EraseChainLocked(std::size_t index) {
  const std::size_t mask = chains_.size() - 1;
  std::size_t hole = index;
  for (std::size_t i = (index + 1) & mask; chains_[i].head != kNoSlot;
       i = (i + 1) & mask) {
    // An entry may fill the hole when its home is not cyclically inside
    // (hole, i]: its probe from home passes the hole.
    const std::size_t home = ChainHome(chains_[i].key, mask);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      chains_[hole] = chains_[i];
      hole = i;
    }
  }
  chains_[hole] = Chain{};
}

void ModelMonitor::ObserveOutcome(std::uint64_t join_key,
                                  double realized_fps, double qos_fps,
                                  const OutcomeContext& context) {
  if (!Enabled()) return;
  std::lock_guard lock(mutex_);
  if (qos_fps > 0.0 && realized_fps < qos_fps) {
    ++qos_violations_observed_;
    MonitorMetrics::Get().qos_violations_observed.Add(1);
    if (!context.dominant_resource.empty()) {
      ++attr_by_resource_[context.dominant_resource];
    }
    if (context.offender_game_id >= 0) {
      ++attr_offenders_[std::to_string(context.offender_game_id)];
    }
  }
  const std::size_t index = FindChainLocked(join_key);
  if (chains_[index].head == kNoSlot) {
    ++observations_unmatched_;
    MonitorMetrics::Get().observations_unmatched.Add(1);
    // A violated colocation the models never approved: the fleet is under
    // capacity pressure, not misled by a prediction. Only meaningful once
    // the monitor has seen predictions at all (otherwise every baseline
    // policy's violation would land here).
    if (qos_fps > 0.0 && realized_fps < qos_fps &&
        cm_predictions_ + rm_predictions_ > 0) {
      ++attr_capacity_pressure_;
      MonitorMetrics::Get().attr_capacity_pressure.Add(1);
    }
    return;
  }
  std::uint32_t slot_index = chains_[index].head;
  EraseChainLocked(index);
  while (slot_index != kNoSlot) {
    Slot& slot = ring_[slot_index];
    const std::uint32_t next = slot.next;
    slot.pending = false;
    slot.next = kNoSlot;
    JoinLocked(slot_index, realized_fps);
    slot_index = next;
  }
  UpdateQualityGaugesLocked();
}

void ModelMonitor::JoinLocked(std::size_t slot_index, double realized_fps) {
  const PredictionRecord& record = ring_[slot_index].record;
  OutcomeRecord outcome;
  outcome.prediction = record;
  outcome.realized_fps = realized_fps;
  outcome.violated = record.qos_fps > 0.0 && realized_fps < record.qos_fps;

  ++outcomes_joined_;
  MonitorMetrics::Get().outcomes_joined.Add(1);

  // QoS-violation attribution: the model said "feasible" and the player
  // still dipped below the floor — a model miss.
  if (outcome.violated && record.decision) {
    if (record.kind == ModelKind::kCm) {
      ++attr_cm_false_positive_;
      MonitorMetrics::Get().attr_cm_false_positive.Add(1);
    } else {
      ++attr_rm_overestimate_;
      MonitorMetrics::Get().attr_rm_overestimate.Add(1);
    }
  }
  if (record.kind == ModelKind::kRm) {
    MonitorMetrics::Get().rm_abs_error_fps.Record(
        std::abs(record.predicted - realized_fps));
  }
  PushOutcomeLocked(std::move(outcome));
}

void ModelMonitor::EvictLocked(std::size_t slot_index) {
  Slot& slot = ring_[slot_index];
  const std::size_t index = FindChainLocked(slot.record.join_key);
  GAUGUR_CHECK(chains_[index].head == slot_index);
  if (slot.next == kNoSlot) {
    EraseChainLocked(index);
  } else {
    chains_[index].head = slot.next;
  }
  slot.pending = false;
  slot.next = kNoSlot;
  ++evicted_pending_;
}

void ModelMonitor::PushOutcomeLocked(OutcomeRecord outcome) {
  const auto apply = [this](const OutcomeRecord& o, std::int64_t sign) {
    const PredictionRecord& p = o.prediction;
    if (p.kind == ModelKind::kCm && p.qos_fps > 0.0) {
      const bool label = o.realized_fps >= p.qos_fps;
      std::uint64_t& cell = p.decision ? (label ? cm_tp_ : cm_fp_)
                                       : (label ? cm_fn_ : cm_tn_);
      cell += static_cast<std::uint64_t>(sign);
    } else if (p.kind == ModelKind::kRm) {
      rm_outcomes_ += static_cast<std::uint64_t>(sign);
      const double signed_err = p.predicted - o.realized_fps;
      rm_sum_abs_err_ += sign * std::abs(signed_err);
      rm_sum_signed_err_ += sign * signed_err;
    }
  };
  window_.push_back(std::move(outcome));
  apply(window_.back(), +1);
  while (window_.size() > config_.window) {
    apply(window_.front(), -1);
    window_.pop_front();
  }
}

void ModelMonitor::EvaluateDriftLocked(DriftState& state) {
  for (std::size_t f = 0; f < state.reference.NumFeatures(); ++f) {
    const double psi =
        PopulationStabilityIndex(state.reference.probs[f], state.counts[f]);
    const bool above = psi > kPsiAlertThreshold;
    if (above && !state.alerted[f]) {
      ++drift_alert_events_;
      MonitorMetrics::Get().drift_alerts.Add(1);
    }
    state.alerted[f] = above;
  }
}

DriftSummary ModelMonitor::SummarizeDriftLocked(
    const DriftState& state) const {
  DriftSummary drift;
  drift.has_reference = !state.reference.Empty();
  drift.reference_samples = state.reference.samples;
  drift.online_samples = state.samples;
  for (std::size_t f = 0; f < state.reference.NumFeatures(); ++f) {
    PsiEntry entry;
    entry.feature = state.reference.names[f];
    entry.psi =
        PopulationStabilityIndex(state.reference.probs[f], state.counts[f]);
    entry.alert = entry.psi > kPsiAlertThreshold;
    drift.max_psi = std::max(drift.max_psi, entry.psi);
    drift.features_over_threshold += entry.alert ? 1 : 0;
    drift.features.push_back(std::move(entry));
  }
  return drift;
}

void ModelMonitor::UpdateQualityGaugesLocked() {
  MonitorMetrics& metrics = MonitorMetrics::Get();
  const auto bp = [](double ratio) {
    return static_cast<std::int64_t>(std::lround(ratio * 10000.0));
  };
  SetGauge(metrics.cm_precision_bp, bp(SafeRatio(cm_tp_, cm_tp_ + cm_fp_)));
  SetGauge(metrics.cm_recall_bp, bp(SafeRatio(cm_tp_, cm_tp_ + cm_fn_)));
  SetGauge(metrics.cm_fpr_bp, bp(SafeRatio(cm_fp_, cm_fp_ + cm_tn_)));
  const double mae = rm_outcomes_ == 0
                         ? 0.0
                         : rm_sum_abs_err_ / static_cast<double>(rm_outcomes_);
  SetGauge(metrics.rm_mae_milli_fps,
           static_cast<std::int64_t>(std::lround(mae * 1000.0)));
}

ModelMonitorSummary ModelMonitor::Summary() const {
  std::lock_guard lock(mutex_);
  ModelMonitorSummary summary;
  summary.cm_predictions = cm_predictions_;
  summary.rm_predictions = rm_predictions_;
  summary.outcomes_joined = outcomes_joined_;
  summary.observations_unmatched = observations_unmatched_;
  summary.evicted_pending = evicted_pending_;
  summary.window = window_.size();

  summary.cm_tp = cm_tp_;
  summary.cm_fp = cm_fp_;
  summary.cm_tn = cm_tn_;
  summary.cm_fn = cm_fn_;
  summary.cm_precision = SafeRatio(cm_tp_, cm_tp_ + cm_fp_);
  summary.cm_recall = SafeRatio(cm_tp_, cm_tp_ + cm_fn_);
  summary.cm_fpr = SafeRatio(cm_fp_, cm_fp_ + cm_tn_);
  summary.cm_accuracy =
      SafeRatio(cm_tp_ + cm_tn_, cm_tp_ + cm_fp_ + cm_tn_ + cm_fn_);

  // Reliability bins over the rolling window.
  const std::size_t bins = config_.calibration_bins;
  std::vector<std::uint64_t> counts(bins, 0), positives(bins, 0);
  std::vector<double> sum_predicted(bins, 0.0);
  std::vector<double> rm_abs_errors;
  for (const OutcomeRecord& outcome : window_) {
    const PredictionRecord& p = outcome.prediction;
    if (p.kind == ModelKind::kCm && p.qos_fps > 0.0) {
      const double prob = std::clamp(p.predicted, 0.0, 1.0);
      const std::size_t bin = std::min(
          bins - 1, static_cast<std::size_t>(prob * static_cast<double>(bins)));
      ++counts[bin];
      sum_predicted[bin] += prob;
      positives[bin] += outcome.realized_fps >= p.qos_fps ? 1 : 0;
    } else if (p.kind == ModelKind::kRm) {
      rm_abs_errors.push_back(std::abs(p.predicted - outcome.realized_fps));
    }
  }
  for (std::size_t b = 0; b < bins; ++b) {
    CalibrationBin bin;
    bin.lo = static_cast<double>(b) / static_cast<double>(bins);
    bin.hi = static_cast<double>(b + 1) / static_cast<double>(bins);
    bin.count = counts[b];
    bin.mean_predicted =
        counts[b] == 0 ? 0.0
                       : sum_predicted[b] / static_cast<double>(counts[b]);
    bin.observed_rate = SafeRatio(positives[b], counts[b]);
    summary.cm_calibration.push_back(bin);
  }

  summary.rm_outcomes = rm_outcomes_;
  summary.rm_mae_fps =
      rm_outcomes_ == 0 ? 0.0
                        : rm_sum_abs_err_ / static_cast<double>(rm_outcomes_);
  summary.rm_bias_fps =
      rm_outcomes_ == 0
          ? 0.0
          : rm_sum_signed_err_ / static_cast<double>(rm_outcomes_);
  if (!rm_abs_errors.empty()) {
    // Nearest-rank p95 over the window.
    std::sort(rm_abs_errors.begin(), rm_abs_errors.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.95 * static_cast<double>(rm_abs_errors.size())));
    summary.rm_p95_abs_error_fps = rm_abs_errors[std::max<std::size_t>(
        1, std::min(rank, rm_abs_errors.size())) - 1];
  }

  summary.cm_drift =
      SummarizeDriftLocked(drift_[static_cast<std::size_t>(ModelKind::kCm)]);
  summary.rm_drift =
      SummarizeDriftLocked(drift_[static_cast<std::size_t>(ModelKind::kRm)]);

  summary.attr_cm_false_positive = attr_cm_false_positive_;
  summary.attr_rm_overestimate = attr_rm_overestimate_;
  summary.attr_capacity_pressure = attr_capacity_pressure_;
  summary.qos_violations_observed = qos_violations_observed_;
  summary.attr_by_resource = attr_by_resource_;
  summary.attr_offenders = attr_offenders_;
  return summary;
}

std::vector<PredictionRecord> ModelMonitor::AuditLog() const {
  std::lock_guard lock(mutex_);
  std::vector<PredictionRecord> log;
  log.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Slot& slot = ring_[(ring_head_ + i) % ring_.size()];
    if (slot.used) log.push_back(slot.record);
  }
  std::sort(log.begin(), log.end(),
            [](const PredictionRecord& a, const PredictionRecord& b) {
              return a.id < b.id;
            });
  return log;
}

std::vector<OutcomeRecord> ModelMonitor::RecentOutcomes() const {
  std::lock_guard lock(mutex_);
  return {window_.begin(), window_.end()};
}

}  // namespace gaugur::obs
