#include "gaugur/predictor.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "ml/factory.h"
#include "obs/event_log.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/switch.h"

namespace gaugur::core {

namespace {

constexpr std::uint8_t kRmKind = 0;
constexpr std::uint8_t kCmKind = 1;

/// Handles into the global metric registry, resolved once. The mutators
/// are no-ops while obs is disabled.
struct PredictorMetrics {
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_evictions;
  obs::Histogram& batch_size;

  static PredictorMetrics& Get() {
    static PredictorMetrics metrics{
        obs::Registry::Global().GetCounter("gaugur.predictor.cache_hits"),
        obs::Registry::Global().GetCounter("gaugur.predictor.cache_misses"),
        obs::Registry::Global().GetCounter(
            "gaugur.predictor.cache_evictions"),
        obs::Registry::Global().GetHistogram(
            "gaugur.predictor.batch_size",
            obs::Histogram::ExponentialBounds(1.0, 2.0, 14)),
    };
    return metrics;
  }
};

/// A fresh cache entry for one missed query. With obs on it carries the
/// row and its fingerprint, taken once here for every later audit of it;
/// with obs off nothing reads the row, so it is not copied.
std::shared_ptr<const CachedPrediction> MakeEntry(
    obs::ModelKind kind, bool obs_on, std::span<const double> row,
    double value) {
  if (!obs_on) {
    return std::make_shared<const CachedPrediction>(
        CachedPrediction{{}, value, nullptr});
  }
  return std::make_shared<const CachedPrediction>(CachedPrediction{
      std::vector<double>(row.begin(), row.end()), value,
      std::make_unique<const obs::FeatureFingerprint>(
          obs::ModelMonitor::Global().Fingerprint(kind, row))});
}

/// Assigns each miss a model row, one per distinct join key: `row_of[j]`
/// is miss j's row, and the result holds each row's first query, in miss
/// order.
std::vector<std::size_t> DistinctRows(std::span<const std::uint64_t> keys,
                                      std::span<const std::size_t> miss,
                                      std::span<std::size_t> row_of) {
  std::vector<std::size_t> row_query;
  if (miss.empty()) return row_query;
  // Open addressing over the join keys (already SplitMix64-mixed, so the
  // low bits index directly); a slot holds row + 1, 0 where empty.
  std::vector<std::size_t> table(std::bit_ceil(2 * miss.size()));
  const std::size_t mask = table.size() - 1;
  for (std::size_t j = 0; j < miss.size(); ++j) {
    const std::uint64_t key = keys[miss[j]];
    std::size_t t = key & mask;
    while (table[t] != 0 && keys[row_query[table[t] - 1]] != key) {
      t = (t + 1) & mask;
    }
    if (table[t] == 0) {
      row_query.push_back(miss[j]);
      table[t] = row_query.size();
    }
    row_of[j] = table[t] - 1;
  }
  return row_query;
}

/// The audit record of one query answered from `entry`.
obs::PredictionAudit MakeAudit(std::uint64_t join_key,
                               const CachedPrediction& entry,
                               double predicted, double threshold,
                               bool decision, double qos_fps) {
  return {join_key,  entry.features, predicted,
          threshold, decision,       qos_fps,
          entry.fingerprint.get()};
}

}  // namespace

GAugurPredictor::GAugurPredictor(const FeatureBuilder& features,
                                 PredictorConfig config)
    : features_(&features),
      config_(std::move(config)),
      rm_(ml::MakeRegressor(config_.rm_algorithm, config_.seed)),
      cm_(ml::MakeClassifier(config_.cm_algorithm, config_.seed + 1)),
      cache_(std::make_shared<PredictionCache>(
          config_.prediction_cache_capacity)) {}

GAugurPredictor GAugurPredictor::MakeReplica(bool share_cache) const {
  GAUGUR_CHECK_MSG(rm_trained_ || cm_trained_,
                   "replicate after training: replicas cannot retrain");
  GAugurPredictor replica(*this);  // shares models + cache (shared_ptr)
  replica.is_replica_ = true;
  if (!share_cache) {
    // Control arm: same cache geometry, but cold and private to this
    // replica (no cross-shard warming).
    replica.cache_ =
        std::make_shared<PredictionCache>(config_.prediction_cache_capacity);
  }
  return replica;
}

void GAugurPredictor::TrainRm(std::span<const MeasuredColocation> corpus) {
  TrainRmOnDataset(BuildRmDataset(*features_, corpus));
}

void GAugurPredictor::TrainRmOnDataset(const ml::Dataset& dataset) {
  GAUGUR_CHECK_MSG(!is_replica_,
                   "replicas share the parent's models; retrain the parent");
  GAUGUR_CHECK(dataset.NumFeatures() == features_->RmDim());
  rm_->Fit(dataset);
  rm_trained_ = true;
  cache_->Clear();  // memoized outputs belong to the previous model
  if (obs::Enabled()) {
    obs::ModelMonitor::Global().SetReference(obs::ModelKind::kRm,
                                             BuildFeatureReference(dataset));
    obs::EventLog::Global().Append(
        obs::EventKind::kRetrain, /*tick=*/0.0, /*decision_id=*/0,
        {{"model", obs::JsonValue("rm")},
         {"rows",
          obs::JsonValue(static_cast<unsigned long long>(dataset.NumRows()))},
         {"algorithm", obs::JsonValue(config_.rm_algorithm)}});
  }
}

void GAugurPredictor::TrainCm(std::span<const MeasuredColocation> corpus,
                              std::span<const double> qos_grid) {
  TrainCmOnDataset(BuildCmDatasetMultiQos(*features_, corpus, qos_grid));
}

void GAugurPredictor::TrainCmOnDataset(const ml::Dataset& dataset) {
  GAUGUR_CHECK_MSG(!is_replica_,
                   "replicas share the parent's models; retrain the parent");
  GAUGUR_CHECK(dataset.NumFeatures() == features_->CmDim());
  cm_->Fit(dataset);
  cm_trained_ = true;
  cache_->Clear();
  if (obs::Enabled()) {
    obs::ModelMonitor::Global().SetReference(obs::ModelKind::kCm,
                                             BuildFeatureReference(dataset));
    obs::EventLog::Global().Append(
        obs::EventKind::kRetrain, /*tick=*/0.0, /*decision_id=*/0,
        {{"model", obs::JsonValue("cm")},
         {"rows",
          obs::JsonValue(static_cast<unsigned long long>(dataset.NumRows()))},
         {"algorithm", obs::JsonValue(config_.cm_algorithm)}});
  }
}

void GAugurPredictor::AppendFeatures(obs::ModelKind kind, double qos_fps,
                                     const QosQuery& query,
                                     std::vector<double>& out) const {
  if (kind == obs::ModelKind::kRm) {
    features_->AppendRmFeatures(query.victim, query.corunners, out);
  } else {
    features_->AppendCmFeatures(qos_fps, query.victim, query.corunners, out);
  }
}

GAugurPredictor::BatchEval GAugurPredictor::EvalBatch(
    obs::ModelKind kind, double qos_fps, std::span<const QosQuery> queries,
    std::span<const std::uint64_t> precomputed_keys) const {
  const bool rm = kind == obs::ModelKind::kRm;
  GAUGUR_CHECK_MSG(rm ? rm_trained_ : cm_trained_,
                   (rm ? "RM not trained" : "CM not trained"));
  const std::uint64_t qos_bits =
      rm ? 0 : std::bit_cast<std::uint64_t>(qos_fps);
  const std::uint8_t cache_kind = rm ? kRmKind : kCmKind;
  const std::size_t n = queries.size();
  GAUGUR_CHECK(precomputed_keys.empty() || precomputed_keys.size() == n);
  BatchEval ev;
  ev.obs_on = obs::Enabled();
  ev.keys.resize(n);
  ev.values.resize(n);
  ev.hits.resize(n);
  if (ev.obs_on) ev.entries.resize(n);

  std::vector<PredictionCacheKey> cache_keys(n);
  std::vector<std::size_t> miss;
  {
    obs::PhaseTimer phase(obs::Phase::kCacheLookup);
    for (std::size_t i = 0; i < n; ++i) {
      ev.keys[i] = precomputed_keys.empty()
                       ? ModelJoinKey(queries[i].victim, queries[i].corunners)
                       : precomputed_keys[i];
      cache_keys[i] = {ev.keys[i], qos_bits, cache_kind};
    }
    // Entries are copied out only for the audit, which needs the row.
    const std::size_t hits =
        cache_->LookupBatch(cache_keys, ev.hits, ev.values, ev.entries);
    miss.reserve(n - hits);
    for (std::size_t i = 0; i < n; ++i) {
      if (ev.hits[i] == 0) miss.push_back(i);
    }
  }

  // Misses: one model row per distinct join key (open servers with the
  // same content ask the same query), one row-major matrix, one batched
  // model call.
  const std::size_t dim = rm ? features_->RmDim() : features_->CmDim();
  std::vector<std::size_t> row_of(miss.size());
  std::vector<std::size_t> row_query;
  std::vector<double> matrix;
  {
    obs::PhaseTimer phase(obs::Phase::kFeatureBuild);
    row_query = DistinctRows(ev.keys, miss, row_of);
    matrix.reserve(row_query.size() * dim);
    for (std::size_t i : row_query) {
      AppendFeatures(kind, qos_fps, queries[i], matrix);
    }
  }
  std::vector<double> out(row_query.size());
  if (!row_query.empty()) {
    obs::PhaseTimer phase(obs::Phase::kKernelEval);
    const ml::MatrixView view{matrix.data(), row_query.size(), dim};
    if (rm) {
      rm_->PredictBatch(view, out);
    } else {
      cm_->PredictProbBatch(view, out);
    }
  }
  // Every miss is still inserted, in miss order and sharing its row's
  // entry, so the cache sees the same inserts as without the row
  // dedup. Per-call eviction tally: the cache is shared across
  // replicas, so snapshot diffs would absorb other threads' traffic —
  // InsertBatch reports its own evictions exactly instead.
  std::uint64_t evicted = 0;
  {
    obs::PhaseTimer phase(obs::Phase::kCacheLookup);
    std::vector<std::shared_ptr<const CachedPrediction>> row_entry(
        row_query.size());
    for (std::size_t r = 0; r < row_query.size(); ++r) {
      row_entry[r] =
          MakeEntry(kind, ev.obs_on, {matrix.data() + r * dim, dim},
                    rm ? std::clamp(out[r], 0.01, 1.0) : out[r]);
    }
    std::vector<PredictionCacheKey> miss_keys(miss.size());
    std::vector<std::shared_ptr<const CachedPrediction>> miss_entries(
        miss.size());
    for (std::size_t j = 0; j < miss.size(); ++j) {
      const std::size_t i = miss[j];
      miss_keys[j] = cache_keys[i];
      miss_entries[j] = row_entry[row_of[j]];
      ev.values[i] = miss_entries[j]->value;
      if (ev.obs_on) ev.entries[i] = miss_entries[j];
    }
    evicted = cache_->InsertBatch(miss_keys, miss_entries);
  }

  if (ev.obs_on) {
    // A hit on an entry built while obs was off has no row to audit:
    // rebuild it from the query. The hit stays a hit — nothing is
    // re-inserted and no tally moves.
    std::vector<double> row;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ev.entries[i]->features.empty()) continue;
      row.clear();
      AppendFeatures(kind, qos_fps, queries[i], row);
      ev.entries[i] = MakeEntry(kind, ev.obs_on, row, ev.values[i]);
    }
    auto& metrics = PredictorMetrics::Get();
    metrics.batch_size.Record(static_cast<double>(n));
    metrics.cache_hits.Add(n - miss.size());
    metrics.cache_misses.Add(miss.size());
    metrics.cache_evictions.Add(evicted);
  }
  return ev;
}

void GAugurPredictor::AuditRm(std::uint64_t join_key,
                              const CachedPrediction& entry,
                              double predicted_fps, double qos_fps,
                              bool decision) const {
  obs::ModelMonitor::Global().RecordPrediction(
      obs::ModelKind::kRm, join_key, entry.features, predicted_fps,
      /*threshold=*/qos_fps, decision, qos_fps, entry.fingerprint.get());
}

double GAugurPredictor::PredictDegradation(
    const SessionRequest& victim,
    std::span<const SessionRequest> corunners) const {
  const QosQuery query{victim, corunners};
  const BatchEval ev = EvalBatch(obs::ModelKind::kRm, 0.0, {&query, 1});
  const double degradation = ev.values[0];
  if (ev.obs_on) {
    // Audited in FPS units (degradation x profiled solo FPS) so the
    // record joins against realized FPS like every other RM entry.
    AuditRm(ev.keys[0], *ev.entries[0], degradation * SoloFps(victim),
            /*qos_fps=*/0.0, /*decision=*/false);
  }
  return degradation;
}

double GAugurPredictor::PredictFps(
    const SessionRequest& victim,
    std::span<const SessionRequest> corunners) const {
  const QosQuery query{victim, corunners};
  const BatchEval ev = EvalBatch(obs::ModelKind::kRm, 0.0, {&query, 1});
  const double fps = ev.values[0] * SoloFps(victim);
  if (ev.obs_on) {
    AuditRm(ev.keys[0], *ev.entries[0], fps, /*qos_fps=*/0.0,
            /*decision=*/false);
  }
  return fps;
}

std::vector<double> GAugurPredictor::PredictFpsBatch(
    std::span<const QosQuery> queries) const {
  const BatchEval ev = EvalBatch(obs::ModelKind::kRm, 0.0, queries);
  std::vector<double> fps(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    fps[i] = ev.values[i] * SoloFps(queries[i].victim);
  }
  if (ev.obs_on) {
    std::vector<obs::PredictionAudit> audits(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      audits[i] = MakeAudit(ev.keys[i], *ev.entries[i], fps[i],
                            /*threshold=*/0.0, /*decision=*/false,
                            /*qos_fps=*/0.0);
    }
    obs::ModelMonitor::Global().RecordPredictions(obs::ModelKind::kRm,
                                                  audits);
  }
  return fps;
}

bool GAugurPredictor::PredictQosOk(
    double qos_fps, const SessionRequest& victim,
    std::span<const SessionRequest> corunners) const {
  const QosQuery query{victim, corunners};
  return PredictQosOkBatch(qos_fps, {&query, 1})[0] != 0;
}

std::vector<char> GAugurPredictor::PredictQosOkBatch(
    double qos_fps, std::span<const QosQuery> queries) const {
  return QosOkBatchDetailed(qos_fps, queries, nullptr, nullptr);
}

std::vector<char> GAugurPredictor::QosOkBatchDetailed(
    double qos_fps, std::span<const QosQuery> queries,
    std::vector<char>* cache_hit, std::vector<double>* margin,
    std::span<const std::uint64_t> precomputed_keys) const {
  std::vector<char> ok(queries.size());
  if (cache_hit != nullptr) cache_hit->assign(queries.size(), 0);
  if (margin != nullptr) margin->assign(queries.size(), 0.0);
  if (cm_trained_) {
    const BatchEval ev =
        EvalBatch(obs::ModelKind::kCm, qos_fps, queries, precomputed_keys);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool feasible = ev.values[i] >= config_.cm_decision_threshold;
      ok[i] = feasible ? 1 : 0;
      if (cache_hit != nullptr) (*cache_hit)[i] = ev.hits[i];
      if (margin != nullptr) {
        (*margin)[i] = ev.values[i] - config_.cm_decision_threshold;
      }
    }
    if (ev.obs_on) {
      // One monitor call for the batch's audit records.
      std::vector<obs::PredictionAudit> audits(queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        audits[i] = MakeAudit(ev.keys[i], *ev.entries[i], ev.values[i],
                              config_.cm_decision_threshold, ok[i] != 0,
                              qos_fps);
      }
      obs::ModelMonitor::Global().RecordPredictions(obs::ModelKind::kCm,
                                                    audits);
    }
    return ok;
  }
  // RM fallback: threshold the predicted absolute FPS against QoS.
  const BatchEval ev =
      EvalBatch(obs::ModelKind::kRm, 0.0, queries, precomputed_keys);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double fps = ev.values[i] * SoloFps(queries[i].victim);
    const bool feasible = fps >= qos_fps;
    ok[i] = feasible ? 1 : 0;
    if (cache_hit != nullptr) (*cache_hit)[i] = ev.hits[i];
    if (margin != nullptr) (*margin)[i] = fps - qos_fps;
  }
  if (ev.obs_on) {
    std::vector<obs::PredictionAudit> audits(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      audits[i] = MakeAudit(
          ev.keys[i], *ev.entries[i],
          ev.values[i] * SoloFps(queries[i].victim),
          /*threshold=*/qos_fps, ok[i] != 0, qos_fps);
    }
    obs::ModelMonitor::Global().RecordPredictions(obs::ModelKind::kRm, audits);
  }
  return ok;
}

bool GAugurPredictor::PredictFeasible(double qos_fps,
                                      const Colocation& colocation) const {
  return ScoreCandidates(qos_fps, {&colocation, 1})[0] != 0;
}

std::vector<char> GAugurPredictor::ScoreCandidates(
    double qos_fps, std::span<const Colocation> candidates) const {
  const std::vector<CandidateScore> scores =
      ScoreCandidatesDetailed(qos_fps, candidates);
  std::vector<char> feasible(candidates.size(), 0);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    feasible[c] = scores[c].feasible ? 1 : 0;
  }
  return feasible;
}

std::vector<CandidateScore> GAugurPredictor::ScoreCandidatesDetailed(
    double qos_fps, std::span<const Colocation> candidates) const {
  std::vector<CandidateScore> scores(candidates.size());

  // Memory screen first; only memory-fitting candidates spend model
  // queries.
  std::vector<char> memory_ok(candidates.size());
  std::size_t num_queries = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (!ProfiledMemoryFits(*features_, candidates[c])) continue;
    memory_ok[c] = 1;
    scores[c].memory_ok = true;
    scores[c].feasible = true;
    num_queries += candidates[c].size();
  }
  if (num_queries == 0) return scores;

  VictimQueries vq;
  std::vector<std::uint64_t> query_keys;
  {
    obs::PhaseTimer phase(obs::Phase::kColocationHash);
    vq = BuildVictimQueries(candidates, memory_ok);
    // One O(k) additive hash per candidate; each victim's join key is
    // then derived in O(1) — the co-runner sum is the total minus the
    // victim.
    query_keys.reserve(vq.queries.size());
    std::uint64_t total_hash = 0;
    for (std::size_t q = 0; q < vq.queries.size(); ++q) {
      const std::size_t c = vq.query_candidate[q];
      if (q == 0 || c != vq.query_candidate[q - 1]) {
        total_hash = ColocationHash(candidates[c]);
      }
      const std::uint64_t victim_hash = SessionHash(vq.queries[q].victim);
      query_keys.push_back(
          JoinKeyFromHashes(victim_hash, total_hash - victim_hash));
    }
  }

  std::vector<char> hit;
  std::vector<double> margin;
  const std::vector<char> ok =
      QosOkBatchDetailed(qos_fps, vq.queries, &hit, &margin, query_keys);
  for (std::size_t q = 0; q < vq.queries.size(); ++q) {
    CandidateScore& score = scores[vq.query_candidate[q]];
    if (ok[q] == 0) score.feasible = false;
    if (score.queries == 0 || margin[q] < score.min_margin) {
      score.min_margin = margin[q];
    }
    ++score.queries;
    score.cache_hits += hit[q] != 0 ? 1 : 0;
  }
  return scores;
}

}  // namespace gaugur::core
