// GAugurPredictor: the online prediction service (paper §3.5). Wraps the
// trained classification model (CM) and regression model (RM) behind the
// queries the schedulers need, answering from profiled features only —
// never from the simulator's hidden state.
//
// The service is batched end to end: the schedulers hand over every
// candidate of a decision at once (PredictQosOkBatch / ScoreCandidates),
// features for the whole batch are appended into one row-major matrix
// (no per-query allocation), and a single virtual PredictBatch /
// PredictProbBatch call runs the flattened tree kernels over it. A
// bounded PredictionCache — a flat CLOCK table — keyed by
// core::ModelJoinKey (+ QoS for CM queries) memoizes raw model outputs
// across decisions and is invalidated by TrainRm/TrainCm. The scalar
// entry points are batches of one.
//
// When observability is on, every public CM/RM query — cache hit or miss
// — appends exactly one audit record to obs::ModelMonitor::Global()
// (keyed by core::ModelJoinKey; a batch hands over its records in one
// call) and each Train*OnDataset call installs
// the training set's feature distribution as that model's drift
// reference. An entry built with obs on keeps its feature row and the
// row's fingerprint — digest plus drift bins — so a hit replays a
// bit-identical record without hashing or binning; with obs off nothing
// reads the row, so it is not kept, and a later obs-on hit on such an
// entry rebuilds the row from the query for its audit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gaugur/features.h"
#include "gaugur/prediction_cache.h"
#include "gaugur/training.h"
#include "ml/model.h"

namespace gaugur::core {

struct PredictorConfig {
  /// Algorithm names per ml::factory; the paper's winners by default.
  std::string rm_algorithm = "GBRT";
  std::string cm_algorithm = "GBDT";
  /// CM decision threshold on the positive-class probability. 0.5 is the
  /// plain max-accuracy rule; scheduling deployments raise it because a
  /// false "feasible" verdict (QoS violation for a paying player) costs
  /// more than a missed colocation opportunity.
  double cm_decision_threshold = 0.5;
  std::uint64_t seed = 31;
  /// Entries held by the memoizing PredictionCache; 0 disables caching
  /// (every query runs the model).
  std::size_t prediction_cache_capacity = 4096;
};

/// Per-candidate provenance of one ScoreCandidatesDetailed call: how the
/// verdict was reached, for the decision event log.
struct CandidateScore {
  bool feasible = false;
  /// Profiled memory screen result; false means no model queries ran.
  bool memory_ok = false;
  /// Model queries spent on this candidate (one per victim).
  std::uint32_t queries = 0;
  /// How many of those were answered from the PredictionCache.
  std::uint32_t cache_hits = 0;
  /// Worst per-victim margin: CM probability minus the decision
  /// threshold, or (RM fallback) predicted FPS minus QoS. Negative means
  /// the binding victim failed. 0 when no queries ran.
  double min_margin = 0.0;
};

class GAugurPredictor {
 public:
  /// `features` must outlive the predictor.
  explicit GAugurPredictor(const FeatureBuilder& features,
                           PredictorConfig config = {});

  /// Trains the RM on the corpus (k samples per colocation of k games).
  void TrainRm(std::span<const MeasuredColocation> corpus);
  /// Trains the RM on a pre-built dataset (for sample-count sweeps).
  void TrainRmOnDataset(const ml::Dataset& dataset);

  /// Trains a Q-aware CM by replicating the corpus across `qos_grid`.
  void TrainCm(std::span<const MeasuredColocation> corpus,
               std::span<const double> qos_grid);
  void TrainCmOnDataset(const ml::Dataset& dataset);

  bool HasRm() const { return rm_trained_; }
  bool HasCm() const { return cm_trained_; }

  /// The trained models themselves, for model-level checks that bypass
  /// the cache and the feature builder.
  const ml::Regressor& Rm() const { return *rm_; }
  const ml::Classifier& Cm() const { return *cm_; }

  /// RM: predicted degradation of `victim` among `corunners`.
  double PredictDegradation(
      const SessionRequest& victim,
      std::span<const SessionRequest> corunners) const;

  /// RM: predicted absolute FPS (degradation x profiled solo FPS).
  double PredictFps(const SessionRequest& victim,
                    std::span<const SessionRequest> corunners) const;

  /// RM: predicted FPS for every query of the batch.
  std::vector<double> PredictFpsBatch(
      std::span<const QosQuery> queries) const;

  /// CM when trained, else RM-thresholding: does `victim` meet `qos_fps`?
  bool PredictQosOk(double qos_fps, const SessionRequest& victim,
                    std::span<const SessionRequest> corunners) const;

  /// One verdict per query, from a single batched model evaluation of
  /// the cache misses.
  std::vector<char> PredictQosOkBatch(
      double qos_fps, std::span<const QosQuery> queries) const;

  /// All sessions meet QoS and the profiled memory demands fit.
  bool PredictFeasible(double qos_fps, const Colocation& colocation) const;

  /// PredictFeasible over a span of candidate colocations: the
  /// scheduler-facing scoring entry point, and GAugur(CM)'s
  /// Methodology::FeasibleBatch. Candidates failing ProfiledMemoryFits
  /// are infeasible and spend no query; the rest become one
  /// BuildVictimQueries batch and one batched model evaluation.
  std::vector<char> ScoreCandidates(
      double qos_fps, std::span<const Colocation> candidates) const;

  /// ScoreCandidates with full per-candidate provenance (memory screen,
  /// query count, cache hit count, worst margin) for the decision event
  /// log. Verdicts are bit-identical to ScoreCandidates — the plain call
  /// delegates here.
  std::vector<CandidateScore> ScoreCandidatesDetailed(
      double qos_fps, std::span<const Colocation> candidates) const;

  /// A shard-local handle onto this predictor for concurrent scoring:
  /// shares the trained models (immutable between retrains), the feature
  /// builder, and — deliberately — the striped PredictionCache, so one
  /// replica's miss warms every replica. Replicas are cheap (a few
  /// shared_ptr copies), must not be retrained (Train* CHECK-fails), and
  /// are safe to use from one thread each while no thread retrains the
  /// parent. `share_cache = false` gives the replica a private cache of
  /// the same geometry instead — the control arm bench_fleet_scale uses
  /// to measure what cross-shard warming is worth.
  GAugurPredictor MakeReplica(bool share_cache = true) const;
  bool IsReplica() const { return is_replica_; }

  const FeatureBuilder& Features() const { return *features_; }

  /// Cache introspection (tests and run reports). The cache object is
  /// shared across MakeReplica() copies, so stats/size reflect the whole
  /// replica group.
  std::size_t PredictionCacheSize() const { return cache_->Size(); }
  PredictionCache::Stats PredictionCacheStats() const {
    return cache_->GetStats();
  }
  const PredictionCache& Cache() const { return *cache_; }

 private:
  /// One memoized batch model evaluation. `values[i]` is query i's raw
  /// model output (clamped RM degradation or CM probability) — from the
  /// cache on a hit (`hits[i]` = 1), freshly evaluated on a miss — and
  /// `keys[i]` its audit join key. `entries` is filled only when
  /// `obs_on` (obs was on as the batch ran), for the audit: `entries[i]`
  /// is the cached entry on a hit, the one just inserted on a miss, and
  /// carries its feature row — a hit on an entry built with obs off gets
  /// a copy with the row rebuilt from the query.
  struct BatchEval {
    bool obs_on = false;
    std::vector<std::uint64_t> keys;
    std::vector<double> values;
    std::vector<char> hits;
    std::vector<std::shared_ptr<const CachedPrediction>> entries;
  };
  /// Evaluates the RM (`kind` = kRm; `qos_fps` is ignored) or the CM at
  /// `qos_fps` over `queries`. `precomputed_keys`, when non-empty,
  /// supplies ModelJoinKey per query (callers with incremental
  /// colocation hashes derive them in O(1)); empty means compute from
  /// the query itself. Either way the keys are identical by construction.
  BatchEval EvalBatch(obs::ModelKind kind, double qos_fps,
                      std::span<const QosQuery> queries,
                      std::span<const std::uint64_t> precomputed_keys = {})
      const;

  /// PredictQosOkBatch plus optional per-query provenance: when non-null,
  /// `cache_hit[i]` is whether query i was served from the cache and
  /// `margin[i]` its feasibility margin (see CandidateScore::min_margin).
  std::vector<char> QosOkBatchDetailed(
      double qos_fps, std::span<const QosQuery> queries,
      std::vector<char>* cache_hit, std::vector<double>* margin,
      std::span<const std::uint64_t> precomputed_keys = {}) const;

  /// Appends query's RM row (`kind` = kRm) or CM row at `qos_fps` to
  /// `out`.
  void AppendFeatures(obs::ModelKind kind, double qos_fps,
                      const QosQuery& query, std::vector<double>& out) const;

  /// Appends one RM audit record for `entry` to the global model monitor
  /// (call it only for a batch evaluated with obs on); the single-query
  /// entry points use it, the batch paths hand the monitor one batch.
  /// `qos_fps` is 0 for raw FPS queries.
  void AuditRm(std::uint64_t join_key, const CachedPrediction& entry,
               double predicted_fps, double qos_fps, bool decision) const;

  double SoloFps(const SessionRequest& victim) const {
    return features_->Profile(victim.game_id).SoloFps(victim.resolution);
  }

  const FeatureBuilder* features_;
  PredictorConfig config_;
  /// Shared with MakeReplica() copies; a model is immutable once trained
  /// (retrains swap behavior in place, which is why replicas may not
  /// retrain — see the CHECK in Train*OnDataset).
  std::shared_ptr<ml::Regressor> rm_;
  std::shared_ptr<ml::Classifier> cm_;
  bool rm_trained_ = false;
  bool cm_trained_ = false;
  bool is_replica_ = false;
  /// Shared across the replica group: one striped cache, so any
  /// replica's miss is every replica's hit.
  std::shared_ptr<PredictionCache> cache_;
};

}  // namespace gaugur::core
