// Online model-quality monitor: the feedback loop that tells us whether
// the CM/RM predictors are still trustworthy *in production*, not just at
// train time (FECBench / uPredict both stress this; PAPER.md §4-5 is the
// accuracy the fleet depends on).
//
// Data flow:
//   1. Every GAugurPredictor CM/RM call appends a PredictionRecord
//      (feature digest, predicted probability/FPS, threshold, decision)
//      to a bounded audit ring, keyed by a 64-bit join key derived from
//      (victim, co-runner set).
//   2. When the fleet simulator actually runs a colocation it reports the
//      realized per-session FPS through ObserveOutcome with the same key;
//      pending predictions join into OutcomeRecords.
//   3. On that stream the monitor keeps a rolling outcome window and
//      computes CM calibration (reliability bins, precision/recall/FPR),
//      RM error (MAE, p95 absolute error, bias), per-feature PSI drift
//      against a FeatureReference snapshot taken at fit time, and a
//      QoS-violation attribution (CM false positive / RM overestimate /
//      capacity pressure).
//
// Everything is exported two ways: live obs counters/gauges/histograms in
// the global registry (model_monitor.*), and a ModelMonitorSummary that
// serializes into the "model_monitor" section of the
// gaugur.obs.run_report/v5 schema (written only; nothing parses it back).
//
// All mutators are no-ops while obs::Enabled() is false; the disabled
// path is the usual relaxed-load + branch and stays inside the <2%
// bench_overhead budget.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/switch.h"

namespace gaugur::obs {

enum class ModelKind : std::uint8_t { kCm = 0, kRm = 1 };

inline const char* ModelKindName(ModelKind kind) {
  return kind == ModelKind::kCm ? "cm" : "rm";
}

/// FNV-1a digest of a feature vector's bit patterns — identifies the
/// exact input of a prediction without storing the (77+)-dim vector.
std::uint64_t FeatureDigest(std::span<const double> features);

/// Interior bin edges of every feature of a FeatureReference.
using BinEdges = std::vector<std::vector<double>>;

/// Bin index of `value` among ascending `edges` (upper_bound).
std::size_t BinIndex(const std::vector<double>& edges, double value);

/// What RecordPrediction derives from a feature vector, computed once per
/// distinct vector (ModelMonitor::Fingerprint) so that repeated audits of
/// it — prediction-cache hits — skip the hash and the binary searches.
struct FeatureFingerprint {
  std::uint64_t digest = 0;
  /// The edges `bins` were computed against, or null when there are no
  /// bins (no reference installed, a dimension mismatch, or a feature
  /// with more bins than uint16 holds). ModelMonitor::SetReference keeps
  /// one edges object per content, so pointer equality with the
  /// installed edges means the bins are still exact.
  std::shared_ptr<const BinEdges> edges;
  std::vector<std::uint16_t> bins;
};

/// One audited model call. `predicted` is the CM positive-class
/// probability or the RM predicted FPS; `decision` is the thresholded
/// verdict the scheduler acted on. `qos_fps` is 0 when the call carried
/// no QoS context (raw PredictFps audit entries).
struct PredictionRecord {
  std::uint64_t id = 0;           // monotonic sequence number
  ModelKind kind = ModelKind::kCm;
  std::uint64_t join_key = 0;     // core::ModelJoinKey(victim, corunners)
  std::uint64_t feature_digest = 0;
  double predicted = 0.0;
  double threshold = 0.0;
  bool decision = false;
  double qos_fps = 0.0;

  friend bool operator==(const PredictionRecord&,
                         const PredictionRecord&) = default;
};

/// Forensic context attached to an observed outcome: which shared
/// resource the contention model blames for the FPS dip, and which
/// colocated game relieves it most when removed. Filled by the fleet
/// simulator from lab::AttributeInterference; defaults mean "unknown".
struct OutcomeContext {
  /// resources::Name() of the dominant contended resource, or "" when
  /// no attribution was computed.
  std::string dominant_resource;
  /// Game id of the dominant colocated offender, or -1 when the victim
  /// ran alone / attribution was not computed.
  int offender_game_id = -1;

  bool Empty() const {
    return dominant_resource.empty() && offender_game_id < 0;
  }

  friend bool operator==(const OutcomeContext&,
                         const OutcomeContext&) = default;
};

/// A prediction joined with the realized FPS the simulator later measured
/// for the same (victim, co-runner set).
struct OutcomeRecord {
  PredictionRecord prediction;
  double realized_fps = 0.0;
  /// realized_fps < prediction.qos_fps (always false when qos_fps == 0).
  bool violated = false;

  friend bool operator==(const OutcomeRecord&, const OutcomeRecord&) = default;
};

/// Per-feature reference distribution snapshot, taken at model-fit
/// time (core::BuildFeatureReference) and compared against the online
/// feature stream via PSI. `edges[f]` are the interior bin edges of
/// feature f (ascending, possibly fewer than requested when the training
/// column has few distinct values); `probs[f]` has edges[f].size() + 1
/// reference proportions.
struct FeatureReference {
  std::vector<std::string> names;
  std::vector<std::vector<double>> edges;
  std::vector<std::vector<double>> probs;
  std::uint64_t samples = 0;

  std::size_t NumFeatures() const { return names.size(); }
  bool Empty() const { return names.empty(); }

  /// Bin index of `value` for feature `f` (upper_bound over the edges).
  std::size_t Bin(std::size_t f, double value) const;
};

/// One reliability bin of the CM calibration curve over the rolling
/// window: predictions with probability in [lo, hi).
struct CalibrationBin {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
  double mean_predicted = 0.0;  // average predicted probability in the bin
  double observed_rate = 0.0;   // fraction of realized positives

  friend bool operator==(const CalibrationBin&,
                         const CalibrationBin&) = default;
};

struct PsiEntry {
  std::string feature;
  double psi = 0.0;
  bool alert = false;  // psi > kPsiAlertThreshold

  friend bool operator==(const PsiEntry&, const PsiEntry&) = default;
};

/// Drift state of one model's online feature stream vs its reference.
struct DriftSummary {
  bool has_reference = false;
  std::uint64_t reference_samples = 0;
  std::uint64_t online_samples = 0;
  double max_psi = 0.0;
  std::uint64_t features_over_threshold = 0;
  std::vector<PsiEntry> features;

  friend bool operator==(const DriftSummary&, const DriftSummary&) = default;
};

/// The full monitor read-out; serializes as the "model_monitor" section
/// of the run-report /v5 schema.
struct ModelMonitorSummary {
  // Stream volumes (whole run, monotonic).
  std::uint64_t cm_predictions = 0;
  std::uint64_t rm_predictions = 0;
  std::uint64_t outcomes_joined = 0;
  std::uint64_t observations_unmatched = 0;
  std::uint64_t evicted_pending = 0;

  // Rolling window actually populated (<= config.window).
  std::uint64_t window = 0;

  // CM confusion over the window ("positive" = predicted/realized
  // feasible at the record's QoS).
  std::uint64_t cm_tp = 0, cm_fp = 0, cm_tn = 0, cm_fn = 0;
  double cm_precision = 0.0;
  double cm_recall = 0.0;
  double cm_fpr = 0.0;
  double cm_accuracy = 0.0;
  std::vector<CalibrationBin> cm_calibration;

  // RM error over the window (FPS units).
  std::uint64_t rm_outcomes = 0;
  double rm_mae_fps = 0.0;
  double rm_p95_abs_error_fps = 0.0;
  double rm_bias_fps = 0.0;  // mean(predicted - realized); >0 = optimistic

  // Feature drift per model.
  DriftSummary cm_drift;
  DriftSummary rm_drift;

  // QoS-violation attribution (whole run, monotonic): a violated joined
  // outcome whose prediction said "feasible" is a model miss; a violated
  // observation with no prediction on file (while the monitor has seen
  // predictions at all) is capacity pressure — the fleet ran a colocation
  // the models never approved.
  std::uint64_t attr_cm_false_positive = 0;
  std::uint64_t attr_rm_overestimate = 0;
  std::uint64_t attr_capacity_pressure = 0;

  // Resource/offender forensics (whole run, monotonic).
  /// Violated observations seen by ObserveOutcome — one per (victim,
  /// colocation) realization, matched or not. This is the total the
  /// event log's qos_violation events reconcile against.
  std::uint64_t qos_violations_observed = 0;
  /// Violations by dominant contended resource (resources::Name keys).
  std::map<std::string, std::uint64_t> attr_by_resource;
  /// Violations by dominant colocated offender (stringified game id).
  std::map<std::string, std::uint64_t> attr_offenders;

  JsonValue ToJson() const;

  friend bool operator==(const ModelMonitorSummary&,
                         const ModelMonitorSummary&) = default;
};

/// A feature drifts when its PSI exceeds this. Classic PSI rule of
/// thumb: < 0.1 stable, 0.1-0.2 moderate shift, > 0.2 action required.
inline constexpr double kPsiAlertThreshold = 0.2;

struct ModelMonitorConfig {
  /// Audit ring capacity; the oldest unresolved prediction is evicted
  /// when full.
  std::size_t ring_capacity = 4096;
  /// Rolling outcome window for calibration / error stats.
  std::size_t window = 512;
  /// Reliability bins over [0, 1] for the CM calibration curve.
  std::size_t calibration_bins = 10;
  /// Re-evaluate drift alerts every this many recorded predictions (the
  /// full PSI pass is O(features x bins)).
  std::size_t drift_check_interval = 64;
};

/// One audit record of a RecordPredictions batch: RecordPrediction's
/// arguments. `features` and `fingerprint` are only read during the call.
struct PredictionAudit {
  std::uint64_t join_key = 0;
  std::span<const double> features;
  double predicted = 0.0;
  double threshold = 0.0;
  bool decision = false;
  double qos_fps = 0.0;
  const FeatureFingerprint* fingerprint = nullptr;
};

/// Thread-safe online monitor: one mutex, taken once per recorded batch,
/// per observed outcome and per read-out. Use Global() for the
/// process-wide instance the predictor and fleet simulator share; tests
/// construct their own.
class ModelMonitor {
 public:
  explicit ModelMonitor(ModelMonitorConfig config = {});

  static ModelMonitor& Global();

  /// Drops all state (ring, window, drift accumulators, references) and
  /// optionally re-configures — test isolation and start-of-run resets.
  void Reset();
  void Configure(ModelMonitorConfig config);

  const ModelMonitorConfig& config() const { return config_; }

  /// Appends one audit record. No-op while obs::Enabled() is false.
  /// `fingerprint`, when non-null, must be Fingerprint(kind, features)
  /// from this monitor: its digest is used as is and its bins when they
  /// were computed against the installed reference's edges; otherwise
  /// the features are binned here. The record and counts are the same
  /// either way.
  void RecordPrediction(ModelKind kind, std::uint64_t join_key,
                        std::span<const double> features, double predicted,
                        double threshold, bool decision, double qos_fps,
                        const FeatureFingerprint* fingerprint = nullptr);

  /// Appends `batch` in order under one lock: the same records, drift
  /// checks and counts as one RecordPrediction call per entry, with the
  /// registry counters advanced once by the batch totals. No-op while
  /// obs::Enabled() is false.
  void RecordPredictions(ModelKind kind,
                         std::span<const PredictionAudit> batch);

  /// Digest of `features` and their bins against `kind`'s installed
  /// reference. Binning runs outside the monitor lock.
  FeatureFingerprint Fingerprint(ModelKind kind,
                                 std::span<const double> features) const;

  /// Reports the realized FPS of one (victim, co-runner set). Joins every
  /// pending prediction under `join_key`; with none pending, counts an
  /// unmatched observation (and, if violated while predictions exist at
  /// all, capacity pressure). No-op while obs::Enabled() is false.
  void ObserveOutcome(std::uint64_t join_key, double realized_fps,
                      double qos_fps) {
    ObserveOutcome(join_key, realized_fps, qos_fps, OutcomeContext{});
  }

  /// Same, with forensic context: when the outcome violated QoS, the
  /// dominant resource / offender tallies are deepened so the classic
  /// cm_false_positive / rm_overestimate / capacity_pressure attribution
  /// also answers *what* caused the dip.
  void ObserveOutcome(std::uint64_t join_key, double realized_fps,
                      double qos_fps, const OutcomeContext& context);

  /// Installs the fit-time feature-distribution snapshot drift is
  /// measured against. Resets that model's online drift accumulators.
  /// Fingerprints taken against an earlier reference with the same edges
  /// (e.g. the same one re-installed after Reset) stay valid.
  void SetReference(ModelKind kind, FeatureReference reference);
  /// Copy of the installed snapshot (empty when none was set).
  FeatureReference Reference(ModelKind kind) const;

  /// Whether any prediction has been recorded since the last Reset —
  /// RunReport::Capture attaches a summary only when true.
  bool HasData() const;

  ModelMonitorSummary Summary() const;

  /// Snapshot of the live audit ring, oldest first (tests/tooling).
  std::vector<PredictionRecord> AuditLog() const;
  /// Snapshot of the rolling outcome window, oldest first.
  std::vector<OutcomeRecord> RecentOutcomes() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Slot {
    bool used = false;
    bool pending = false;
    /// Next pending slot under the same join key (insertion order);
    /// kNoSlot at the chain's tail and in every slot not pending.
    std::uint32_t next = kNoSlot;
    PredictionRecord record;
  };

  /// One open-addressing entry: the pending chain of `key`, oldest slot
  /// first. `head == kNoSlot` marks an empty entry.
  struct Chain {
    std::uint64_t key = 0;
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  struct DriftState {
    FeatureReference reference;
    /// reference.edges, shared with the fingerprints binned against it.
    std::shared_ptr<const BinEdges> edges;
    std::vector<std::vector<std::uint64_t>> counts;  // per feature, per bin
    std::vector<bool> alerted;                       // per feature
    std::uint64_t samples = 0;

    void ResetOnline();
  };

  /// Appends one record; returns whether it evicted a pending slot.
  bool RecordLocked(ModelKind kind, DriftState& state,
                    const PredictionAudit& audit);
  /// The index entry holding `key`'s chain, or the empty entry where it
  /// would go (linear probing).
  std::size_t FindChainLocked(std::uint64_t key) const;
  /// Empties entry `index`, shifting later probes back (no tombstones).
  void EraseChainLocked(std::size_t index);
  void JoinLocked(std::size_t slot_index, double realized_fps);
  /// Drops the pending record in `slot_index`, the oldest in the ring and
  /// so the head of its chain.
  void EvictLocked(std::size_t slot_index);
  void PushOutcomeLocked(OutcomeRecord outcome);
  void EvaluateDriftLocked(DriftState& state);
  DriftSummary SummarizeDriftLocked(const DriftState& state) const;
  void UpdateQualityGaugesLocked();

  ModelMonitorConfig config_;

  mutable std::mutex mutex_;
  std::vector<Slot> ring_;
  std::size_t ring_head_ = 0;
  std::uint64_t next_id_ = 0;
  /// Pending chains by join key: a power of two at least twice
  /// ring_capacity, so at most half full (each chain holds a pending
  /// slot). Sized once by Configure.
  std::vector<Chain> chains_;

  std::deque<OutcomeRecord> window_;
  // Incremental window aggregates (added on push, removed on evict).
  std::uint64_t cm_tp_ = 0, cm_fp_ = 0, cm_tn_ = 0, cm_fn_ = 0;
  std::uint64_t rm_outcomes_ = 0;
  double rm_sum_abs_err_ = 0.0;
  double rm_sum_signed_err_ = 0.0;

  DriftState drift_[2];  // indexed by ModelKind
  /// The last edges installed per kind; kept across Reset so that
  /// re-installing equal edges keeps cached fingerprints valid.
  std::shared_ptr<const BinEdges> last_edges_[2];

  // Whole-run monotonic tallies (mirrored as model_monitor.* counters).
  std::uint64_t cm_predictions_ = 0;
  std::uint64_t rm_predictions_ = 0;
  std::uint64_t outcomes_joined_ = 0;
  std::uint64_t observations_unmatched_ = 0;
  std::uint64_t evicted_pending_ = 0;
  std::uint64_t attr_cm_false_positive_ = 0;
  std::uint64_t attr_rm_overestimate_ = 0;
  std::uint64_t attr_capacity_pressure_ = 0;
  std::uint64_t drift_alert_events_ = 0;
  std::uint64_t qos_violations_observed_ = 0;
  std::map<std::string, std::uint64_t> attr_by_resource_;
  std::map<std::string, std::uint64_t> attr_offenders_;
};

/// Population Stability Index between a reference distribution and online
/// bin counts (with proportion flooring so empty bins stay finite).
/// Exposed for tests.
double PopulationStabilityIndex(std::span<const double> reference_probs,
                                std::span<const std::uint64_t> online_counts);

}  // namespace gaugur::obs
