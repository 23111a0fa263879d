#include "obs/model_monitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/switch.h"

namespace gaugur::obs {
namespace {

std::vector<double> Feat(double a, double b = 2.0) { return {a, b}; }

/// A synthetic uniform-over-[0,1) single-feature reference with 4 bins.
FeatureReference UniformReference() {
  FeatureReference reference;
  reference.names = {"f0"};
  reference.edges = {{0.25, 0.5, 0.75}};
  reference.probs = {{0.25, 0.25, 0.25, 0.25}};
  reference.samples = 1000;
  return reference;
}

TEST(FeatureDigestTest, DeterministicAndInputSensitive) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.0000001};
  EXPECT_EQ(FeatureDigest(a), FeatureDigest(a));
  EXPECT_NE(FeatureDigest(a), FeatureDigest(b));
  EXPECT_NE(FeatureDigest(a), FeatureDigest({}));
}

TEST(PsiTest, IdenticalDistributionIsZero) {
  const std::vector<double> reference = {0.25, 0.25, 0.25, 0.25};
  const std::vector<std::uint64_t> online = {25, 25, 25, 25};
  EXPECT_NEAR(PopulationStabilityIndex(reference, online), 0.0, 1e-12);
}

TEST(PsiTest, ShiftedDistributionExceedsAlertThreshold) {
  const std::vector<double> reference = {0.25, 0.25, 0.25, 0.25};
  // All online mass collapsed into one bin: a drastic shift.
  const std::vector<std::uint64_t> online = {100, 0, 0, 0};
  const double psi = PopulationStabilityIndex(reference, online);
  EXPECT_GT(psi, 0.2);
  // PSI is finite despite the empty bins (proportion floor).
  EXPECT_TRUE(std::isfinite(psi));
}

TEST(PsiTest, EmptyOnlineStreamIsZero) {
  const std::vector<double> reference = {0.5, 0.5};
  const std::vector<std::uint64_t> online = {0, 0};
  EXPECT_EQ(PopulationStabilityIndex(reference, online), 0.0);
}

TEST(FeatureReferenceTest, BinUsesUpperBoundOverEdges) {
  FeatureReference reference;
  reference.names = {"x"};
  reference.edges = {{1.0, 2.0}};
  reference.probs = {{0.3, 0.3, 0.4}};
  EXPECT_EQ(reference.Bin(0, 0.5), 0u);
  EXPECT_EQ(reference.Bin(0, 1.0), 1u);  // values on an edge go right
  EXPECT_EQ(reference.Bin(0, 1.5), 1u);
  EXPECT_EQ(reference.Bin(0, 5.0), 2u);
}

TEST(ModelMonitorTest, JoinsPredictionWithOutcomeAndAttributesMisses) {
  EnabledScope on(true);
  ModelMonitor monitor;

  // CM said "feasible" (prob 0.9 >= 0.5) but the player landed at 50 FPS
  // against a 60 FPS QoS: a CM false positive.
  monitor.RecordPrediction(ModelKind::kCm, 1, Feat(1.0), 0.9, 0.5, true,
                           60.0);
  monitor.ObserveOutcome(1, 50.0, 60.0);

  // RM predicted 70 FPS, decision "feasible", realized 50: overestimate.
  monitor.RecordPrediction(ModelKind::kRm, 2, Feat(2.0), 70.0, 60.0, true,
                           60.0);
  monitor.ObserveOutcome(2, 50.0, 60.0);

  // A violated colocation with no prediction on file: capacity pressure.
  monitor.ObserveOutcome(99, 40.0, 60.0);

  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.cm_predictions, 1u);
  EXPECT_EQ(summary.rm_predictions, 1u);
  EXPECT_EQ(summary.outcomes_joined, 2u);
  EXPECT_EQ(summary.observations_unmatched, 1u);
  EXPECT_EQ(summary.cm_fp, 1u);
  EXPECT_EQ(summary.rm_outcomes, 1u);
  EXPECT_NEAR(summary.rm_mae_fps, 20.0, 1e-12);
  EXPECT_NEAR(summary.rm_bias_fps, 20.0, 1e-12);
  EXPECT_EQ(summary.attr_cm_false_positive, 1u);
  EXPECT_EQ(summary.attr_rm_overestimate, 1u);
  EXPECT_EQ(summary.attr_capacity_pressure, 1u);
}

TEST(ModelMonitorTest, OneObservationJoinsEveryPendingRecordUnderItsKey) {
  EnabledScope on(true);
  ModelMonitor monitor;
  // The scheduler typically asks both models about the same placement.
  monitor.RecordPrediction(ModelKind::kCm, 5, Feat(1.0), 0.8, 0.5, true,
                           60.0);
  monitor.RecordPrediction(ModelKind::kRm, 5, Feat(1.0), 65.0, 60.0, true,
                           60.0);
  monitor.ObserveOutcome(5, 66.0, 60.0);

  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.outcomes_joined, 2u);
  EXPECT_EQ(summary.cm_tp, 1u);
  EXPECT_EQ(summary.rm_outcomes, 1u);
  EXPECT_NEAR(summary.rm_mae_fps, 1.0, 1e-12);
  EXPECT_NEAR(summary.rm_bias_fps, -1.0, 1e-12);
  // A second observation of the same key finds nothing pending.
  monitor.ObserveOutcome(5, 66.0, 60.0);
  EXPECT_EQ(monitor.Summary().observations_unmatched, 1u);
}

TEST(ModelMonitorTest, ConfusionMatrixAndDerivedRatesOverWindow) {
  EnabledScope on(true);
  ModelMonitor monitor;
  const auto cm = [&](std::uint64_t key, double prob, bool decision,
                      double realized) {
    monitor.RecordPrediction(ModelKind::kCm, key, Feat(prob), prob, 0.5,
                             decision, 60.0);
    monitor.ObserveOutcome(key, realized, 60.0);
  };
  cm(1, 0.9, true, 70.0);   // tp
  cm(2, 0.8, true, 50.0);   // fp
  cm(3, 0.2, false, 50.0);  // tn
  cm(4, 0.3, false, 70.0);  // fn

  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.cm_tp, 1u);
  EXPECT_EQ(summary.cm_fp, 1u);
  EXPECT_EQ(summary.cm_tn, 1u);
  EXPECT_EQ(summary.cm_fn, 1u);
  EXPECT_NEAR(summary.cm_precision, 0.5, 1e-12);
  EXPECT_NEAR(summary.cm_recall, 0.5, 1e-12);
  EXPECT_NEAR(summary.cm_fpr, 0.5, 1e-12);
  EXPECT_NEAR(summary.cm_accuracy, 0.5, 1e-12);
}

TEST(ModelMonitorTest, CalibrationBinsReflectObservedRates) {
  EnabledScope on(true);
  ModelMonitorConfig config;
  config.calibration_bins = 10;
  ModelMonitor monitor(config);
  const auto cm = [&](std::uint64_t key, double prob, double realized) {
    monitor.RecordPrediction(ModelKind::kCm, key, Feat(prob), prob, 0.5,
                             prob >= 0.5, 60.0);
    monitor.ObserveOutcome(key, realized, 60.0);
  };
  cm(1, 0.95, 70.0);  // bin 9, positive
  cm(2, 0.95, 50.0);  // bin 9, negative
  cm(3, 0.05, 50.0);  // bin 0, negative

  const ModelMonitorSummary summary = monitor.Summary();
  ASSERT_EQ(summary.cm_calibration.size(), 10u);
  const CalibrationBin& top = summary.cm_calibration[9];
  EXPECT_EQ(top.count, 2u);
  EXPECT_NEAR(top.mean_predicted, 0.95, 1e-12);
  EXPECT_NEAR(top.observed_rate, 0.5, 1e-12);
  const CalibrationBin& bottom = summary.cm_calibration[0];
  EXPECT_EQ(bottom.count, 1u);
  EXPECT_NEAR(bottom.observed_rate, 0.0, 1e-12);
  EXPECT_NEAR(bottom.lo, 0.0, 1e-12);
  EXPECT_NEAR(bottom.hi, 0.1, 1e-12);
}

TEST(ModelMonitorTest, RollingWindowEvictsOldOutcomesFromAggregates) {
  EnabledScope on(true);
  ModelMonitorConfig config;
  config.window = 2;
  ModelMonitor monitor(config);
  const auto rm = [&](std::uint64_t key, double predicted, double realized) {
    monitor.RecordPrediction(ModelKind::kRm, key, Feat(predicted), predicted,
                             0.0, false, 0.0);
    monitor.ObserveOutcome(key, realized, 0.0);
  };
  rm(1, 60.0, 50.0);  // |err| 10 — evicted once the window fills
  rm(2, 60.0, 40.0);  // |err| 20
  rm(3, 60.0, 30.0);  // |err| 30

  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.window, 2u);
  EXPECT_EQ(summary.rm_outcomes, 2u);
  EXPECT_NEAR(summary.rm_mae_fps, 25.0, 1e-12);
  // Whole-run tallies are monotonic and unaffected by window eviction.
  EXPECT_EQ(summary.outcomes_joined, 3u);
  // p95 over the two windowed errors is the larger one (nearest rank).
  EXPECT_NEAR(summary.rm_p95_abs_error_fps, 30.0, 1e-12);
  ASSERT_EQ(monitor.RecentOutcomes().size(), 2u);
  EXPECT_EQ(monitor.RecentOutcomes()[0].prediction.join_key, 2u);
}

TEST(ModelMonitorTest, RingEvictsOldestPendingPredictionWhenFull) {
  EnabledScope on(true);
  ModelMonitorConfig config;
  config.ring_capacity = 2;
  ModelMonitor monitor(config);
  monitor.RecordPrediction(ModelKind::kCm, 1, Feat(1.0), 0.9, 0.5, true,
                           60.0);
  monitor.RecordPrediction(ModelKind::kCm, 2, Feat(2.0), 0.9, 0.5, true,
                           60.0);
  monitor.RecordPrediction(ModelKind::kCm, 3, Feat(3.0), 0.9, 0.5, true,
                           60.0);  // evicts key 1

  EXPECT_EQ(monitor.Summary().evicted_pending, 1u);
  monitor.ObserveOutcome(1, 70.0, 60.0);  // its prediction is gone
  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.observations_unmatched, 1u);
  EXPECT_EQ(summary.outcomes_joined, 0u);
  // The audit log holds the surviving (newest) records in id order.
  const auto log = monitor.AuditLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].join_key, 2u);
  EXPECT_EQ(log[1].join_key, 3u);
  EXPECT_LT(log[0].id, log[1].id);
}

TEST(ModelMonitorTest, DriftDetectedAgainstShiftedSyntheticDistribution) {
  EnabledScope on(true);
  ModelMonitorConfig config;
  config.drift_check_interval = 16;
  ModelMonitor monitor(config);
  monitor.SetReference(ModelKind::kRm, UniformReference());

  // Online stream collapsed into the top bin: drastic shift vs uniform.
  for (std::uint64_t i = 0; i < 64; ++i) {
    monitor.RecordPrediction(ModelKind::kRm, 1000 + i,
                             std::vector<double>{0.9}, 50.0, 0.0, false,
                             0.0);
  }
  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_TRUE(summary.rm_drift.has_reference);
  EXPECT_EQ(summary.rm_drift.reference_samples, 1000u);
  EXPECT_EQ(summary.rm_drift.online_samples, 64u);
  ASSERT_EQ(summary.rm_drift.features.size(), 1u);
  EXPECT_GT(summary.rm_drift.max_psi, 0.2);
  EXPECT_TRUE(summary.rm_drift.features[0].alert);
  EXPECT_EQ(summary.rm_drift.features_over_threshold, 1u);
  // The CM side has no reference installed.
  EXPECT_FALSE(summary.cm_drift.has_reference);

  // An on-distribution stream stays calm.
  ModelMonitor calm(config);
  calm.SetReference(ModelKind::kRm, UniformReference());
  for (std::uint64_t i = 0; i < 64; ++i) {
    const double value = (static_cast<double>(i % 16) + 0.5) / 16.0;
    calm.RecordPrediction(ModelKind::kRm, 2000 + i,
                          std::vector<double>{value}, 50.0, 0.0, false,
                          0.0);
  }
  const ModelMonitorSummary calm_summary = calm.Summary();
  EXPECT_LT(calm_summary.rm_drift.max_psi, 0.1);
  EXPECT_EQ(calm_summary.rm_drift.features_over_threshold, 0u);
}

TEST(ModelMonitorTest, MismatchedFeatureDimensionSkipsDriftAccounting) {
  EnabledScope on(true);
  ModelMonitor monitor;
  monitor.SetReference(ModelKind::kCm, UniformReference());  // 1 feature
  monitor.RecordPrediction(ModelKind::kCm, 1, Feat(0.5, 0.5), 0.9, 0.5,
                           true, 60.0);  // 2 features
  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.cm_drift.online_samples, 0u);
  EXPECT_EQ(summary.cm_predictions, 1u);  // the audit record still lands
}

/// Three features with uneven reference proportions, so each bin has its
/// own PSI contribution and a mis-binned sample shows in the summary.
FeatureReference SkewedReference() {
  FeatureReference reference;
  reference.names = {"f0", "f1", "f2"};
  reference.edges = {{0.25, 0.5, 0.75}, {0.1, 0.9}, {0.5}};
  reference.probs = {{0.4, 0.3, 0.2, 0.1}, {0.6, 0.3, 0.1}, {0.8, 0.2}};
  reference.samples = 500;
  return reference;
}

std::uint64_t DriftAlertsCounter() {
  return Registry::Global().GetCounter("model_monitor.drift_alerts").Value();
}

/// Records one seeded stream (on-distribution, then shifted, values on
/// the edges included) into a fresh monitor, with or without
/// fingerprints; returns the summary, audit log and drift alerts raised.
struct StreamResult {
  ModelMonitorSummary summary;
  std::vector<PredictionRecord> audit;
  std::uint64_t drift_alerts = 0;
};

StreamResult RecordSkewedStream(bool fingerprinted) {
  ModelMonitorConfig config;
  config.drift_check_interval = 8;
  config.ring_capacity = 64;
  ModelMonitor monitor(config);
  monitor.SetReference(ModelKind::kCm, SkewedReference());
  monitor.SetReference(ModelKind::kRm, SkewedReference());
  const std::uint64_t alerts_before = DriftAlertsCounter();
  std::uint64_t state = 12345;
  const auto uniform = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (std::uint64_t i = 0; i < 400; ++i) {
    const double shift = i < 200 ? 0.0 : 0.6;
    std::vector<double> x = {uniform() * (1.0 - shift) + shift, uniform(),
                             i % 5 == 0 ? 0.5 : uniform()};
    if (i % 7 == 0) x[0] = 0.75;  // exactly on an edge
    const ModelKind kind = i % 3 == 0 ? ModelKind::kRm : ModelKind::kCm;
    const FeatureFingerprint fingerprint = monitor.Fingerprint(kind, x);
    monitor.RecordPrediction(kind, i % 50, x, uniform(), 0.5, i % 2 == 0,
                             60.0, fingerprinted ? &fingerprint : nullptr);
    if (i % 4 == 0) monitor.ObserveOutcome(i % 50, 55.0 + (i % 10), 60.0);
  }
  return {monitor.Summary(), monitor.AuditLog(),
          DriftAlertsCounter() - alerts_before};
}

TEST(ModelMonitorFingerprintTest, FingerprintedStreamMatchesPlainStream) {
  EnabledScope on(true);
  const StreamResult plain = RecordSkewedStream(/*fingerprinted=*/false);
  const StreamResult fingerprinted = RecordSkewedStream(true);
  EXPECT_EQ(fingerprinted.summary, plain.summary);
  EXPECT_EQ(fingerprinted.audit, plain.audit);
  EXPECT_EQ(fingerprinted.drift_alerts, plain.drift_alerts);
  // The stream is shaped to drift, so the comparison covers alerts.
  EXPECT_GT(plain.drift_alerts, 0u);
  EXPECT_GT(plain.summary.cm_drift.features_over_threshold, 0u);
}

TEST(ModelMonitorFingerprintTest, FingerprintCarriesDigestAndBins) {
  ModelMonitor monitor;
  const std::vector<double> x = {0.75, 0.05, 0.9};
  FeatureFingerprint none = monitor.Fingerprint(ModelKind::kCm, x);
  EXPECT_EQ(none.digest, FeatureDigest(x));
  EXPECT_EQ(none.edges, nullptr);  // no reference installed
  EXPECT_TRUE(none.bins.empty());

  monitor.SetReference(ModelKind::kCm, SkewedReference());
  const FeatureFingerprint fingerprint = monitor.Fingerprint(ModelKind::kCm, x);
  EXPECT_EQ(fingerprint.digest, FeatureDigest(x));
  ASSERT_NE(fingerprint.edges, nullptr);
  EXPECT_EQ(fingerprint.bins, (std::vector<std::uint16_t>{3, 0, 1}));
  // Dimension mismatch: no bins.
  EXPECT_EQ(monitor.Fingerprint(ModelKind::kCm, Feat(0.5)).edges, nullptr);
}

TEST(ModelMonitorFingerprintTest, ReinstalledEqualEdgesKeepFingerprintsValid) {
  EnabledScope on(true);
  ModelMonitor monitor;
  monitor.SetReference(ModelKind::kCm, SkewedReference());
  const std::vector<double> x = {0.3, 0.5, 0.7};
  const FeatureFingerprint before = monitor.Fingerprint(ModelKind::kCm, x);

  // The start-of-run pattern: Reset, then install the same reference.
  monitor.Reset();
  FeatureReference same = SkewedReference();
  same.samples = 999;  // identity is the edges, not the rest
  monitor.SetReference(ModelKind::kCm, same);
  EXPECT_EQ(monitor.Fingerprint(ModelKind::kCm, x).edges, before.edges);

  FeatureReference moved = SkewedReference();
  moved.edges[1][1] = 0.95;
  monitor.SetReference(ModelKind::kCm, moved);
  EXPECT_NE(monitor.Fingerprint(ModelKind::kCm, x).edges, before.edges);
}

TEST(ModelMonitorFingerprintTest, OneUlpEdgeMoveForcesRebinning) {
  EnabledScope on(true);
  const FeatureReference original = SkewedReference();
  FeatureReference moved = original;
  moved.edges[0][2] = std::nextafter(0.75, 1.0);
  // On `original`, 0.75 lands above the edge (bin 3); on `moved` below
  // it (bin 2).
  const std::vector<double> x = {0.75, 0.5, 0.25};

  ModelMonitor stale;
  stale.SetReference(ModelKind::kCm, original);
  const FeatureFingerprint fingerprint = stale.Fingerprint(ModelKind::kCm, x);
  ASSERT_EQ(fingerprint.bins[0], 3u);
  stale.SetReference(ModelKind::kCm, moved);
  stale.RecordPrediction(ModelKind::kCm, 1, x, 0.9, 0.5, true, 60.0,
                         &fingerprint);

  ModelMonitor plain;
  plain.SetReference(ModelKind::kCm, moved);
  plain.RecordPrediction(ModelKind::kCm, 1, x, 0.9, 0.5, true, 60.0);
  EXPECT_EQ(stale.Summary(), plain.Summary());

  // The fingerprint's bins would have given a different PSI.
  ModelMonitor on_original;
  on_original.SetReference(ModelKind::kCm, original);
  on_original.RecordPrediction(ModelKind::kCm, 1, x, 0.9, 0.5, true, 60.0);
  EXPECT_NE(on_original.Summary().cm_drift.features[0].psi,
            plain.Summary().cm_drift.features[0].psi);
}

TEST(ModelMonitorFingerprintTest, FeatureWithMoreBinsThanUint16FallsBack) {
  EnabledScope on(true);
  FeatureReference wide;
  wide.names = {"wide"};
  wide.edges.emplace_back();
  for (int i = 0; i < 70000; ++i) {
    wide.edges[0].push_back(static_cast<double>(i));
  }
  wide.probs = {std::vector<double>(wide.edges[0].size() + 1,
                                    1.0 / static_cast<double>(70001))};
  const std::vector<double> x = {69999.5};

  ModelMonitor with;
  with.SetReference(ModelKind::kRm, wide);
  const FeatureFingerprint fingerprint = with.Fingerprint(ModelKind::kRm, x);
  EXPECT_EQ(fingerprint.edges, nullptr);
  EXPECT_TRUE(fingerprint.bins.empty());
  with.RecordPrediction(ModelKind::kRm, 1, x, 50.0, 0.0, false, 0.0,
                        &fingerprint);

  ModelMonitor without;
  without.SetReference(ModelKind::kRm, wide);
  without.RecordPrediction(ModelKind::kRm, 1, x, 50.0, 0.0, false, 0.0);
  EXPECT_EQ(with.Summary(), without.Summary());
  EXPECT_EQ(with.Summary().rm_drift.online_samples, 1u);
}

TEST(ModelMonitorTest, DisabledMutatorsAreNoops) {
  ModelMonitor monitor;
  {
    EnabledScope off(false);
    monitor.RecordPrediction(ModelKind::kCm, 1, Feat(1.0), 0.9, 0.5, true,
                             60.0);
    monitor.ObserveOutcome(1, 50.0, 60.0);
  }
  EXPECT_FALSE(monitor.HasData());
  const ModelMonitorSummary summary = monitor.Summary();
  EXPECT_EQ(summary.cm_predictions + summary.rm_predictions, 0u);
  EXPECT_EQ(summary.observations_unmatched, 0u);
}

TEST(ModelMonitorTest, ResetClearsAllState) {
  EnabledScope on(true);
  ModelMonitor monitor;
  monitor.SetReference(ModelKind::kRm, UniformReference());
  monitor.RecordPrediction(ModelKind::kRm, 1, std::vector<double>{0.9},
                           50.0, 0.0, false, 0.0);
  ASSERT_TRUE(monitor.HasData());
  monitor.Reset();
  EXPECT_FALSE(monitor.HasData());
  EXPECT_TRUE(monitor.Reference(ModelKind::kRm).Empty());
  EXPECT_TRUE(monitor.AuditLog().empty());
}

TEST(ModelMonitorTest, SummaryJsonRoundTripsExactly) {
  EnabledScope on(true);
  ModelMonitor monitor;
  monitor.SetReference(ModelKind::kRm, UniformReference());
  monitor.RecordPrediction(ModelKind::kCm, 1, Feat(1.0), 0.62, 0.5, true,
                           60.0);
  monitor.ObserveOutcome(1, 58.31, 60.0);
  monitor.RecordPrediction(ModelKind::kRm, 2, std::vector<double>{0.77},
                           63.117, 60.0, true, 60.0);
  monitor.ObserveOutcome(2, 59.993, 60.0);
  monitor.ObserveOutcome(3, 41.5, 60.0);

  const ModelMonitorSummary summary = monitor.Summary();
  // The written document survives serialized text exactly (shortest
  // round-trippable numbers), and re-dumping it reproduces the text.
  const JsonValue doc = summary.ToJson();
  const std::string text = doc.Dump(2);
  const JsonValue parsed = JsonValue::Parse(text);
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(parsed.Dump(2), text);
  EXPECT_EQ(parsed.Find("rm")->Find("mae_fps")->AsNumber(),
            summary.rm_mae_fps);
  EXPECT_EQ(parsed.Find("cm")->Find("drift")->Find("max_psi")->AsNumber(),
            summary.cm_drift.max_psi);
}

TEST(ModelMonitorTest, ConcurrentRecordObserveAndSummarize) {
  EnabledScope on(true);
  ModelMonitorConfig config;
  config.ring_capacity = 1 << 15;
  ModelMonitor monitor(config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&monitor, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto key =
            static_cast<std::uint64_t>(t) * 100000 +
            static_cast<std::uint64_t>(i);
        const double prob = static_cast<double>(i % 100) / 100.0;
        monitor.RecordPrediction(t % 2 == 0 ? ModelKind::kCm
                                            : ModelKind::kRm,
                                 key, std::vector<double>{prob}, prob, 0.5,
                                 prob >= 0.5, 60.0);
        monitor.ObserveOutcome(key, 55.0 + static_cast<double>(i % 10),
                               60.0);
      }
    });
  }
  threads.emplace_back([&monitor] {
    for (int i = 0; i < 200; ++i) {
      (void)monitor.Summary();
      (void)monitor.AuditLog();
      (void)monitor.RecentOutcomes();
      (void)monitor.HasData();
    }
  });
  for (auto& thread : threads) thread.join();

  const ModelMonitorSummary summary = monitor.Summary();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(summary.cm_predictions + summary.rm_predictions, total);
  // Keys are unique, so every observation either joined its own record or
  // (if the ring wrapped first) went unmatched — never both.
  EXPECT_EQ(summary.outcomes_joined + summary.observations_unmatched, total);
}

/// The model_monitor.* registry counters, as a delta over `baseline`.
std::map<std::string, std::uint64_t> MonitorCounterDelta(
    const Snapshot& baseline) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] :
       Registry::Global().Snap().DeltaSince(baseline).counters) {
    if (name.rfind("model_monitor.", 0) == 0) counters[name] = value;
  }
  return counters;
}

/// Everything a monitor exposes after one traffic run.
struct MonitorState {
  std::vector<PredictionRecord> audit;
  std::vector<OutcomeRecord> outcomes;
  std::string summary;
  std::map<std::string, std::uint64_t> counters;
  ModelMonitorSummary raw;
};

/// Replays one seeded traffic stream into a fresh monitor: batches of
/// 1..100 records over 12 join keys, each batch of one kind, every third
/// record carrying its fingerprint, with outcomes observed between
/// batches. `batched` hands each batch to RecordPredictions; otherwise
/// every record is its own RecordPrediction call.
MonitorState ReplayTraffic(bool batched) {
  ModelMonitorConfig config;
  config.ring_capacity = 97;
  config.window = 40;
  ModelMonitor monitor(config);
  monitor.SetReference(ModelKind::kCm, SkewedReference());
  monitor.SetReference(ModelKind::kRm, SkewedReference());
  const Snapshot baseline = Registry::Global().Snap();
  std::uint64_t state = 424242;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  const auto uniform = [&next] {
    return static_cast<double>(next()) / static_cast<double>(1ull << 31);
  };
  for (int b = 0; b < 60; ++b) {
    const ModelKind kind = next() % 2 == 0 ? ModelKind::kCm : ModelKind::kRm;
    const std::size_t n = 1 + next() % 100;
    std::vector<std::vector<double>> rows(n);
    std::vector<FeatureFingerprint> fingerprints(n);
    std::vector<PredictionAudit> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = {uniform(), uniform(), uniform()};
      fingerprints[i] = monitor.Fingerprint(kind, rows[i]);
      batch[i].join_key = next() % 12;
      batch[i].features = rows[i];
      batch[i].predicted = kind == ModelKind::kCm ? uniform()
                                                  : 40.0 + 40.0 * uniform();
      batch[i].threshold = kind == ModelKind::kCm ? 0.5 : 60.0;
      batch[i].decision = batch[i].predicted >= batch[i].threshold;
      batch[i].qos_fps = next() % 4 == 0 ? 0.0 : 60.0;
      batch[i].fingerprint = i % 3 == 0 ? &fingerprints[i] : nullptr;
    }
    if (batched) {
      monitor.RecordPredictions(kind, batch);
    } else {
      for (const PredictionAudit& a : batch) {
        monitor.RecordPrediction(kind, a.join_key, a.features, a.predicted,
                                 a.threshold, a.decision, a.qos_fps,
                                 a.fingerprint);
      }
    }
    for (std::uint64_t k = next() % 6; k > 0; --k) {
      OutcomeContext context;
      context.dominant_resource = next() % 2 == 0 ? "GPU-CE" : "";
      context.offender_game_id = static_cast<int>(next() % 5) - 1;
      monitor.ObserveOutcome(next() % 14, 45.0 + 30.0 * uniform(), 60.0,
                             context);
    }
  }
  MonitorState result;
  result.audit = monitor.AuditLog();
  result.outcomes = monitor.RecentOutcomes();
  result.raw = monitor.Summary();
  result.summary = result.raw.ToJson().Dump();
  result.counters = MonitorCounterDelta(baseline);
  return result;
}

TEST(ModelMonitorTest, BatchAuditMatchesPerRecordCalls) {
  EnabledScope on(true);
  const MonitorState single = ReplayTraffic(/*batched=*/false);
  const MonitorState batched = ReplayTraffic(/*batched=*/true);
  // The traffic exercised what batching could get wrong: the ring
  // wrapped over pending records, outcomes joined between batches, and
  // batches crossed the 64-sample drift check.
  EXPECT_GT(single.raw.evicted_pending, 0u);
  EXPECT_GT(single.raw.outcomes_joined, 0u);
  EXPECT_GT(single.raw.observations_unmatched, 0u);
  EXPECT_GT(single.raw.cm_drift.online_samples, 64u);
  EXPECT_GT(single.raw.rm_drift.online_samples, 64u);
  EXPECT_EQ(single.counters.count("model_monitor.drift_alerts"), 1u);

  EXPECT_EQ(batched.audit, single.audit);
  EXPECT_EQ(batched.outcomes, single.outcomes);
  EXPECT_EQ(batched.summary, single.summary);
  EXPECT_EQ(batched.counters, single.counters);
}

TEST(ModelMonitorTest, ConcurrentBatchesAndOutcomes) {
  EnabledScope on(true);
  ModelMonitorConfig config;
  config.ring_capacity = 256;
  ModelMonitor monitor(config);
  constexpr std::uint64_t kKeys = 64;
  constexpr int kBatches = 300;
  constexpr std::size_t kBatchSize = 17;
  std::atomic<bool> recording{true};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 2; ++t) {
    recorders.emplace_back([&monitor, t] {
      const std::vector<double> row = {0.5};
      std::vector<PredictionAudit> batch(kBatchSize);
      for (int b = 0; b < kBatches; ++b) {
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          // Both threads share the keys, so their records interleave in
          // the same chains.
          batch[i].join_key = (static_cast<std::uint64_t>(b) * kBatchSize +
                               i * 7 + static_cast<std::uint64_t>(t)) %
                              kKeys;
          batch[i].features = row;
          batch[i].predicted = 0.7;
          batch[i].threshold = 0.5;
          batch[i].decision = true;
          batch[i].qos_fps = 60.0;
        }
        monitor.RecordPredictions(t == 0 ? ModelKind::kCm : ModelKind::kRm,
                                  batch);
      }
    });
  }
  std::thread observer([&monitor, &recording] {
    for (std::uint64_t i = 0; recording.load(); ++i) {
      monitor.ObserveOutcome(i % kKeys, 55.0 + static_cast<double>(i % 10),
                             60.0);
    }
  });
  for (std::thread& thread : recorders) thread.join();
  recording.store(false);
  observer.join();
  // Drain: every record was joined or evicted exactly once.
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    monitor.ObserveOutcome(key, 61.0, 60.0);
  }
  const ModelMonitorSummary summary = monitor.Summary();
  const std::uint64_t total = 2ull * kBatches * kBatchSize;
  EXPECT_EQ(summary.cm_predictions, total / 2);
  EXPECT_EQ(summary.rm_predictions, total / 2);
  EXPECT_EQ(summary.outcomes_joined + summary.evicted_pending, total);
  // The audit ring holds the newest records, ids ascending.
  const std::vector<PredictionRecord> audit = monitor.AuditLog();
  ASSERT_EQ(audit.size(), config.ring_capacity);
  EXPECT_EQ(audit.back().id, total - 1);
}

TEST(RunReportV2Test, CaptureAttachesModelMonitorSectionAndRoundTrips) {
  EnabledScope on(true);
  ModelMonitor& monitor = ModelMonitor::Global();
  monitor.Reset();
  monitor.RecordPrediction(ModelKind::kCm, 7, Feat(1.0), 0.9, 0.5, true,
                           60.0);
  monitor.ObserveOutcome(7, 72.5, 60.0);

  obs::RunReport report = RunReport::Capture("monitor-roundtrip");
  ASSERT_TRUE(report.model_monitor().has_value());
  const std::string json = report.ToJsonString();
  const JsonValue doc = JsonValue::Parse(json);
  EXPECT_EQ(doc.Find("schema")->AsString(), kRunReportSchema);
  ASSERT_NE(doc.Find("model_monitor"), nullptr);
  // The section is the summary's own JSON, unchanged by the text trip.
  EXPECT_EQ(*doc.Find("model_monitor"), report.model_monitor()->ToJson());
  // The text rendering mentions the monitor.
  EXPECT_NE(report.ToText().find("model monitor"), std::string::npos);
  monitor.Reset();
}

TEST(RunReportV2Test, DocumentWithoutMonitorSectionParses) {
  const RunReport parsed = RunReport::FromJsonString(
      R"({"schema": "gaugur.obs.run_report/v5", "name": "bare",)"
      R"( "counters": {"lab.measurements": 3}})");
  EXPECT_EQ(parsed.name(), "bare");
  EXPECT_FALSE(parsed.model_monitor().has_value());
  // The registry sections are not read back.
  EXPECT_TRUE(parsed.snapshot().counters.empty());
}

TEST(RunReportV2Test, ReportWithoutMonitorDataOmitsSection) {
  EnabledScope on(true);
  ModelMonitor::Global().Reset();
  const RunReport report = RunReport::Capture("no-monitor");
  EXPECT_FALSE(report.model_monitor().has_value());
  EXPECT_EQ(report.ToJson().Find("model_monitor"), nullptr);
}

}  // namespace
}  // namespace gaugur::obs
