#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "ml/factory.h"
#include "obs/metrics.h"

namespace gaugur::ml {

namespace {

struct BoostMetrics {
  obs::Counter& stages =
      obs::Registry::Global().GetCounter("ml.boost_stages");
  obs::Histogram& stage_us =
      obs::Registry::Global().GetHistogram("ml.boost_stage_us");

  static BoostMetrics& Get() {
    static BoostMetrics metrics;
    return metrics;
  }
};

TreeConfig StageTreeConfig(const BoostConfig& config, std::uint64_t seed) {
  TreeConfig tc;
  tc.criterion = SplitCriterion::kMse;  // stages regress on residuals
  tc.max_depth = config.max_depth;
  tc.min_samples_leaf = config.min_samples_leaf;
  tc.seed = seed;
  return tc;
}

std::vector<std::size_t> StageRows(std::size_t n, double subsample,
                                   common::Rng& rng) {
  if (subsample >= 1.0) {
    std::vector<std::size_t> rows(n);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    return rows;
  }
  const auto k = std::max<std::size_t>(
      2, static_cast<std::size_t>(subsample * static_cast<double>(n)));
  return rng.SampleWithoutReplacement(n, k);
}

}  // namespace

void GradientBoostedRegressor::Fit(const Dataset& data) {
  GAUGUR_CHECK(data.NumRows() >= 2);
  GAUGUR_CHECK(config_.num_stages >= 1);
  GAUGUR_CHECK(config_.learning_rate > 0.0);
  const std::size_t n = data.NumRows();
  common::Rng rng(config_.seed);

  double sum = 0.0;
  for (double y : data.Targets()) sum += y;
  base_prediction_ = sum / static_cast<double>(n);

  // One sort of every feature, shared by all stages.
  const FeatureOrder order(data);
  std::vector<double> prediction(n, base_prediction_);
  std::vector<double> residual(n);
  stages_.clear();
  flat_.Clear();
  stages_.reserve(static_cast<std::size_t>(config_.num_stages));

  for (int stage = 0; stage < config_.num_stages; ++stage) {
    obs::ScopedTimer stage_timer(BoostMetrics::Get().stage_us);
    BoostMetrics::Get().stages.Add(1);
    for (std::size_t i = 0; i < n; ++i) {
      residual[i] = data.Target(i) - prediction[i];
    }
    const auto rows = StageRows(n, config_.subsample, rng);
    TreeModel tree(StageTreeConfig(config_, rng.Next()));
    tree.Fit(data, order, rows, residual);
    // Flatten the stage immediately and advance the training predictions
    // through the batch kernel: same `out += lr * leaf` update, one
    // cache-resident pass instead of n pointer-chasing descents.
    flat_.Add(tree);
    flat_.AccumulateTreeBatch(flat_.NumTrees() - 1, data.Matrix(),
                              prediction, config_.learning_rate);
    stages_.push_back(std::move(tree));
  }
  // Each Add above invalidated the quantized tables; build them once
  // now that the ensemble is final.
  flat_.FinalizeQuantized();
}

double GradientBoostedRegressor::Predict(std::span<const double> x) const {
  GAUGUR_CHECK_MSG(!stages_.empty(), "Predict before Fit");
  double value = base_prediction_;
  for (std::size_t t = 0; t < flat_.NumTrees(); ++t) {
    value += config_.learning_rate * flat_.PredictTree(t, x);
  }
  return value;
}

void GradientBoostedRegressor::PredictBatch(MatrixView x,
                                            std::span<double> out) const {
  GAUGUR_CHECK_MSG(!stages_.empty(), "Predict before Fit");
  GAUGUR_CHECK(out.size() == x.rows);
  std::fill(out.begin(), out.end(), base_prediction_);
  flat_.AccumulateBatch(x, out, config_.learning_rate);
}

void GradientBoostedRegressor::RebuildKernel() {
  BuildFlatForest(stages_, flat_);
}

void GradientBoostedClassifier::Fit(const Dataset& data) {
  GAUGUR_CHECK(data.NumRows() >= 2);
  const std::size_t n = data.NumRows();
  common::Rng rng(config_.seed);

  double positives = 0.0;
  for (double y : data.Targets()) {
    GAUGUR_CHECK_MSG(y == 0.0 || y == 1.0, "labels must be 0/1");
    positives += y;
  }
  // Prior log-odds, clamped away from degenerate all-one/all-zero cases.
  const double p0 = std::clamp(positives / static_cast<double>(n), 1e-4,
                               1.0 - 1e-4);
  base_log_odds_ = std::log(p0 / (1.0 - p0));

  const FeatureOrder order(data);
  std::vector<double> log_odds(n, base_log_odds_);
  std::vector<double> gradient(n);
  std::vector<double> prob(n);
  stages_.clear();
  flat_.Clear();
  stages_.reserve(static_cast<std::size_t>(config_.num_stages));

  for (int stage = 0; stage < config_.num_stages; ++stage) {
    obs::ScopedTimer stage_timer(BoostMetrics::Get().stage_us);
    BoostMetrics::Get().stages.Add(1);
    for (std::size_t i = 0; i < n; ++i) {
      prob[i] = common::Sigmoid(log_odds[i]);
      gradient[i] = data.Target(i) - prob[i];
    }
    const auto rows = StageRows(n, config_.subsample, rng);
    // Newton leaf update: sum(y - p) / sum(p(1-p)) over the leaf's rows.
    auto newton_leaf = [&](std::span<const std::size_t> leaf_rows) {
      double num = 0.0, den = 0.0;
      for (std::size_t r : leaf_rows) {
        num += gradient[r];
        den += prob[r] * (1.0 - prob[r]);
      }
      if (den < 1e-10) return 0.0;
      // Standard clip keeps single-stage jumps bounded.
      return std::clamp(num / den, -4.0, 4.0);
    };
    TreeModel tree(StageTreeConfig(config_, rng.Next()));
    tree.Fit(data, order, rows, gradient, newton_leaf);
    flat_.Add(tree);
    flat_.AccumulateTreeBatch(flat_.NumTrees() - 1, data.Matrix(), log_odds,
                              config_.learning_rate);
    stages_.push_back(std::move(tree));
  }
  // Each Add above invalidated the quantized tables; build them once
  // now that the ensemble is final.
  flat_.FinalizeQuantized();
}

double GradientBoostedClassifier::LogOdds(std::span<const double> x) const {
  GAUGUR_CHECK_MSG(!stages_.empty(), "Predict before Fit");
  double value = base_log_odds_;
  for (std::size_t t = 0; t < flat_.NumTrees(); ++t) {
    value += config_.learning_rate * flat_.PredictTree(t, x);
  }
  return value;
}

double GradientBoostedClassifier::PredictProb(
    std::span<const double> x) const {
  return common::Sigmoid(LogOdds(x));
}

void GradientBoostedClassifier::PredictProbBatch(
    MatrixView x, std::span<double> out) const {
  GAUGUR_CHECK_MSG(!stages_.empty(), "Predict before Fit");
  GAUGUR_CHECK(out.size() == x.rows);
  std::fill(out.begin(), out.end(), base_log_odds_);
  flat_.AccumulateBatch(x, out, config_.learning_rate);
  for (double& v : out) v = common::Sigmoid(v);
}

void GradientBoostedClassifier::RebuildKernel() {
  BuildFlatForest(stages_, flat_);
}

}  // namespace gaugur::ml
