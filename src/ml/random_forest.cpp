#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/factory.h"
#include "obs/metrics.h"

namespace gaugur::ml {

namespace {

int ResolveMaxFeatures(int requested, std::size_t num_features,
                       SplitCriterion criterion) {
  if (requested > 0) return requested;
  const double d = static_cast<double>(num_features);
  const double def = criterion == SplitCriterion::kGini
                         ? std::sqrt(d)
                         : std::max(1.0, d / 3.0);
  return std::max(1, static_cast<int>(def));
}

void FitForest(const Dataset& data, const ForestConfig& config,
               SplitCriterion criterion, std::vector<TreeModel>& trees) {
  GAUGUR_CHECK(data.NumRows() >= 2);
  GAUGUR_CHECK(config.num_trees >= 1);
  GAUGUR_CHECK(config.bootstrap_fraction > 0.0 &&
               config.bootstrap_fraction <= 1.0);

  TreeConfig tree_config;
  tree_config.criterion = criterion;
  tree_config.max_depth = config.max_depth;
  tree_config.min_samples_leaf = config.min_samples_leaf;
  tree_config.max_features =
      ResolveMaxFeatures(config.max_features, data.NumFeatures(), criterion);

  const std::size_t n = data.NumRows();
  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.bootstrap_fraction *
                                  static_cast<double>(n)));

  static obs::Counter& forest_trees =
      obs::Registry::Global().GetCounter("ml.forest_trees_fit");
  // One sort of every feature, shared read-only by all trees. Trees
  // fitted in parallel search their features serially: the pool is
  // already busy with trees.
  const FeatureOrder order(data);
  trees.assign(static_cast<std::size_t>(config.num_trees), TreeModel{});
  auto fit_one = [&](std::size_t t) {
    forest_trees.Add(1);
    // Per-tree RNG derived deterministically from the forest seed.
    common::Rng rng(config.seed + 0x9e3779b97f4a7c15ULL * (t + 1));
    std::vector<std::size_t> rows(sample_size);
    for (auto& r : rows) {
      r = static_cast<std::size_t>(rng.UniformInt(n));
    }
    TreeConfig tc = tree_config;
    tc.seed = rng.Next();
    trees[t] = TreeModel(tc);
    trees[t].Fit(data, order, rows, data.Targets(), nullptr,
                 !config.parallel_fit);
  };

  if (config.parallel_fit) {
    common::ThreadPool::Global().ParallelFor(0, trees.size(), fit_one);
  } else {
    for (std::size_t t = 0; t < trees.size(); ++t) fit_one(t);
  }
}

/// Mean of the trees' predictions via the flattened kernel (the scalar
/// batch-of-one: same tree-order accumulation as the batch path).
double ForestPredict(const FlatForest& flat, std::span<const double> x) {
  return flat.PredictRowSum(x) / static_cast<double>(flat.NumTrees());
}

void ForestPredictBatch(const FlatForest& flat, MatrixView x,
                        std::span<double> out) {
  GAUGUR_CHECK(out.size() == x.rows);
  std::fill(out.begin(), out.end(), 0.0);
  flat.AccumulateBatch(x, out, 1.0);
  const double count = static_cast<double>(flat.NumTrees());
  for (double& v : out) v /= count;
}

}  // namespace

void RandomForestRegressor::Fit(const Dataset& data) {
  FitForest(data, config_, SplitCriterion::kMse, trees_);
  RebuildKernel();
}

double RandomForestRegressor::Predict(std::span<const double> x) const {
  return ForestPredict(flat_, x);
}

void RandomForestRegressor::PredictBatch(MatrixView x,
                                         std::span<double> out) const {
  ForestPredictBatch(flat_, x, out);
}

void RandomForestRegressor::RebuildKernel() {
  BuildFlatForest(trees_, flat_);
}

void RandomForestClassifier::Fit(const Dataset& data) {
  FitForest(data, config_, SplitCriterion::kGini, trees_);
  RebuildKernel();
}

double RandomForestClassifier::PredictProb(std::span<const double> x) const {
  return ForestPredict(flat_, x);
}

void RandomForestClassifier::PredictProbBatch(MatrixView x,
                                              std::span<double> out) const {
  ForestPredictBatch(flat_, x, out);
}

void RandomForestClassifier::RebuildKernel() {
  BuildFlatForest(trees_, flat_);
}

}  // namespace gaugur::ml
