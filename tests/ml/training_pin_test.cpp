// Pins trained models byte for byte. Each TrainingPinTest fits a learner
// on the tie-heavy synthetic set and checks an FNV-1a digest of its
// serialized text, so any change to training that moves a single bit of
// a threshold or leaf value fails here. The remaining tests check that
// training is exact for any worker count and that the split replay
// matches the sequential acceptance rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "tests/ml/synthetic.h"

namespace gaugur::ml {
namespace {

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string Digest(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return Hex(hash);
}

std::string Serialized(const Regressor& model) {
  std::ostringstream os;
  SaveRegressor(os, model);
  return os.str();
}

std::string Serialized(const Classifier& model) {
  std::ostringstream os;
  SaveClassifier(os, model);
  return os.str();
}

const Dataset& RegressionSet() {
  static const Dataset data = testing::MakeTieHeavyData(240, 3, false);
  return data;
}

const Dataset& ClassificationSet() {
  static const Dataset data = testing::MakeTieHeavyData(240, 4, true);
  return data;
}

TEST(TrainingPinTest, GradientBoostedRegressor) {
  GradientBoostedRegressor model;
  model.Fit(RegressionSet());
  EXPECT_EQ(Digest(Serialized(model)), "508dd1bae68e69e3");
}

TEST(TrainingPinTest, GradientBoostedClassifier) {
  GradientBoostedClassifier model;
  model.Fit(ClassificationSet());
  EXPECT_EQ(Digest(Serialized(model)), "2fbc477323fc84d2");
}

TEST(TrainingPinTest, RandomForestRegressor) {
  ForestConfig config;
  config.num_trees = 20;
  RandomForestRegressor model(config);
  model.Fit(RegressionSet());
  EXPECT_EQ(Digest(Serialized(model)), "41b2763b589eba23");
}

TEST(TrainingPinTest, RandomForestClassifier) {
  ForestConfig config;
  config.num_trees = 20;
  RandomForestClassifier model(config);
  model.Fit(ClassificationSet());
  EXPECT_EQ(Digest(Serialized(model)), "4479739f6f9e4e35");
}

TEST(TrainingPinTest, DecisionTreeRegressor) {
  DecisionTreeRegressor model;
  model.Fit(RegressionSet());
  EXPECT_EQ(Digest(Serialized(model)), "431f0154a3904394");
}

/// Large enough that the top nodes search and partition their features
/// on the pool.
const Dataset& WideSet() {
  static const Dataset data = testing::MakeTieHeavyData(6000, 5, false);
  return data;
}

std::string FitGbrtOnWideSet() {
  BoostConfig config;
  config.num_stages = 30;
  GradientBoostedRegressor model(config);
  model.Fit(WideSet());
  return Serialized(model);
}

TEST(TrainingWorkerCountTest, BoostingIsIdenticalOnAPoolWorker) {
  auto& pool = common::ThreadPool::Global();
  const std::uint64_t tasks_before = pool.TasksExecuted();
  const std::string from_caller = FitGbrtOnWideSet();
  if (pool.NumThreads() > 1) {
    // The calling thread fanned the split search out over the pool.
    EXPECT_GT(pool.TasksExecuted(), tasks_before);
  }
  // On a worker every fan-out runs inline, on that one thread.
  std::string on_worker;
  pool.Submit([&] { on_worker = FitGbrtOnWideSet(); }).get();
  EXPECT_EQ(from_caller, on_worker);
}

TEST(TrainingWorkerCountTest, ForestIsIdenticalOnAPoolWorker) {
  ForestConfig config;
  config.num_trees = 8;
  config.parallel_fit = false;
  auto fit = [&] {
    RandomForestRegressor model(config);
    model.Fit(WideSet());
    return Serialized(model);
  };
  const std::string from_caller = fit();
  std::string on_worker;
  common::ThreadPool::Global().Submit([&] { on_worker = fit(); }).get();
  EXPECT_EQ(from_caller, on_worker);
}

TEST(SplitReplayTest, MatchesTheSequentialToleranceChain) {
  // Gains within 1e-12 of each other, where "accept when gain > best +
  // 1e-12" is not a maximum: feature 0's first candidate is accepted and
  // its second is not, so feature 1's candidate clears the tolerance.
  // Reducing each feature to its best candidate first keeps feature 0's
  // second candidate instead, and feature 1 then falls short.
  const std::vector<int> features = {0, 1};
  const std::vector<std::vector<double>> gains = {
      {0.5, 1.0, 1.0 + 0.6e-12, 0.7}, {0.2, 1.0 + 1.1e-12}};

  SplitChoice sequential;
  for (std::size_t k = 0; k < gains.size(); ++k) {
    for (std::size_t i = 0; i < gains[k].size(); ++i) {
      if (gains[k][i] > sequential.gain + 1e-12) {
        sequential = {features[k], static_cast<double>(i), gains[k][i]};
      }
    }
  }

  SplitChoice naive;
  for (std::size_t k = 0; k < gains.size(); ++k) {
    const auto best = std::max_element(gains[k].begin(), gains[k].end());
    if (*best > naive.gain + 1e-12) {
      naive = {features[k],
               static_cast<double>(best - gains[k].begin()), *best};
    }
  }

  // Each feature's strict prefix maxima above zero, as the scan keeps them.
  std::vector<std::vector<SplitCandidate>> maxima(gains.size());
  for (std::size_t k = 0; k < gains.size(); ++k) {
    double top = 0.0;
    for (std::size_t i = 0; i < gains[k].size(); ++i) {
      if (gains[k][i] > top) {
        top = gains[k][i];
        maxima[k].push_back({gains[k][i], static_cast<double>(i)});
      }
    }
  }
  const SplitChoice replayed = ReplaySplitChain(features, maxima);

  EXPECT_EQ(sequential.feature, 1);
  EXPECT_EQ(naive.feature, 0);
  EXPECT_EQ(replayed.feature, sequential.feature);
  EXPECT_EQ(replayed.threshold, sequential.threshold);
  EXPECT_EQ(replayed.gain, sequential.gain);
}

}  // namespace
}  // namespace gaugur::ml
