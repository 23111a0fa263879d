#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "ml/metrics.h"
#include "tests/ml/synthetic.h"

namespace gaugur::ml {
namespace {

TEST(TreeModelTest, PredictBeforeFitThrows) {
  TreeModel tree;
  EXPECT_THROW(tree.Predict(std::array{1.0}), std::logic_error);
}

TEST(TreeModelTest, SingleLeafForConstantTargets) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.Add(std::array{static_cast<double>(i)}, 5.0);
  }
  TreeModel tree;
  tree.Fit(data);
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict(std::array{3.0}), 5.0);
}

TEST(TreeModelTest, LearnsPerfectStepFunction) {
  Dataset data(1);
  for (int i = 0; i < 50; ++i) {
    const double x = i / 50.0;
    data.Add(std::array{x}, x < 0.5 ? 1.0 : 3.0);
  }
  TreeModel tree;
  tree.Fit(data);
  EXPECT_DOUBLE_EQ(tree.Predict(std::array{0.2}), 1.0);
  EXPECT_DOUBLE_EQ(tree.Predict(std::array{0.8}), 3.0);
}

TEST(TreeModelTest, SplitsOnTheInformativeFeature) {
  // Feature 0 is noise, feature 1 carries the signal.
  Dataset data(2);
  common::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double noise = rng.Uniform();
    const double signal = rng.Uniform();
    data.Add(std::array{noise, signal}, signal > 0.5 ? 10.0 : -10.0);
  }
  TreeModel tree;
  tree.Fit(data);
  ASSERT_FALSE(tree.Nodes().empty());
  EXPECT_EQ(tree.Nodes()[0].feature, 1);
  EXPECT_NEAR(tree.Nodes()[0].threshold, 0.5, 0.06);
}

TEST(TreeModelTest, MaxDepthRespected) {
  const Dataset data = testing::MakeRegressionData(500, 7);
  TreeConfig config;
  config.max_depth = 3;
  TreeModel tree(config);
  tree.Fit(data);
  EXPECT_LE(tree.Depth(), 4);  // root at depth 1
}

TEST(TreeModelTest, MinSamplesLeafRespected) {
  const Dataset data = testing::MakeRegressionData(200, 8);
  TreeConfig config;
  config.min_samples_leaf = 20;
  TreeModel tree(config);
  tree.Fit(data);
  for (const auto& node : tree.Nodes()) {
    if (node.feature < 0) {
      EXPECT_GE(node.num_samples, 20u);
    }
  }
}

TEST(TreeModelTest, DeeperTreesFitBetter) {
  const Dataset train = testing::MakeRegressionData(800, 9);
  const Dataset test = testing::MakeRegressionData(200, 10);
  double prev_rmse = 1e9;
  for (int depth : {1, 3, 8}) {
    TreeConfig config;
    config.max_depth = depth;
    TreeModel tree(config);
    tree.Fit(train);
    std::vector<double> pred;
    for (std::size_t i = 0; i < test.NumRows(); ++i) {
      pred.push_back(tree.Predict(test.Row(i)));
    }
    const double rmse = RootMeanSquaredError(
        pred, test.Targets());
    EXPECT_LT(rmse, prev_rmse + 0.05) << "depth=" << depth;
    prev_rmse = rmse;
  }
  EXPECT_LT(prev_rmse, 0.25);
}

TEST(TreeModelTest, ResidualTargetsViaRowIndirection) {
  // Fit against an external target vector (the gradient-boosting path).
  Dataset data(1);
  for (int i = 0; i < 20; ++i) {
    data.Add(std::array{static_cast<double>(i)}, 0.0 /*ignored*/);
  }
  std::vector<double> residuals(20);
  for (int i = 0; i < 20; ++i) residuals[static_cast<std::size_t>(i)] = i < 10 ? -2.0 : 2.0;
  std::vector<std::size_t> rows(20);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  TreeModel tree;
  tree.Fit(data, FeatureOrder(data), rows, residuals);
  EXPECT_DOUBLE_EQ(tree.Predict(std::array{4.0}), -2.0);
  EXPECT_DOUBLE_EQ(tree.Predict(std::array{15.0}), 2.0);
}

TEST(TreeModelTest, CustomLeafValueFunction) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.Add(std::array{static_cast<double>(i)}, 1.0);
  }
  std::vector<std::size_t> rows(10);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  TreeModel tree;
  tree.Fit(data, FeatureOrder(data), rows, data.Targets(),
           [](std::span<const std::size_t> leaf_rows) {
             return static_cast<double>(leaf_rows.size()) * 100.0;
           });
  // Constant targets -> single leaf holding all 10 rows.
  EXPECT_DOUBLE_EQ(tree.Predict(std::array{0.0}), 1000.0);
}

TEST(TreeModelTest, FeatureSubsamplingStillLearns) {
  const Dataset train = testing::MakeRegressionData(800, 11);
  TreeConfig config;
  config.max_features = 2;
  config.seed = 5;
  TreeModel tree(config);
  tree.Fit(train);
  EXPECT_GT(tree.NumLeaves(), 4u);
}

TEST(DecisionTreeRegressorTest, FitsNonlinearFunction) {
  const Dataset train = testing::MakeRegressionData(1500, 12);
  const Dataset test = testing::MakeRegressionData(300, 13);
  DecisionTreeRegressor dtr;
  dtr.Fit(train);
  const auto pred = dtr.PredictBatch(test);
  EXPECT_LT(RootMeanSquaredError(pred, test.Targets()), 0.3);
  EXPECT_EQ(dtr.Name(), "DTR");
}

TEST(DecisionTreeClassifierTest, LearnsXorBoundary) {
  const Dataset train = testing::MakeClassificationData(1500, 14);
  const Dataset test = testing::MakeClassificationData(300, 15);
  // XOR's first split has near-zero impurity gain, so the greedy tree
  // needs depth headroom and small leaves to carve the board.
  TreeConfig config = DecisionTreeClassifier::MakeDefaultConfig();
  config.max_depth = 16;
  config.min_samples_leaf = 1;
  config.min_samples_split = 2;
  DecisionTreeClassifier dtc(config);
  dtc.Fit(train);
  std::vector<int> pred = dtc.PredictBatch(test);
  std::vector<int> actual;
  for (double y : test.Targets()) actual.push_back(y > 0.5 ? 1 : 0);
  EXPECT_GT(Accuracy(pred, actual), 0.85);
  EXPECT_EQ(dtc.Name(), "DTC");
}

TEST(DecisionTreeClassifierTest, ProbabilitiesAreLeafFractions) {
  const Dataset train = testing::MakeClassificationData(500, 16,
                                                        /*flip_prob=*/0.2);
  DecisionTreeClassifier dtc;
  dtc.Fit(train);
  for (std::size_t i = 0; i < 50; ++i) {
    const double p = dtc.PredictProb(train.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(TreeModelTest, DeterministicForSameSeed) {
  const Dataset train = testing::MakeRegressionData(400, 17);
  TreeConfig config;
  config.max_features = 3;
  config.seed = 99;
  TreeModel a(config), b(config);
  a.Fit(train);
  b.Fit(train);
  ASSERT_EQ(a.Nodes().size(), b.Nodes().size());
  for (std::size_t i = 0; i < a.Nodes().size(); ++i) {
    EXPECT_EQ(a.Nodes()[i].feature, b.Nodes()[i].feature);
    EXPECT_DOUBLE_EQ(a.Nodes()[i].threshold, b.Nodes()[i].threshold);
  }
}

}  // namespace
}  // namespace gaugur::ml
