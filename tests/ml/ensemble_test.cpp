// Random forest + gradient boosting tests.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/serialize.h"
#include "tests/ml/synthetic.h"

namespace gaugur::ml {
namespace {

std::vector<int> Labels(const Dataset& data) {
  std::vector<int> out;
  for (double y : data.Targets()) out.push_back(y > 0.5 ? 1 : 0);
  return out;
}

TEST(RandomForestRegressorTest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = testing::MakeRegressionData(800, 21, /*noise=*/0.3);
  const Dataset test = testing::MakeRegressionData(300, 22);

  DecisionTreeRegressor tree;
  tree.Fit(train);
  ForestConfig fc;
  fc.num_trees = 80;
  RandomForestRegressor forest(fc);
  forest.Fit(train);

  const double tree_rmse =
      RootMeanSquaredError(tree.PredictBatch(test), test.Targets());
  const double forest_rmse =
      RootMeanSquaredError(forest.PredictBatch(test), test.Targets());
  EXPECT_LT(forest_rmse, tree_rmse);
}

TEST(RandomForestRegressorTest, PredictBeforeFitThrows) {
  RandomForestRegressor forest;
  EXPECT_THROW(forest.Predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(RandomForestRegressorTest, NumTreesHonored) {
  ForestConfig fc;
  fc.num_trees = 17;
  RandomForestRegressor forest(fc);
  forest.Fit(testing::MakeRegressionData(200, 23));
  EXPECT_EQ(forest.Trees().size(), 17u);
}

TEST(RandomForestRegressorTest, DeterministicInSeed) {
  const Dataset train = testing::MakeRegressionData(300, 24);
  const Dataset test = testing::MakeRegressionData(50, 25);
  ForestConfig fc;
  fc.num_trees = 20;
  fc.seed = 7;
  RandomForestRegressor a(fc), b(fc);
  a.Fit(train);
  b.Fit(train);
  for (std::size_t i = 0; i < test.NumRows(); ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(test.Row(i)), b.Predict(test.Row(i)));
  }
}

TEST(RandomForestRegressorTest, SerialAndParallelFitAgree) {
  const Dataset train = testing::MakeRegressionData(300, 26);
  ForestConfig fc;
  fc.num_trees = 10;
  fc.seed = 11;
  fc.parallel_fit = true;
  RandomForestRegressor parallel(fc);
  fc.parallel_fit = false;
  RandomForestRegressor serial(fc);
  parallel.Fit(train);
  serial.Fit(train);
  std::ostringstream parallel_text, serial_text;
  SaveRegressor(parallel_text, parallel);
  SaveRegressor(serial_text, serial);
  EXPECT_EQ(parallel_text.str(), serial_text.str());
  const Dataset test = testing::MakeRegressionData(50, 27);
  for (std::size_t i = 0; i < test.NumRows(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.Predict(test.Row(i)),
                     serial.Predict(test.Row(i)));
  }
}

TEST(RandomForestClassifierTest, LearnsNonlinearBoundary) {
  const Dataset train = testing::MakeClassificationData(1200, 28);
  const Dataset test = testing::MakeClassificationData(300, 29);
  RandomForestClassifier forest;
  forest.Fit(train);
  EXPECT_GT(Accuracy(forest.PredictBatch(test), Labels(test)), 0.92);
}

TEST(RandomForestClassifierTest, ProbabilitiesBounded) {
  const Dataset train = testing::MakeClassificationData(300, 30, 0.1);
  RandomForestClassifier forest;
  forest.Fit(train);
  for (std::size_t i = 0; i < 50; ++i) {
    const double p = forest.PredictProb(train.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(GradientBoostedRegressorTest, FitsNonlinearFunctionWell) {
  const Dataset train = testing::MakeRegressionData(1200, 31, 0.05);
  const Dataset test = testing::MakeRegressionData(300, 32);
  GradientBoostedRegressor gbrt;
  gbrt.Fit(train);
  EXPECT_LT(RootMeanSquaredError(gbrt.PredictBatch(test), test.Targets()),
            0.15);
  EXPECT_EQ(gbrt.Name(), "GBRT");
}

TEST(GradientBoostedRegressorTest, MoreStagesFitBetter) {
  const Dataset train = testing::MakeRegressionData(600, 33);
  const Dataset test = testing::MakeRegressionData(200, 34);
  double prev = 1e9;
  for (int stages : {5, 50, 300}) {
    BoostConfig config;
    config.num_stages = stages;
    GradientBoostedRegressor gbrt(config);
    gbrt.Fit(train);
    const double rmse =
        RootMeanSquaredError(gbrt.PredictBatch(test), test.Targets());
    EXPECT_LT(rmse, prev + 0.02) << stages;
    prev = rmse;
  }
}

TEST(GradientBoostedRegressorTest, ConstantTargetGivesConstantModel) {
  Dataset data(2);
  common::Rng rng(35);
  for (int i = 0; i < 50; ++i) {
    data.Add(std::vector{rng.Uniform(), rng.Uniform()}, 7.5);
  }
  GradientBoostedRegressor gbrt;
  gbrt.Fit(data);
  EXPECT_NEAR(gbrt.Predict(std::vector{0.3, 0.9}), 7.5, 1e-6);
}

TEST(GradientBoostedRegressorTest, PredictBeforeFitThrows) {
  GradientBoostedRegressor gbrt;
  EXPECT_THROW(gbrt.Predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(GradientBoostedClassifierTest, LearnsXor) {
  const Dataset train = testing::MakeClassificationData(1200, 36);
  const Dataset test = testing::MakeClassificationData(300, 37);
  GradientBoostedClassifier gbdt;
  gbdt.Fit(train);
  EXPECT_GT(Accuracy(gbdt.PredictBatch(test), Labels(test)), 0.93);
  EXPECT_EQ(gbdt.Name(), "GBDT");
}

TEST(GradientBoostedClassifierTest, RobustToLabelNoise) {
  const Dataset train = testing::MakeClassificationData(1200, 38, 0.1);
  const Dataset test = testing::MakeClassificationData(300, 39);
  GradientBoostedClassifier gbdt;
  gbdt.Fit(train);
  EXPECT_GT(Accuracy(gbdt.PredictBatch(test), Labels(test)), 0.85);
}

TEST(GradientBoostedClassifierTest, ProbabilitiesCalibratedOnPureData) {
  const Dataset train = testing::MakeClassificationData(1500, 40);
  GradientBoostedClassifier gbdt;
  gbdt.Fit(train);
  // On cleanly labeled training points, predicted probabilities should be
  // confidently near the labels.
  double sum_conf = 0.0;
  for (std::size_t i = 0; i < 200; ++i) {
    const double p = gbdt.PredictProb(train.Row(i));
    const double label = train.Target(i);
    sum_conf += label > 0.5 ? p : 1.0 - p;
  }
  EXPECT_GT(sum_conf / 200.0, 0.85);
}

TEST(GradientBoostedClassifierTest, RejectsNonBinaryLabels) {
  Dataset data(1);
  data.Add(std::vector{0.1}, 0.0);
  data.Add(std::vector{0.2}, 2.0);
  GradientBoostedClassifier gbdt;
  EXPECT_THROW(gbdt.Fit(data), std::logic_error);
}

TEST(GradientBoostedClassifierTest, SkewedPriorHandled) {
  Dataset data(1);
  common::Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform();
    data.Add(std::vector{x}, x > 0.9 ? 1.0 : 0.0);
  }
  GradientBoostedClassifier gbdt;
  gbdt.Fit(data);
  EXPECT_EQ(gbdt.Predict(std::vector{0.95}), 1);
  EXPECT_EQ(gbdt.Predict(std::vector{0.2}), 0);
}

}  // namespace
}  // namespace gaugur::ml
