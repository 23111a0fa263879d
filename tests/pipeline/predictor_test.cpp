#include "gaugur/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ml/metrics.h"
#include "tests/pipeline/world.h"

namespace gaugur::core {
namespace {

using gaugur::testing::TestWorld;

/// One trained predictor shared by the tests in this file.
const GAugurPredictor& TrainedPredictor() {
  static const GAugurPredictor* predictor = [] {
    const auto& world = TestWorld::Get();
    auto* p = new GAugurPredictor(world.features());
    p->TrainRm(world.corpus());
    const std::vector<double> qos_grid{50.0, 60.0};
    p->TrainCm(world.corpus(), qos_grid);
    return p;
  }();
  return *predictor;
}

std::vector<SessionRequest> CorunnersOf(const MeasuredColocation& m,
                                        std::size_t victim) {
  std::vector<SessionRequest> corunners;
  for (std::size_t j = 0; j < m.sessions.size(); ++j) {
    if (j != victim) corunners.push_back(m.sessions[j]);
  }
  return corunners;
}

TEST(PredictorTest, UntrainedThrows) {
  const GAugurPredictor fresh(TestWorld::Get().features());
  EXPECT_FALSE(fresh.HasRm());
  const std::vector<SessionRequest> corunners{{1, resources::k1080p}};
  EXPECT_THROW(
      fresh.PredictDegradation({0, resources::k1080p}, corunners),
      std::logic_error);
}

TEST(PredictorTest, DegradationInUnitRange) {
  const auto& predictor = TrainedPredictor();
  const auto& test = TestWorld::Get().test_corpus();
  for (const auto& m : test) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      const double d =
          predictor.PredictDegradation(m.sessions[v], CorunnersOf(m, v));
      EXPECT_GT(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

TEST(PredictorTest, HeldOutRegressionErrorIsSmall) {
  const auto& world = TestWorld::Get();
  const auto& predictor = TrainedPredictor();
  std::vector<double> predicted, actual;
  for (const auto& m : world.test_corpus()) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      predicted.push_back(
          predictor.PredictDegradation(m.sessions[v], CorunnersOf(m, v)));
      actual.push_back(
          DegradationTarget(world.features(), m.sessions[v], m.fps[v]));
    }
  }
  // The paper reaches 7.9% with 1000 samples; our fixture's ~1700-sample
  // corpus lands near 10%, far below the ~20%+ the baselines produce.
  EXPECT_LT(ml::MeanRelativeError(predicted, actual), 0.13);
}

TEST(PredictorTest, HeldOutClassificationAccuracyIsHigh) {
  const auto& world = TestWorld::Get();
  const auto& predictor = TrainedPredictor();
  std::size_t correct = 0, total = 0;
  for (const auto& m : world.test_corpus()) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      const bool predicted =
          predictor.PredictQosOk(60.0, m.sessions[v], CorunnersOf(m, v));
      const bool truth = m.fps[v] >= 60.0;
      correct += predicted == truth ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.90);
}

TEST(PredictorTest, PredictFpsIsDegradationTimesSolo) {
  const auto& world = TestWorld::Get();
  const auto& predictor = TrainedPredictor();
  const auto& m = world.test_corpus()[0];
  const auto corunners = CorunnersOf(m, 0);
  const double degradation =
      predictor.PredictDegradation(m.sessions[0], corunners);
  const double solo = world.features()
                          .Profile(m.sessions[0].game_id)
                          .SoloFps(m.sessions[0].resolution);
  EXPECT_NEAR(predictor.PredictFps(m.sessions[0], corunners),
              degradation * solo, 1e-9);
}

TEST(PredictorTest, FeasibleImpliesEverySessionOk) {
  const auto& predictor = TrainedPredictor();
  for (const auto& m : TestWorld::Get().test_corpus()) {
    const bool feasible = predictor.PredictFeasible(60.0, m.sessions);
    bool all_ok = true;
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      all_ok = all_ok &&
               predictor.PredictQosOk(60.0, m.sessions[v], CorunnersOf(m, v));
    }
    EXPECT_EQ(feasible, all_ok);
  }
}

TEST(PredictorTest, MemoryOverflowIsInfeasible) {
  const auto& world = TestWorld::Get();
  const auto& predictor = TrainedPredictor();
  // Pile copies of the game with the most CPU or GPU memory until that
  // memory overflows the server.
  int heaviest = -1;
  double heaviest_memory = 0.0;
  for (std::size_t id = 0; id < world.features().NumGames(); ++id) {
    const auto& profile = world.features().Profile(static_cast<int>(id));
    const double memory = std::max(profile.cpu_memory, profile.gpu_memory);
    if (memory > heaviest_memory) {
      heaviest = static_cast<int>(id);
      heaviest_memory = memory;
    }
  }
  ASSERT_GE(heaviest, 0);
  Colocation heavy;
  for (double sum = 0.0; sum <= 1.0; sum += heaviest_memory) {
    heavy.push_back({heaviest, resources::k1080p});
  }
  ASSERT_FALSE(ProfiledMemoryFits(world.features(), heavy));

  // The screen rejects the pile before any model query, at a QoS the
  // models would pass.
  const std::vector<CandidateScore> scores =
      predictor.ScoreCandidatesDetailed(1.0, {&heavy, 1});
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_FALSE(scores[0].memory_ok);
  EXPECT_EQ(scores[0].queries, 0u);
  EXPECT_FALSE(scores[0].feasible);
  EXPECT_FALSE(predictor.PredictFeasible(1.0, heavy));
}

TEST(PredictorTest, RmFallbackForUntrainedCmQos) {
  // The CM was trained for Q in {50, 60}; it still answers any Q because
  // Q is an input feature. Check consistency against the RM threshold at
  // a Q inside the trained range.
  const auto& world = TestWorld::Get();
  const auto& predictor = TrainedPredictor();
  std::size_t agree = 0, total = 0;
  for (const auto& m : world.test_corpus()) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      const auto corunners = CorunnersOf(m, v);
      const bool cm = predictor.PredictQosOk(55.0, m.sessions[v], corunners);
      const bool rm = predictor.PredictFps(m.sessions[v], corunners) >= 55.0;
      agree += cm == rm ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.8);
}

TEST(PredictorTest, AlternativeAlgorithmsTrainable) {
  const auto& world = TestWorld::Get();
  PredictorConfig config;
  config.rm_algorithm = "DTR";
  config.cm_algorithm = "DTC";
  GAugurPredictor predictor(world.features(), config);
  predictor.TrainRm(world.corpus());
  EXPECT_TRUE(predictor.HasRm());
  const auto& m = world.test_corpus()[0];
  const double d =
      predictor.PredictDegradation(m.sessions[0], CorunnersOf(m, 0));
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
}

}  // namespace
}  // namespace gaugur::core
