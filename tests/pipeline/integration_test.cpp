// End-to-end integration tests reproducing the paper's headline claims in
// miniature: GAugur out-predicts Sigmoid and SMiTe, its feasibility
// judgements beat VBP, and interference-aware scheduling wins servers/FPS.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "baselines/sigmoid_model.h"
#include "common/stats.h"
#include "sched/packing.h"
#include "baselines/smite_model.h"
#include "baselines/vbp_model.h"
#include "gaugur/predictor.h"
#include "microbench/pressure_bench.h"
#include "ml/metrics.h"
#include "sched/assignment.h"
#include "sched/enumeration.h"
#include "sched/methodology.h"
#include "sched/study.h"
#include "tests/pipeline/scalar_oracle.h"
#include "tests/pipeline/world.h"

namespace gaugur {
namespace {

using core::Colocation;
using core::SessionRequest;
using gaugur::testing::MemorySumFits;
using gaugur::testing::ScalarCorunners;
using gaugur::testing::ScalarFpsSum;
using gaugur::testing::TestWorld;
using resources::Resource;

std::vector<SessionRequest> CorunnersOf(const core::MeasuredColocation& m,
                                        std::size_t victim) {
  std::vector<SessionRequest> corunners;
  for (std::size_t j = 0; j < m.sessions.size(); ++j) {
    if (j != victim) corunners.push_back(m.sessions[j]);
  }
  return corunners;
}

/// Everything trained once for the whole file.
struct TrainedStack {
  core::GAugurPredictor gaugur;
  baselines::SigmoidModel sigmoid;
  baselines::SmiteModel smite;
  baselines::VbpModel vbp;

  static const TrainedStack& Get() {
    static const TrainedStack* stack = [] {
      const auto& world = TestWorld::Get();
      auto* s = new TrainedStack{
          core::GAugurPredictor(world.features()),
          baselines::SigmoidModel(world.features()),
          baselines::SmiteModel(world.features()),
          baselines::VbpModel(world.features())};
      s->gaugur.TrainRm(world.corpus());
      const std::array<double, 2> qos_grid{50.0, 60.0};
      s->gaugur.TrainCm(world.corpus(), qos_grid);
      s->sigmoid.Train(world.corpus());
      s->smite.Train(world.corpus());
      return s;
    }();
    return *stack;
  }
};

TEST(IntegrationTest, GAugurRmBeatsBothBaselines) {
  const auto& world = TestWorld::Get();
  const auto& stack = TrainedStack::Get();
  std::vector<double> gaugur_pred, sigmoid_pred, smite_pred, actual;
  for (const auto& m : world.test_corpus()) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      const auto corunners = CorunnersOf(m, v);
      gaugur_pred.push_back(
          stack.gaugur.PredictDegradation(m.sessions[v], corunners));
      sigmoid_pred.push_back(
          stack.sigmoid.PredictDegradation(m.sessions[v], corunners.size()));
      smite_pred.push_back(
          stack.smite.PredictDegradation(m.sessions[v], corunners));
      actual.push_back(core::DegradationTarget(world.features(),
                                               m.sessions[v], m.fps[v]));
    }
  }
  const double gaugur_err = ml::MeanRelativeError(gaugur_pred, actual);
  const double sigmoid_err = ml::MeanRelativeError(sigmoid_pred, actual);
  const double smite_err = ml::MeanRelativeError(smite_pred, actual);
  // The paper's Fig. 7b ordering.
  EXPECT_LT(gaugur_err, sigmoid_err);
  EXPECT_LT(gaugur_err, smite_err);
  EXPECT_LT(gaugur_err, 0.13);
}

TEST(IntegrationTest, FeasibilityJudgementQuality) {
  // Miniature Fig. 9: GAugur(CM) should judge the 10-game colocation space
  // more accurately than VBP.
  const auto& world = TestWorld::Get();
  const auto& stack = TrainedStack::Get();
  const auto setup = sched::SelectStudyGames(world.lab(), 10, 60.0, 5);
  const auto colocations = sched::EnumerateColocations(setup.pool, 3);

  const auto cm_method = sched::MakeGAugurCmMethod(stack.gaugur);
  const auto vbp_method = sched::MakeVbpMethod(stack.vbp);
  const auto cm_verdicts = cm_method->FeasibleBatch(60.0, colocations);
  const auto vbp_verdicts = vbp_method->FeasibleBatch(60.0, colocations);

  std::vector<int> truth, cm_pred, vbp_pred;
  for (std::size_t i = 0; i < colocations.size(); ++i) {
    truth.push_back(world.lab().TrulyFeasible(colocations[i], 60.0) ? 1 : 0);
    cm_pred.push_back(cm_verdicts[i] != 0 ? 1 : 0);
    vbp_pred.push_back(vbp_verdicts[i] != 0 ? 1 : 0);
  }
  const double cm_acc = ml::Accuracy(cm_pred, truth);
  const double vbp_acc = ml::Accuracy(vbp_pred, truth);
  EXPECT_GT(cm_acc, 0.8);
  EXPECT_GT(cm_acc, vbp_acc);
}

TEST(IntegrationTest, EveryMethodMatchesItsScalarOracle) {
  // Miniature Fig. 9 input: the 3-game enumeration, judged by all five
  // methodologies through their batch paths and by scalar oracles that
  // share none of that code.
  const auto& world = TestWorld::Get();
  const auto& stack = TrainedStack::Get();
  const auto setup = sched::SelectStudyGames(world.lab(), 10, 60.0, 5);
  auto colocations = sched::EnumerateColocations(setup.pool, 3);
  // Every 3-game colocation fits one server's memory. Add a pile of the
  // most CPU-memory-hungry game and one of the most GPU-memory-hungry
  // game, each just past a full server.
  for (const bool gpu : {false, true}) {
    const auto memory = [&](int id) {
      const auto& profile = world.features().Profile(id);
      return gpu ? profile.gpu_memory : profile.cpu_memory;
    };
    int heaviest = 0;
    for (int id = 1; id < static_cast<int>(world.features().NumGames());
         ++id) {
      if (memory(id) > memory(heaviest)) heaviest = id;
    }
    Colocation pile;
    for (double sum = 0.0; sum <= 1.0; sum += memory(heaviest)) {
      pile.push_back({heaviest, resources::k1080p});
    }
    colocations.push_back(pile);
  }
  std::vector<std::pair<std::unique_ptr<sched::Methodology>,
                        testing::ScalarOracle>>
      methods;
  methods.emplace_back(sched::MakeGAugurCmMethod(stack.gaugur),
                       testing::GAugurCmOracle(stack.gaugur));
  methods.emplace_back(sched::MakeGAugurRmMethod(stack.gaugur),
                       testing::GAugurRmOracle(stack.gaugur));
  methods.emplace_back(
      sched::MakeSigmoidMethod(world.features(), stack.sigmoid),
      testing::SigmoidOracle(world.features(), stack.sigmoid));
  methods.emplace_back(sched::MakeSmiteMethod(world.features(), stack.smite),
                       testing::SmiteOracle(world.features(), stack.smite));
  methods.emplace_back(sched::MakeVbpMethod(stack.vbp),
                       testing::VbpOracle(stack.vbp));

  // QoS 0 makes every memory-fitting candidate feasible, so only the
  // memory screen can reject. Each FPS model's median binding-victim FPS
  // puts some candidate exactly on its threshold, where ">= QoS" passes.
  std::vector<double> qos_levels{0.0, 60.0};
  for (const auto& [method, oracle] : methods) {
    if (!oracle.fps || !method->CanPredictFps()) continue;
    std::vector<double> binding;
    for (const auto& c : colocations) {
      if (!MemorySumFits(world.features(), c)) continue;
      double worst = oracle.fps(c[0], ScalarCorunners(c, 0));
      for (std::size_t v = 1; v < c.size(); ++v) {
        worst = std::min(worst, oracle.fps(c[v], ScalarCorunners(c, v)));
      }
      binding.push_back(worst);
    }
    ASSERT_FALSE(binding.empty());
    std::nth_element(binding.begin(), binding.begin() + binding.size() / 2,
                     binding.end());
    qos_levels.push_back(binding[binding.size() / 2]);
  }

  for (const auto& [method, oracle] : methods) {
    SCOPED_TRACE(method->Name());
    EXPECT_EQ(method->Name(), oracle.name);
    for (const double qos : qos_levels) {
      const std::vector<char> verdicts =
          method->FeasibleBatch(qos, colocations);
      ASSERT_EQ(verdicts.size(), colocations.size());
      for (std::size_t i = 0; i < colocations.size(); ++i) {
        EXPECT_EQ(verdicts[i] != 0, oracle.feasible(qos, colocations[i]))
            << "qos " << qos << ", candidate " << i;
      }
    }
    EXPECT_EQ(method->CanPredictFps(), static_cast<bool>(oracle.fps));
    if (!method->CanPredictFps()) continue;
    const std::vector<double> sums = method->PredictFpsSums(colocations);
    ASSERT_EQ(sums.size(), colocations.size());
    for (std::size_t i = 0; i < colocations.size(); ++i) {
      EXPECT_EQ(sums[i], ScalarFpsSum(oracle.fps, colocations[i]))
          << "candidate " << i;
    }
  }
}

TEST(IntegrationTest, PredictedFpsAssignmentBeatsWorstFit) {
  // Miniature Fig. 10: GAugur(RM)-guided placement should deliver a higher
  // realized average FPS than VBP worst-fit on a tight fleet.
  const auto& world = TestWorld::Get();
  const auto& stack = TrainedStack::Get();
  const auto setup = sched::SelectStudyGames(world.lab(), 8, 60.0, 5);
  const auto counts = sched::GenerateRequestCounts(
      world.catalog().size(), setup.game_ids, 300, 7);
  const auto requests = sched::RequestStream(counts, 11);

  sched::AssignmentOptions options;
  options.num_servers = 120;  // ~2.5 sessions per server if spread evenly

  const auto rm_method = sched::MakeGAugurRmMethod(stack.gaugur);
  const auto rm_servers = sched::AssignByPredictedFps(
      *rm_method, world.features(), requests, options);
  const auto vbp_servers = sched::AssignWorstFit(
      stack.vbp, world.features(), requests, options);

  const auto rm_fps = sched::EvaluateAssignment(world.lab(), rm_servers);
  const auto vbp_fps = sched::EvaluateAssignment(world.lab(), vbp_servers);
  ASSERT_EQ(rm_fps.size(), requests.size());
  ASSERT_EQ(vbp_fps.size(), requests.size());
  EXPECT_GT(common::Mean(rm_fps), common::Mean(vbp_fps) * 0.98);
}

TEST(IntegrationTest, Observation5NonAdditiveIntensity) {
  // Fig. 6: colocate two games with each benchmark; the aggregate
  // slowdown differs from the sum of individual slowdowns — saturating
  // below on bandwidth, above on caches.
  const auto& world = TestWorld::Get();
  const auto& g1 = world.catalog().ByName("AirMech Strike");
  const auto& g2 = world.catalog().ByName("Hobo: Tough Life");

  auto intensity_of = [&](Resource r,
                          std::vector<gamesim::WorkloadProfile> games) {
    const auto bench = microbench::MakePressureBench(r, 0.5);
    const std::array<gamesim::WorkloadProfile, 1> solo = {bench};
    const double solo_rate = world.server().RunAnalytic(solo)[0].rate;
    games.push_back(bench);
    const auto res = world.server().RunAnalytic(games);
    return microbench::BenchSlowdown(solo_rate, res.back().rate) - 1.0;
  };

  const auto w1 = g1.AtResolution(resources::k1080p);
  const auto w2 = g2.AtResolution(resources::k1080p);
  int differs = 0;
  for (Resource r : resources::kAllResources) {
    const double i1 = intensity_of(r, {w1});
    const double i2 = intensity_of(r, {w2});
    const double holistic = intensity_of(r, {w1, w2});
    if (std::abs(holistic - (i1 + i2)) > 0.02) ++differs;
  }
  // Non-additivity must show on most resources.
  EXPECT_GE(differs, 4);
}

TEST(IntegrationTest, Observation5CacheAboveSumBandwidthBelow) {
  const auto& world = TestWorld::Get();
  // Use synthetic co-runners with fixed occupancy so directionality is
  // deterministic: occupancy 0.45 each.
  auto make_game = [&](double occ) {
    gamesim::WorkloadProfile w;
    w.name = "synthetic";
    w.t_cpu_ms = 5.0;
    w.t_gpu_render_ms = 5.0;
    w.t_xfer_ms = 0.5;
    w.throughput_coupling = 0.0;
    for (Resource r : resources::kAllResources) w.occupancy[r] = occ;
    return w;
  };
  auto intensity_of = [&](Resource r,
                          std::vector<gamesim::WorkloadProfile> games) {
    const auto bench = microbench::MakePressureBench(r, 0.5);
    const std::array<gamesim::WorkloadProfile, 1> solo = {bench};
    const double solo_rate = world.server().RunAnalytic(solo)[0].rate;
    games.push_back(bench);
    const auto res = world.server().RunAnalytic(games);
    return microbench::BenchSlowdown(solo_rate, res.back().rate) - 1.0;
  };
  const auto a = make_game(0.45);
  const auto b = make_game(0.45);
  // Cache: thrashing pushes the aggregate above the sum.
  const double llc_sum = intensity_of(Resource::kLlc, {a}) +
                         intensity_of(Resource::kLlc, {b});
  const double llc_holistic = intensity_of(Resource::kLlc, {a, b});
  EXPECT_GT(llc_holistic, llc_sum * 1.02);
  // Bandwidth: saturation keeps the aggregate below the sum.
  const double bw_sum = intensity_of(Resource::kMemBw, {a}) +
                        intensity_of(Resource::kMemBw, {b});
  const double bw_holistic = intensity_of(Resource::kMemBw, {a, b});
  EXPECT_LT(bw_holistic, bw_sum * 0.98);
}

TEST(IntegrationTest, Fig1ShowcasePairs) {
  // Ancestors Legacy + Borderland2 keep both above 60 FPS; Ancestors
  // Legacy + H1Z1 drags Ancestors Legacy well below its paired rate.
  const auto& world = TestWorld::Get();
  const int al = world.catalog().ByName("Ancestors Legacy").id;
  const int bl = world.catalog().ByName("Borderland2").id;
  const int h1 = world.catalog().ByName("H1Z1").id;

  const auto good = world.lab().TrueFps(
      {{al, resources::k1080p}, {bl, resources::k1080p}});
  EXPECT_GT(good[0], 60.0);
  EXPECT_GT(good[1], 60.0);

  const auto bad = world.lab().TrueFps(
      {{al, resources::k1080p}, {h1, resources::k1080p}});
  EXPECT_LT(bad[0], good[0] * 0.85);
}

TEST(IntegrationTest, CmBeatsThresholdedBaselinesOnClassification) {
  const auto& world = TestWorld::Get();
  const auto& stack = TrainedStack::Get();
  std::vector<int> truth, cm, sigmoid, smite;
  for (const auto& m : world.test_corpus()) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      const auto corunners = CorunnersOf(m, v);
      truth.push_back(m.fps[v] >= 60.0 ? 1 : 0);
      cm.push_back(
          stack.gaugur.PredictQosOk(60.0, m.sessions[v], corunners) ? 1 : 0);
      sigmoid.push_back(
          stack.sigmoid.PredictFps(m.sessions[v], corunners.size()) >= 60.0
              ? 1
              : 0);
      smite.push_back(
          stack.smite.PredictFps(m.sessions[v], corunners) >= 60.0 ? 1 : 0);
    }
  }
  const double cm_acc = ml::Accuracy(cm, truth);
  EXPECT_GT(cm_acc, ml::Accuracy(sigmoid, truth) - 0.02);
  EXPECT_GT(cm_acc, ml::Accuracy(smite, truth) - 0.02);
  EXPECT_GT(cm_acc, 0.90);
}

TEST(IntegrationTest, PackingUsesFewerServersWithBetterJudgement) {
  // Miniature Fig. 9c: Algorithm 1 fed by GAugur(CM)'s true positives
  // should not use more servers than when fed by VBP's true positives.
  const auto& world = TestWorld::Get();
  const auto& stack = TrainedStack::Get();
  const auto setup = sched::SelectStudyGames(world.lab(), 8, 60.0, 5);
  const auto colocations = sched::EnumerateColocations(setup.pool, 4);

  auto true_positives = [&](const sched::Methodology& method) {
    const std::vector<char> verdicts = method.FeasibleBatch(60.0, colocations);
    std::vector<Colocation> tp;
    for (std::size_t i = 0; i < colocations.size(); ++i) {
      const Colocation& c = colocations[i];
      if (world.lab().TrulyFeasible(c, 60.0) &&
          (c.size() == 1 || verdicts[i] != 0)) {
        tp.push_back(c);
      }
    }
    return tp;
  };

  const auto counts = sched::GenerateRequestCounts(
      world.catalog().size(), setup.game_ids, 400, 3);
  const auto cm_method = sched::MakeGAugurCmMethod(stack.gaugur);
  const auto vbp_method = sched::MakeVbpMethod(stack.vbp);
  const auto cm_servers =
      sched::PackRequests(true_positives(*cm_method), counts).servers_used;
  const auto vbp_servers =
      sched::PackRequests(true_positives(*vbp_method), counts).servers_used;
  EXPECT_LE(cm_servers, vbp_servers);
  // Colocation must beat one-request-per-server by a wide margin.
  EXPECT_LT(cm_servers, 400u);
}

}  // namespace
}  // namespace gaugur
