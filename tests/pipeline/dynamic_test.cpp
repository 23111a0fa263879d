#include "sched/dynamic.h"

#include "sched/study.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "gaugur/predictor.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/report.h"
#include "obs/switch.h"
#include "obs/timeseries.h"
#include "tests/pipeline/world.h"

namespace gaugur::sched {
namespace {

using core::Colocation;
using core::SessionRequest;
using gaugur::testing::TestWorld;

std::vector<DynamicRequest> TinyTrace(int game_id = 0) {
  // Two overlapping sessions, one later one.
  return {
      {0.0, 10.0, {game_id, resources::k1080p}},
      {2.0, 10.0, {game_id, resources::k1080p}},
      {30.0, 5.0, {game_id, resources::k1080p}},
  };
}

TEST(DynamicFleetTest, DedicatedPolicyOneServerPerSession) {
  const auto& world = TestWorld::Get();
  const auto result = SimulateDynamicFleet(world.lab(), TinyTrace(),
                                           MakeDedicatedPolicy());
  EXPECT_EQ(result.sessions, 3u);
  EXPECT_EQ(result.peak_servers, 2u);  // two overlap, third is later
  EXPECT_NEAR(result.server_minutes, 25.0, 1e-9);
  EXPECT_EQ(result.violated_sessions, 0u);
}

TEST(DynamicFleetTest, AlwaysColocatePolicyPacksOverlaps) {
  const auto& world = TestWorld::Get();
  const auto always = MakeFirstFeasiblePolicy(
      [](const Colocation&) { return true; });
  const auto result =
      SimulateDynamicFleet(world.lab(), TinyTrace(), always);
  EXPECT_EQ(result.peak_servers, 1u);
  // Server busy [0, 12] and [30, 35].
  EXPECT_NEAR(result.server_minutes, 17.0, 1e-9);
}

TEST(DynamicFleetTest, CapacityLimitsColocation) {
  const auto& world = TestWorld::Get();
  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back({0.0 + 0.1 * i, 20.0, {0, resources::k1080p}});
  }
  const auto always = MakeFirstFeasiblePolicy(
      [](const Colocation&) { return true; });
  DynamicOptions options;
  options.max_sessions_per_server = 4;
  const auto result =
      SimulateDynamicFleet(world.lab(), burst, always, options);
  EXPECT_EQ(result.peak_servers, 2u);  // 4 + 2
}

TEST(DynamicFleetTest, ViolationsDetectedForGreedyPacking) {
  // Packing four heavy games on one box must violate 60 FPS sometime.
  const auto& world = TestWorld::Get();
  std::vector<DynamicRequest> burst;
  const char* heavies[] = {"Far Cry 4", "ARK Survival Evolved",
                           "Rise of The Tomb Raider",
                           "The Witcher 3 - Wild Hunt"};
  for (int i = 0; i < 4; ++i) {
    burst.push_back({0.1 * i, 20.0,
                     {world.catalog().ByName(heavies[i]).id,
                      resources::k1080p}});
  }
  const auto always = MakeFirstFeasiblePolicy(
      [](const Colocation&) { return true; });
  const auto result = SimulateDynamicFleet(world.lab(), burst, always);
  EXPECT_GT(result.violated_sessions, 0u);
}

TEST(DynamicFleetTest, GroundTruthPolicyAvoidsViolations) {
  const auto& world = TestWorld::Get();
  const auto setup = SelectStudyGames(world.lab(), 8, 60.0, 3);
  const auto trace = GenerateDynamicTrace(setup.game_ids, 200.0, 0.5,
                                          25.0, 7);
  const auto oracle = MakeFirstFeasiblePolicy([&](const Colocation& c) {
    return world.lab().TrulyFeasible(c, 60.0);
  });
  const auto result = SimulateDynamicFleet(world.lab(), trace, oracle);
  // Admission checks every intermediate colocation, so at the moment of
  // each placement nothing violates; departures only relieve pressure.
  EXPECT_EQ(result.violated_sessions, 0u);
  // And colocation must beat dedicated servers on cost.
  const auto dedicated =
      SimulateDynamicFleet(world.lab(), trace, MakeDedicatedPolicy());
  EXPECT_LT(result.server_minutes, dedicated.server_minutes);
  EXPECT_EQ(dedicated.violated_sessions, 0u);
}

TEST(DynamicFleetTest, TimeSeriesSlotsCarryTheirOwnGroundTruthFps) {
  // Ground truth is memoized per colocation multiset, but servers hold a
  // multiset in whatever slot order their arrivals formed: every recorded
  // slot must still carry its own session's frame rate.
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  auto& series = obs::FleetTimeSeries::Global();
  series.Clear();
  const auto setup = SelectStudyGames(world.lab(), 8, 60.0, 3);
  const auto trace = GenerateDynamicTrace(setup.game_ids, 300.0, 2.0,
                                          25.0, 11);
  const auto always = MakeFirstFeasiblePolicy(
      [](const Colocation&) { return true; });
  (void)SimulateDynamicFleet(world.lab(), trace, always);

  std::size_t slots = 0;
  for (std::size_t server = 0; server < series.NumServers(); ++server) {
    for (const obs::ServerSample& sample : series.Series(server)) {
      if (sample.slots.empty()) continue;
      Colocation content;
      for (const obs::SlotSample& slot : sample.slots) {
        content.push_back({slot.game_id, resources::kReferenceResolution});
      }
      const std::vector<double> truth = world.lab().TrueFps(content);
      for (std::size_t i = 0; i < content.size(); ++i) {
        EXPECT_NEAR(sample.slots[i].fps, truth[i], 1e-9 * std::abs(truth[i]))
            << "server " << server << " tick " << sample.tick << " slot "
            << i;
        ++slots;
      }
    }
  }
  EXPECT_GT(slots, 0u);
  series.Clear();
}

TEST(DynamicFleetTest, PoweronsTrackServerTrajectories) {
  const auto& world = TestWorld::Get();
  // Dedicated policy on the tiny trace: sessions 1+2 overlap on two
  // servers, session 3 re-powers an idle one -> 3 trajectory starts.
  const auto result = SimulateDynamicFleet(world.lab(), TinyTrace(),
                                           MakeDedicatedPolicy());
  EXPECT_EQ(result.powerons, 3u);
  EXPECT_GE(result.powerons, result.peak_servers);
}

TEST(DynamicFleetTest, SchedulerMetricsConsistentWithResult) {
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  auto& registry = obs::Registry::Global();
  const obs::Snapshot before = registry.Snap();

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace = GenerateDynamicTrace(setup.game_ids, 150.0, 0.4,
                                          25.0, 11);
  const auto oracle = MakeFirstFeasiblePolicy([&](const Colocation& c) {
    return world.lab().TrulyFeasible(c, 60.0);
  });
  const auto result = SimulateDynamicFleet(world.lab(), trace, oracle);

  const obs::Snapshot after = registry.Snap();
  const auto counter_delta = [&](const char* name) -> std::uint64_t {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    return after.counters.at(name) - base;
  };

  // Every arrival is exactly one placement decision...
  EXPECT_EQ(counter_delta("sched.placements"), result.sessions);
  // ...each power-on transition starts one billed server trajectory...
  EXPECT_EQ(counter_delta("sched.powerons"), result.powerons);
  EXPECT_GE(result.powerons, result.peak_servers);
  // ...and each decision was timed.
  const auto decision_before = before.histograms.find("sched.decision_us");
  const std::uint64_t decisions_before =
      decision_before == before.histograms.end() ? 0
                                                 : decision_before->second.count;
  EXPECT_EQ(after.histograms.at("sched.decision_us").count - decisions_before,
            result.sessions);
}

TEST(DynamicFleetTest, RegistrySnapshotAfterFullRunRoundTripsJson) {
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  // A real fleet run on top of the TestWorld (whose construction already
  // exercised profiling, corpus measurement, and the simulator): the
  // resulting registry must serialize to valid JSON in the documented
  // run-report schema, with the snapshot's exact counter values.
  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace = GenerateDynamicTrace(setup.game_ids, 100.0, 0.4,
                                          20.0, 17);
  const auto oracle = MakeFirstFeasiblePolicy([&](const Colocation& c) {
    return world.lab().TrulyFeasible(c, 60.0);
  });
  (void)SimulateDynamicFleet(world.lab(), trace, oracle);

  obs::RunReport report = obs::RunReport::Capture("pipeline-dynamic");
  report.SetMeta("suite", "tests_pipeline");
  const std::string json = report.ToJsonString();
  const obs::JsonValue doc = obs::JsonValue::Parse(json);  // valid JSON
  EXPECT_EQ(doc.Find("schema")->AsString(), obs::kRunReportSchema);

  // The run left real footprints in every layer it touched.
  const obs::JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"sched.placements", "lab.true_fps_calls", "sim.solve_calls"}) {
    const std::uint64_t written =
        obs::JsonInteger<std::uint64_t>(counters->Find(name), name);
    EXPECT_EQ(written, report.snapshot().counters.at(name)) << name;
    EXPECT_GT(written, 0u) << name;
  }
}

TEST(DynamicFleetTest, ModelMonitorJoinsPredictionsWithFleetOutcomes) {
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  auto& monitor = obs::ModelMonitor::Global();
  monitor.Reset();

  // A modest training slice keeps this test fast; fit-time feature
  // references are installed because obs is enabled during training.
  core::GAugurPredictor predictor(world.features());
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(200);
  predictor.TrainRm(slice);
  const std::vector<double> qos_grid{60.0};
  predictor.TrainCm(slice, qos_grid);
  EXPECT_FALSE(monitor.Reference(obs::ModelKind::kRm).Empty());
  EXPECT_FALSE(monitor.Reference(obs::ModelKind::kCm).Empty());

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace = GenerateDynamicTrace(setup.game_ids, 150.0, 0.5,
                                          25.0, 19);
  const auto policy = MakeFirstFeasiblePolicy([&](const Colocation& c) {
    return predictor.PredictFeasible(60.0, c);
  });
  const auto result = SimulateDynamicFleet(world.lab(), trace, policy);
  EXPECT_GT(result.sessions, 0u);

  // The predictor audited CM queries during admission and the simulator
  // observed realized FPS for every placed colocation: records joined.
  const obs::ModelMonitorSummary summary = monitor.Summary();
  EXPECT_GT(summary.cm_predictions, 0u);
  EXPECT_GT(summary.outcomes_joined, 0u);
  EXPECT_TRUE(summary.cm_drift.has_reference);
  EXPECT_GT(summary.cm_drift.online_samples, 0u);
  // Joined outcomes landed in the CM confusion matrix.
  EXPECT_GT(summary.cm_tp + summary.cm_fp + summary.cm_tn + summary.cm_fn,
            0u);

  // The run report carries the monitor section.
  const obs::RunReport report =
      obs::RunReport::Capture("pipeline-model-monitor");
  ASSERT_TRUE(report.model_monitor().has_value());
  const obs::JsonValue doc = obs::JsonValue::Parse(report.ToJsonString());
  ASSERT_NE(doc.Find("model_monitor"), nullptr);
  EXPECT_EQ(*doc.Find("model_monitor"), report.model_monitor()->ToJson());
  monitor.Reset();
}

TEST(DynamicTraceTest, RespectsHorizonAndGames) {
  const std::vector<int> ids{3, 7, 11};
  const auto trace = GenerateDynamicTrace(ids, 100.0, 1.0, 30.0, 5);
  EXPECT_GT(trace.size(), 50u);
  EXPECT_LT(trace.size(), 200u);
  for (const auto& r : trace) {
    EXPECT_GE(r.arrival_min, 0.0);
    EXPECT_LT(r.arrival_min, 100.0);
    EXPECT_GE(r.duration_min, 2.0);
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), r.session.game_id) !=
                ids.end());
  }
}

TEST(DynamicTraceTest, DeterministicInSeed) {
  const std::vector<int> ids{1, 2};
  const auto a = GenerateDynamicTrace(ids, 50.0, 0.8, 20.0, 9);
  const auto b = GenerateDynamicTrace(ids, 50.0, 0.8, 20.0, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_min, b[i].arrival_min);
    EXPECT_EQ(a[i].session.game_id, b[i].session.game_id);
  }
}

TEST(DynamicTraceTest, ArrivalRateRoughlyHonored) {
  const std::vector<int> ids{0};
  const auto trace = GenerateDynamicTrace(ids, 2000.0, 2.0, 30.0, 13);
  EXPECT_NEAR(static_cast<double>(trace.size()), 4000.0, 400.0);
}

}  // namespace
}  // namespace gaugur::sched
