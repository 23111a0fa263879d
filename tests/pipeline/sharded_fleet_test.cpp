// Sharded fleet service on the full predictor stack: replica semantics,
// tick-window invariance of one-shard placements, one-shard cache tallies
// that repeat exactly, and the shared striped cache warming every shard's
// replica.

#include "sched/dynamic.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gaugur/predictor.h"
#include "obs/event_log.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/switch.h"
#include "sched/study.h"
#include "tests/pipeline/world.h"

namespace gaugur::sched {
namespace {

using core::Colocation;
using gaugur::testing::TestWorld;

core::GAugurPredictor TrainedPredictor(const TestWorld& world,
                                       core::PredictorConfig config = {}) {
  core::GAugurPredictor predictor(world.features(), std::move(config));
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(200);
  predictor.TrainRm(slice);
  const std::vector<double> qos_grid{60.0};
  predictor.TrainCm(slice, qos_grid);
  return predictor;
}

TEST(ShardedFleetPipelineTest, ReplicaSharesModelsAndCache) {
  const auto& world = TestWorld::Get();
  const core::GAugurPredictor predictor = TrainedPredictor(world);

  core::GAugurPredictor replica = predictor.MakeReplica();
  EXPECT_TRUE(replica.IsReplica());
  EXPECT_FALSE(predictor.IsReplica());
  EXPECT_TRUE(replica.HasRm());
  EXPECT_TRUE(replica.HasCm());
  // One cache object behind the whole replica group.
  EXPECT_EQ(&replica.Cache(), &predictor.Cache());

  // Warm through the replica, then the parent's stats see the traffic
  // (same object) and a repeat query through the parent hits.
  const Colocation pair = {world.corpus()[0].sessions[0],
                           world.corpus()[0].sessions[1]};
  const std::vector<Colocation> candidates = {pair};
  (void)replica.ScoreCandidatesDetailed(60.0, candidates);
  const auto warmed = predictor.PredictionCacheStats();
  EXPECT_GT(predictor.PredictionCacheSize(), 0u);
  (void)predictor.ScoreCandidatesDetailed(60.0, candidates);
  EXPECT_GT(predictor.PredictionCacheStats().hits, warmed.hits);

  // Replicas are read-only handles: retraining one must throw.
  EXPECT_THROW(
      replica.TrainRm(std::span(world.corpus()).first(10)),
      std::logic_error);

  // The control arm: a private-cache replica starts cold and its traffic
  // never touches the parent's cache.
  const core::GAugurPredictor isolated =
      predictor.MakeReplica(/*share_cache=*/false);
  EXPECT_NE(&isolated.Cache(), &predictor.Cache());
  EXPECT_EQ(isolated.PredictionCacheSize(), 0u);
  const auto parent_before = predictor.PredictionCacheStats();
  (void)isolated.ScoreCandidatesDetailed(60.0, candidates);
  const auto parent_after = predictor.PredictionCacheStats();
  EXPECT_EQ(parent_after.hits, parent_before.hits);
  EXPECT_EQ(parent_after.misses, parent_before.misses);
  EXPECT_GT(isolated.PredictionCacheStats().misses, 0u);
}

TEST(ShardedFleetPipelineTest, ReplicaRequiresATrainedParent) {
  const auto& world = TestWorld::Get();
  const core::GAugurPredictor untrained(world.features());
  EXPECT_THROW((void)untrained.MakeReplica(), std::logic_error);
}

TEST(ShardedFleetPipelineTest, SingleShardPlacementsIgnoreTickWindow) {
  // Window-end departure drains are placement-neutral: one predictor-
  // backed shard with 5-minute barriers and with one window spanning the
  // whole trace must place every request on the same server.
  const auto& world = TestWorld::Get();
  const core::GAugurPredictor predictor = TrainedPredictor(world);

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 150.0, 0.5, 25.0, 23);

  ShardedFleetOptions options;
  options.num_shards = 1;
  options.tick_window_min = 5.0;
  const auto windowed = SimulateShardedFleet(
      world.lab(), trace, MakeReplicatedProvenanceFactory(predictor, 60.0),
      options);
  options.tick_window_min = std::numeric_limits<double>::max();
  const auto whole = SimulateShardedFleet(
      world.lab(), trace, MakeReplicatedProvenanceFactory(predictor, 60.0),
      options);

  ASSERT_EQ(windowed.total.placements.size(), trace.size());
  EXPECT_EQ(windowed.total.placements, whole.total.placements);
  EXPECT_EQ(windowed.total.violated_sessions, whole.total.violated_sessions);
  EXPECT_EQ(windowed.total.peak_servers, whole.total.peak_servers);
  EXPECT_EQ(windowed.total.powerons, whole.total.powerons);
  EXPECT_DOUBLE_EQ(windowed.total.server_minutes,
                   whole.total.server_minutes);
}

TEST(ShardedFleetPipelineTest, OneShardCacheTalliesRepeatExactly) {
  // CLOCK's residency depends only on the order of the queries, and one
  // shard issues them in trace order: two runs on identically trained
  // predictors, with a cache small enough to evict, must count the same
  // hits, misses and evictions. The counts are pinned as well: a batch
  // visits each stripe once, and these exact counts hold only while
  // every stripe still sees its lookups, then its inserts, in query
  // order.
  const auto& world = TestWorld::Get();
  core::PredictorConfig config;
  config.prediction_cache_capacity = 64;
  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 150.0, 0.5, 25.0, 31);
  ShardedFleetOptions options;
  options.num_shards = 1;

  std::vector<core::PredictionCache::Stats> runs;
  for (int run = 0; run < 2; ++run) {
    const core::GAugurPredictor predictor = TrainedPredictor(world, config);
    (void)SimulateShardedFleet(
        world.lab(), trace, MakeReplicatedProvenanceFactory(predictor, 60.0),
        options);
    runs.push_back(predictor.PredictionCacheStats());
  }
  EXPECT_EQ(runs[0].hits, 411u);
  EXPECT_EQ(runs[0].misses, 319u);
  EXPECT_EQ(runs[0].evictions, 172u);
  EXPECT_EQ(runs[0].hits, runs[1].hits);
  EXPECT_EQ(runs[0].misses, runs[1].misses);
  EXPECT_EQ(runs[0].evictions, runs[1].evictions);
}

TEST(ShardedFleetPipelineTest, MultiShardRunSharesOneCacheAcrossReplicas) {
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  const core::GAugurPredictor predictor = TrainedPredictor(world);

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 200.0, 0.6, 25.0, 29);

  ShardedFleetOptions options;
  options.num_shards = 4;
  const auto before = predictor.PredictionCacheStats();
  const auto result = SimulateShardedFleet(
      world.lab(), trace, MakeReplicatedProvenanceFactory(predictor, 60.0),
      options);

  EXPECT_EQ(result.total.sessions, trace.size());
  for (const long long placed : result.total.placements) {
    EXPECT_GE(placed, 0);
  }
  // All four replicas funneled their queries through the parent's cache:
  // the shared stats moved, and cross-shard reuse produced hits (shards
  // see overlapping colocation contents from the same game pool).
  const auto after = predictor.PredictionCacheStats();
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  // p99 decision latency was measured (collection defaults on).
  EXPECT_GT(result.decision_latency_p99_us, 0.0);
  EXPECT_GE(result.decision_latency_p99_us, result.decision_latency_p50_us);
}

TEST(ShardedFleetPipelineTest, PhaseTotalsReconcileWithDecisionLatency) {
  // The profiler's reconciliation contract (obs/latency_profiler.h): the
  // five in-decision phase totals — colocation_hash + feature_build +
  // cache_lookup + kernel_eval + policy_select, all exclusive time —
  // partition the span SchedMetrics times as sched.decision_us. The
  // remainder is timer/clock overhead and std::function dispatch, so the
  // sum must land just under the histogram total, never over.
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  const core::GAugurPredictor predictor = TrainedPredictor(world);

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 200.0, 0.6, 25.0, 29);

  obs::LatencyProfiler& profiler = obs::LatencyProfiler::Global();
  profiler.Reset();
  const obs::Snapshot base = obs::Registry::Global().Snap();

  ShardedFleetOptions options;
  options.num_shards = 2;
  (void)SimulateShardedFleet(
      world.lab(), trace, MakeReplicatedProvenanceFactory(predictor, 60.0),
      options);

  const obs::Snapshot delta =
      obs::Registry::Global().Snap().DeltaSince(base);
  const obs::LatencyProfileSummary summary = profiler.Summary();
  ASSERT_GT(summary.decisions, 0u);
  ASSERT_EQ(delta.histograms.count("sched.decision_us"), 1u);
  const double decision_us = delta.histograms.at("sched.decision_us").sum;
  ASSERT_GT(decision_us, 0.0);

  double attributed_us = 0.0;
  for (const obs::Phase phase :
       {obs::Phase::kColocationHash, obs::Phase::kFeatureBuild,
        obs::Phase::kCacheLookup, obs::Phase::kKernelEval,
        obs::Phase::kPolicySelect}) {
    attributed_us +=
        summary.fleet[static_cast<std::size_t>(phase)].total_us;
  }
  // Pinned tolerance: 15% relative plus 500 µs absolute slack for clock
  // granularity on very fast decisions.
  EXPECT_LE(attributed_us, decision_us * 1.02 + 500.0);
  EXPECT_GE(attributed_us, decision_us * 0.85 - 500.0);
  // The provenance policy exercised the whole phase taxonomy: candidate
  // scoring hashes colocations, misses build features and run the tree
  // kernel, and lookups touch the shared cache.
  for (const obs::Phase phase :
       {obs::Phase::kColocationHash, obs::Phase::kCacheLookup,
        obs::Phase::kKernelEval, obs::Phase::kPolicySelect}) {
    EXPECT_GT(summary.fleet[static_cast<std::size_t>(phase)].count, 0u)
        << obs::PhaseName(phase);
  }
  // The shared striped cache saw traffic from both shards while armed.
  EXPECT_GT(summary.cache.acquisitions, 0u);
  profiler.Reset();
}

TEST(ShardedFleetPipelineTest, TailExemplarsJoinDecisionEventsOneToOne) {
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  const core::GAugurPredictor predictor = TrainedPredictor(world);

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 150.0, 0.5, 25.0, 31);

  obs::LatencyProfiler& profiler = obs::LatencyProfiler::Global();
  profiler.Reset();
  obs::EventLog::Global().Clear();

  ShardedFleetOptions options;
  options.num_shards = 2;
  (void)SimulateShardedFleet(
      world.lab(), trace, MakeReplicatedProvenanceFactory(predictor, 60.0),
      options);

  const obs::LatencyProfileSummary summary = profiler.Summary();
  ASSERT_FALSE(summary.exemplars.empty());
  const std::vector<obs::Event> events = obs::EventLog::Global().Snapshot();
  std::set<std::uint64_t> seen_ids;
  for (const obs::TailExemplar& exemplar : summary.exemplars) {
    ASSERT_NE(exemplar.decision_id, 0u);
    // Distinct ring slots hold distinct decisions.
    EXPECT_TRUE(seen_ids.insert(exemplar.decision_id).second);
    std::size_t matches = 0;
    for (const obs::Event& event : events) {
      if (event.kind == obs::EventKind::kDecision &&
          event.decision_id == exemplar.decision_id) {
        ++matches;
        EXPECT_DOUBLE_EQ(event.tick, exemplar.tick);
      }
    }
    EXPECT_EQ(matches, 1u)
        << "exemplar decision " << exemplar.decision_id
        << " must join exactly one decision event";
  }
  obs::EventLog::Global().Clear();
  profiler.Reset();
}

}  // namespace
}  // namespace gaugur::sched
