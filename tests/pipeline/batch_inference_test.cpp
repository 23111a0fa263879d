// Regression tests for the batched inference engine at the scheduler
// boundary: batch entry points must agree bit for bit with the scalar
// ones, the prediction cache must be invisible (same numbers, same audit
// records and drift counts, whether or not an entry was fingerprinted)
// and retrain-invalidated, and every scheduler that switched to
// batch scoring must still produce the exact placements/assignments the
// scalar path did.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "gaugur/predictor.h"
#include "ml/dataset.h"
#include "obs/model_monitor.h"
#include "obs/switch.h"
#include "sched/assignment.h"
#include "sched/dynamic.h"
#include "sched/methodology.h"
#include "sched/study.h"
#include "tests/pipeline/scalar_oracle.h"
#include "tests/pipeline/world.h"

namespace gaugur::sched {
namespace {

using core::Colocation;
using core::GAugurPredictor;
using core::QosQuery;
using core::SessionRequest;
using gaugur::testing::GAugurCmOracle;
using gaugur::testing::GAugurRmOracle;
using gaugur::testing::OracleMethod;
using gaugur::testing::ScalarFpsSum;
using gaugur::testing::ScalarOracle;
using gaugur::testing::TestWorld;

constexpr double kQos = 60.0;

/// Two predictors trained identically on the same slice, one with the
/// cache disabled — memoization must be unobservable in the outputs.
struct TrainedPair {
  GAugurPredictor cached;
  GAugurPredictor uncached;
};

const TrainedPair& Trained() {
  static const TrainedPair* pair = [] {
    const auto& world = TestWorld::Get();
    core::PredictorConfig config;
    core::PredictorConfig no_cache = config;
    no_cache.prediction_cache_capacity = 0;
    auto* p = new TrainedPair{GAugurPredictor(world.features(), config),
                              GAugurPredictor(world.features(), no_cache)};
    const std::span<const core::MeasuredColocation> slice =
        std::span(world.corpus()).first(200);
    const std::vector<double> qos_grid{kQos};
    for (GAugurPredictor* predictor : {&p->cached, &p->uncached}) {
      predictor->TrainRm(slice);
      predictor->TrainCm(slice, qos_grid);
    }
    return p;
  }();
  return *pair;
}

/// Per-victim queries over a span of colocations, with stable co-runner
/// storage.
struct QueryPool {
  std::vector<SessionRequest> pool;
  std::vector<QosQuery> queries;
};

QueryPool BuildQueries(std::span<const core::MeasuredColocation> measured) {
  QueryPool out;
  std::size_t slots = 0;
  for (const auto& m : measured) {
    slots += m.sessions.size() * (m.sessions.size() - 1);
  }
  out.pool.reserve(slots);
  for (const auto& m : measured) {
    for (std::size_t v = 0; v < m.sessions.size(); ++v) {
      const std::size_t begin = out.pool.size();
      for (std::size_t j = 0; j < m.sessions.size(); ++j) {
        if (j != v) out.pool.push_back(m.sessions[j]);
      }
      out.queries.push_back(
          {m.sessions[v],
           std::span<const SessionRequest>(out.pool.data() + begin,
                                           out.pool.size() - begin)});
    }
  }
  return out;
}

std::vector<Colocation> TestCandidates() {
  std::vector<Colocation> candidates;
  for (const auto& m : TestWorld::Get().test_corpus()) {
    candidates.push_back(m.sessions);
  }
  return candidates;
}

TEST(BatchInferenceTest, BatchEntryPointsMatchScalarBitForBit) {
  const auto& predictor = Trained().uncached;
  const auto q =
      BuildQueries(std::span(TestWorld::Get().test_corpus()).first(40));

  const std::vector<double> fps = predictor.PredictFpsBatch(q.queries);
  const std::vector<char> ok = predictor.PredictQosOkBatch(kQos, q.queries);
  ASSERT_EQ(fps.size(), q.queries.size());
  ASSERT_EQ(ok.size(), q.queries.size());
  for (std::size_t i = 0; i < q.queries.size(); ++i) {
    const auto& query = q.queries[i];
    EXPECT_EQ(fps[i], predictor.PredictFps(query.victim, query.corunners))
        << "query " << i;
    EXPECT_EQ(ok[i] != 0,
              predictor.PredictQosOk(kQos, query.victim, query.corunners))
        << "query " << i;
  }
}

TEST(BatchInferenceTest, CachedPredictorIsBitIdenticalToUncached) {
  const auto& pair = Trained();
  const auto q =
      BuildQueries(std::span(TestWorld::Get().test_corpus()).first(40));

  const std::vector<double> baseline = pair.uncached.PredictFpsBatch(q.queries);
  const std::vector<char> baseline_ok =
      pair.uncached.PredictQosOkBatch(kQos, q.queries);
  // First pass fills the cache, second pass replays from it; both must
  // match the uncached answers exactly.
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(pair.cached.PredictFpsBatch(q.queries), baseline)
        << "pass " << pass;
    EXPECT_EQ(pair.cached.PredictQosOkBatch(kQos, q.queries), baseline_ok)
        << "pass " << pass;
  }
  const auto stats = pair.cached.PredictionCacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(pair.cached.PredictionCacheSize(), 0u);
}

TEST(BatchInferenceTest, ScoreCandidatesMatchesPerVictimQueries) {
  const auto& predictor = Trained().cached;
  const auto candidates = TestCandidates();

  const std::vector<char> verdicts =
      predictor.ScoreCandidates(kQos, candidates);
  ASSERT_EQ(verdicts.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(verdicts[i] != 0, predictor.PredictFeasible(kQos, candidates[i]))
        << "candidate " << i;
    bool all_ok = true;
    for (std::size_t v = 0; v < candidates[i].size(); ++v) {
      Colocation corunners = candidates[i];
      corunners.erase(corunners.begin() + static_cast<std::ptrdiff_t>(v));
      all_ok = all_ok &&
               predictor.PredictQosOk(kQos, candidates[i][v], corunners);
    }
    EXPECT_EQ(verdicts[i] != 0, all_ok) << "candidate " << i;
  }
}

TEST(BatchInferenceTest, RetrainInvalidatesPredictionCache) {
  const auto& world = TestWorld::Get();
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(100);
  GAugurPredictor predictor(world.features());
  predictor.TrainRm(slice);
  const std::vector<double> qos_grid{kQos};
  predictor.TrainCm(slice, qos_grid);

  const auto q = BuildQueries(std::span(world.test_corpus()).first(10));
  (void)predictor.PredictFpsBatch(q.queries);
  EXPECT_GT(predictor.PredictionCacheSize(), 0u);
  predictor.TrainRm(slice);
  EXPECT_EQ(predictor.PredictionCacheSize(), 0u);

  (void)predictor.PredictQosOkBatch(kQos, q.queries);
  EXPECT_GT(predictor.PredictionCacheSize(), 0u);
  predictor.TrainCm(slice, qos_grid);
  EXPECT_EQ(predictor.PredictionCacheSize(), 0u);
}

/// Both GAugur methodologies over the cached predictor, each with its
/// scalar oracle.
std::vector<std::pair<std::unique_ptr<Methodology>, ScalarOracle>>
GAugurMethods() {
  const GAugurPredictor& predictor = Trained().cached;
  std::vector<std::pair<std::unique_ptr<Methodology>, ScalarOracle>> out;
  out.emplace_back(MakeGAugurCmMethod(predictor), GAugurCmOracle(predictor));
  out.emplace_back(MakeGAugurRmMethod(predictor), GAugurRmOracle(predictor));
  return out;
}

TEST(BatchInferenceTest, FeasibleBatchMatchesScalarForGAugurMethods) {
  const auto candidates = TestCandidates();
  for (const auto& [method, oracle] : GAugurMethods()) {
    SCOPED_TRACE(method->Name());
    const std::vector<char> verdicts =
        method->FeasibleBatch(kQos, candidates);
    ASSERT_EQ(verdicts.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(verdicts[i] != 0, oracle.feasible(kQos, candidates[i]))
          << "candidate " << i;
    }
  }
}

TEST(BatchInferenceTest, PredictFpsSumsMatchScalarLoopBitForBit) {
  const auto candidates = TestCandidates();
  for (const auto& [method, oracle] : GAugurMethods()) {
    SCOPED_TRACE(method->Name());
    const std::vector<double> sums = method->PredictFpsSums(candidates);
    ASSERT_EQ(sums.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(sums[i], ScalarFpsSum(oracle.fps, candidates[i]))
          << "candidate " << i;
    }
  }
}

TEST(BatchInferenceTest, BatchPolicyReproducesScalarFleetExactly) {
  const auto& world = TestWorld::Get();
  const auto method = MakeGAugurCmMethod(Trained().cached);
  const ScalarOracle oracle = GAugurCmOracle(Trained().cached);
  const auto setup = SelectStudyGames(world.lab(), 6, kQos, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 150.0, 0.4, 25.0, 23);

  const auto scalar = SimulateDynamicFleet(
      world.lab(), trace, MakeFirstFeasiblePolicy([&](const Colocation& c) {
        return oracle.feasible(kQos, c);
      }));
  const auto batch = SimulateDynamicFleet(
      world.lab(), trace,
      MakeBatchFeasiblePolicy(
          [&](std::span<const Colocation> candidates) {
            return method->FeasibleBatch(kQos, candidates);
          }));

  EXPECT_EQ(scalar.sessions, batch.sessions);
  EXPECT_EQ(scalar.peak_servers, batch.peak_servers);
  EXPECT_EQ(scalar.violated_sessions, batch.violated_sessions);
  EXPECT_EQ(scalar.powerons, batch.powerons);
  EXPECT_DOUBLE_EQ(scalar.server_minutes, batch.server_minutes);
}

TEST(BatchInferenceTest, QuantizedTierReproducesFloatTierFleetExactly) {
  // Every feature row the fleet scores over the 150-min trace, fed to
  // the uncached predictor's trained CM and RM: the batch entry points
  // (the quantized descent on AVX2 hosts) must return exactly the
  // per-row float descent's doubles, so no placement can differ.
  const auto& world = TestWorld::Get();
  const GAugurPredictor& predictor = Trained().uncached;
  const auto setup = SelectStudyGames(world.lab(), 6, kQos, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 150.0, 0.4, 25.0, 23);
  std::vector<double> cm_rows;
  std::vector<double> rm_rows;
  std::vector<std::size_t> decision_ends;  // row count after each decision
  SimulateDynamicFleet(
      world.lab(), trace,
      MakeBatchFeasiblePolicy([&](std::span<const Colocation> candidates) {
        for (const Colocation& c : candidates) {
          for (std::size_t v = 0; v < c.size(); ++v) {
            Colocation corunners = c;
            corunners.erase(corunners.begin() +
                            static_cast<std::ptrdiff_t>(v));
            world.features().AppendCmFeatures(kQos, c[v], corunners,
                                              cm_rows);
            world.features().AppendRmFeatures(c[v], corunners, rm_rows);
          }
        }
        decision_ends.push_back(cm_rows.size() / world.features().CmDim());
        return predictor.ScoreCandidates(kQos, candidates);
      }));

  const std::size_t rows = decision_ends.back();
  const ml::MatrixView cm{cm_rows.data(), rows, world.features().CmDim()};
  const ml::MatrixView rm{rm_rows.data(), rows, world.features().RmDim()};
  // The whole trace in one batch (past the 256-row multi-core cutoff),
  // then one batch per decision, as the fleet evaluated them.
  std::vector<double> cm_whole(rows);
  std::vector<double> rm_whole(rows);
  predictor.Cm().PredictProbBatch(cm, cm_whole);
  predictor.Rm().PredictBatch(rm, rm_whole);
  std::vector<double> cm_decision(rows);
  std::vector<double> rm_decision(rows);
  std::size_t begin = 0;
  for (const std::size_t end : decision_ends) {
    const std::size_t n = end - begin;
    predictor.Cm().PredictProbBatch(
        {cm.data + begin * cm.cols, n, cm.cols},
        std::span(cm_decision).subspan(begin, n));
    predictor.Rm().PredictBatch({rm.data + begin * rm.cols, n, rm.cols},
                                std::span(rm_decision).subspan(begin, n));
    begin = end;
  }
  ASSERT_GE(rows, 256u);
  for (std::size_t i = 0; i < rows; ++i) {
    const double cm_row = predictor.Cm().PredictProb(cm.Row(i));
    const double rm_row = predictor.Rm().Predict(rm.Row(i));
    EXPECT_EQ(cm_row, cm_whole[i]) << "row " << i;
    EXPECT_EQ(cm_row, cm_decision[i]) << "row " << i;
    EXPECT_EQ(rm_row, rm_whole[i]) << "row " << i;
    EXPECT_EQ(rm_row, rm_decision[i]) << "row " << i;
  }
}

TEST(BatchInferenceTest, AssignmentUnchangedByBatchScoring) {
  const auto& world = TestWorld::Get();
  const auto method = MakeGAugurRmMethod(Trained().cached);
  const Methodology scalar_method =
      OracleMethod(GAugurRmOracle(Trained().cached));

  std::vector<SessionRequest> requests;
  for (const auto& m : world.test_corpus()) {
    for (const auto& s : m.sessions) {
      requests.push_back(s);
      if (requests.size() >= 120) break;
    }
    if (requests.size() >= 120) break;
  }
  AssignmentOptions options;
  options.num_servers = 100;

  const auto batched = AssignByPredictedFps(*method, world.features(),
                                            requests, options);
  const auto scalar = AssignByPredictedFps(scalar_method, world.features(),
                                           requests, options);
  EXPECT_EQ(batched, scalar);
}

TEST(BatchInferenceTest, CacheHitsReplayOneAuditRecordPerQuery) {
  obs::EnabledScope on(true);
  auto& monitor = obs::ModelMonitor::Global();
  const auto& world = TestWorld::Get();

  // Fresh predictor so the first batch is all misses.
  GAugurPredictor predictor(world.features());
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(100);
  predictor.TrainRm(slice);
  const std::vector<double> qos_grid{kQos};
  predictor.TrainCm(slice, qos_grid);

  const auto q = BuildQueries(std::span(world.test_corpus()).first(10));
  const std::uint64_t before = monitor.Summary().cm_predictions;
  (void)predictor.PredictQosOkBatch(kQos, q.queries);
  const std::uint64_t after_cold = monitor.Summary().cm_predictions;
  EXPECT_EQ(after_cold - before, q.queries.size());

  // Second pass is served from the cache yet must audit every logical
  // query again — memoization is invisible to the model monitor.
  EXPECT_GT(predictor.PredictionCacheStats().misses, 0u);
  (void)predictor.PredictQosOkBatch(kQos, q.queries);
  EXPECT_GT(predictor.PredictionCacheStats().hits, 0u);
  const std::uint64_t after_warm = monitor.Summary().cm_predictions;
  EXPECT_EQ(after_warm - after_cold, q.queries.size());
}

/// What the model monitor holds after one audited run.
struct MonitorState {
  obs::ModelMonitorSummary summary;
  std::vector<obs::PredictionRecord> audit;
};

/// Clears the global monitor and re-installs its drift references, as a
/// fresh run does, then lets `run` issue queries.
template <typename Run>
MonitorState AuditedRun(Run run) {
  auto& monitor = obs::ModelMonitor::Global();
  const auto rm_reference = monitor.Reference(obs::ModelKind::kRm);
  const auto cm_reference = monitor.Reference(obs::ModelKind::kCm);
  monitor.Reset();
  monitor.SetReference(obs::ModelKind::kRm, rm_reference);
  monitor.SetReference(obs::ModelKind::kCm, cm_reference);
  run();
  return {monitor.Summary(), monitor.AuditLog()};
}

/// A cached and an uncached predictor trained on the same slice with obs
/// on, so both installed the same drift references.
TrainedPair FreshPair() {
  obs::EnabledScope on(true);
  const auto& world = TestWorld::Get();
  core::PredictorConfig no_cache;
  no_cache.prediction_cache_capacity = 0;
  TrainedPair pair{GAugurPredictor(world.features()),
                   GAugurPredictor(world.features(), no_cache)};
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(100);
  const std::vector<double> qos_grid{kQos};
  for (GAugurPredictor* predictor : {&pair.cached, &pair.uncached}) {
    predictor->TrainRm(slice);
    predictor->TrainCm(slice, qos_grid);
  }
  return pair;
}

TEST(BatchInferenceTest, CacheHitsCountDriftLikeRepeatedMisses) {
  obs::EnabledScope on(true);
  const TrainedPair pair = FreshPair();
  const auto q = BuildQueries(std::span(TestWorld::Get().test_corpus()).first(10));
  const auto twice = [&q](const GAugurPredictor& predictor) {
    return AuditedRun([&] {
      for (int pass = 0; pass < 2; ++pass) {
        (void)predictor.PredictQosOkBatch(kQos, q.queries);
        (void)predictor.PredictFpsBatch(q.queries);
      }
    });
  };
  // Cached: misses, then every query a hit replaying the fingerprint
  // taken at insert. Uncached: the miss path twice.
  const MonitorState cached = twice(pair.cached);
  const MonitorState uncached = twice(pair.uncached);
  EXPECT_GT(pair.cached.PredictionCacheStats().hits, 0u);
  EXPECT_EQ(pair.uncached.PredictionCacheStats().hits, 0u);
  EXPECT_EQ(cached.summary, uncached.summary);
  EXPECT_EQ(cached.audit, uncached.audit);
  EXPECT_EQ(cached.summary.cm_drift.online_samples, 2 * q.queries.size());
  EXPECT_EQ(cached.summary.rm_drift.online_samples, 2 * q.queries.size());

  // Every entry carries a fingerprint binned against the installed
  // edges, so the hits took the precomputed bins.
  const auto& query = q.queries.front();
  const auto entry = pair.cached.Cache().Lookup(
      {core::ModelJoinKey(query.victim, query.corunners),
       std::bit_cast<std::uint64_t>(kQos), /*kind=*/1});
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->fingerprint, nullptr);
  EXPECT_EQ(entry->fingerprint->edges,
            obs::ModelMonitor::Global()
                .Fingerprint(obs::ModelKind::kCm, entry->features)
                .edges);
}

TEST(BatchInferenceTest, MissesKeepTheFeatureRowOnlyWithObsOn) {
  // Nothing reads a row while obs is off, so an obs-off miss stores the
  // value alone; an obs-on miss stores the row and its fingerprint.
  obs::EnabledScope on(true);
  const TrainedPair pair = FreshPair();
  const auto q = BuildQueries(std::span(TestWorld::Get().test_corpus()).first(3));
  const auto& query = q.queries.front();
  const std::uint64_t join_key =
      core::ModelJoinKey(query.victim, query.corunners);
  {
    obs::EnabledScope off(false);
    (void)pair.cached.PredictQosOkBatch(kQos, q.queries);
  }
  (void)pair.cached.PredictFpsBatch(q.queries);

  const auto cm_entry = pair.cached.Cache().Lookup(
      {join_key, std::bit_cast<std::uint64_t>(kQos), /*kind=*/1});
  ASSERT_NE(cm_entry, nullptr);
  EXPECT_TRUE(cm_entry->features.empty());
  EXPECT_EQ(cm_entry->fingerprint, nullptr);

  const auto rm_entry =
      pair.cached.Cache().Lookup({join_key, /*qos_bits=*/0, /*kind=*/0});
  ASSERT_NE(rm_entry, nullptr);
  EXPECT_EQ(rm_entry->features.size(), pair.cached.Features().RmDim());
  ASSERT_NE(rm_entry->fingerprint, nullptr);
  EXPECT_EQ(rm_entry->fingerprint->digest,
            obs::ModelMonitor::Global()
                .Fingerprint(obs::ModelKind::kRm, rm_entry->features)
                .digest);
}

TEST(BatchInferenceTest, EntriesFilledWithObsOffAuditTheSameWhenHit) {
  obs::EnabledScope on(true);
  const TrainedPair pair = FreshPair();
  const auto q = BuildQueries(std::span(TestWorld::Get().test_corpus()).first(10));
  {
    // Warm the cache with telemetry off: entries carry no fingerprint.
    obs::EnabledScope off(false);
    (void)pair.cached.PredictQosOkBatch(kQos, q.queries);
    (void)pair.cached.PredictFpsBatch(q.queries);
  }
  const auto once = [&q](const GAugurPredictor& predictor) {
    return AuditedRun([&] {
      (void)predictor.PredictQosOkBatch(kQos, q.queries);
      (void)predictor.PredictFpsBatch(q.queries);
    });
  };
  const auto& query = q.queries.front();
  const auto entry = pair.cached.Cache().Lookup(
      {core::ModelJoinKey(query.victim, query.corunners),
       std::bit_cast<std::uint64_t>(kQos), /*kind=*/1});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->fingerprint, nullptr);
  const auto misses_before = pair.cached.PredictionCacheStats().misses;
  const MonitorState hits = once(pair.cached);
  EXPECT_EQ(pair.cached.PredictionCacheStats().misses, misses_before);
  EXPECT_EQ(hits.summary, once(pair.uncached).summary);
  EXPECT_EQ(hits.audit, once(pair.uncached).audit);
}

}  // namespace
}  // namespace gaugur::sched
