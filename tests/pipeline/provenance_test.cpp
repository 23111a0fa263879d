// The acceptance test for decision provenance: run a seeded dynamic
// fleet under the provenance policy and verify that EVERY QoS violation
// is reachable from the event log — violation -> originating decision id
// -> the candidate scores and cache flags the predictor saw -> the
// per-resource interference attribution — and that the violation tally
// reconciles exactly with the model monitor's qos_violations_observed.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "gaugur/predictor.h"
#include "obs/event_log.h"
#include "obs/model_monitor.h"
#include "obs/report.h"
#include "obs/switch.h"
#include "obs/timeseries.h"
#include "resources/resource.h"
#include "sched/dynamic.h"
#include "sched/study.h"
#include "tests/pipeline/world.h"

namespace gaugur::sched {
namespace {

using gaugur::testing::TestWorld;

bool IsResourceName(const std::string& name) {
  for (resources::Resource r : resources::kAllResources) {
    if (name == resources::Name(r)) return true;
  }
  return false;
}

TEST(ProvenanceTest, EveryViolationIsReachableFromTheEventLog) {
  obs::EnabledScope on(true);
  obs::EventLog& log = obs::EventLog::Global();
  obs::FleetTimeSeries& ts = obs::FleetTimeSeries::Global();
  obs::ModelMonitor& monitor = obs::ModelMonitor::Global();
  log.Clear();
  ts.Clear();
  monitor.Reset();

  const auto& world = TestWorld::Get();
  core::GAugurPredictor predictor(world.features());
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(200);
  const std::vector<double> qos_grid{60.0};
  predictor.TrainRm(slice);
  predictor.TrainCm(slice, qos_grid);

  // A deliberately optimistic load (small model slice, busy trace) so the
  // run produces real violations to chase.
  const auto setup = SelectStudyGames(world.lab(), 8, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 200.0, 0.6, 25.0, 23);
  const auto result = SimulateDynamicFleet(
      world.lab(), trace, MakeProvenancePolicy(predictor, 60.0));
  EXPECT_GT(result.sessions, 0u);

  const std::vector<obs::Event> events = log.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(log.TotalDropped(), 0u)
      << "ring overflow would break provenance on this run size";

  std::map<std::uint64_t, const obs::Event*> decisions;
  std::vector<const obs::Event*> violations;
  std::size_t arrivals = 0;
  for (const obs::Event& event : events) {
    if (event.kind == obs::EventKind::kDecision) {
      decisions[event.decision_id] = &event;
    } else if (event.kind == obs::EventKind::kQosViolation) {
      violations.push_back(&event);
    } else if (event.kind == obs::EventKind::kArrival) {
      ++arrivals;
    }
  }
  EXPECT_EQ(arrivals, result.sessions);
  EXPECT_EQ(decisions.size(), result.sessions);

  // The writer renders every event of this one-shard run to the bytes of
  // the tree path, and the line reads back to the same event.
  for (const obs::Event& event : events) {
    std::string line;
    event.AppendJson(line);
    ASSERT_EQ(line, event.ToJson().Dump(/*indent=*/-1));
    ASSERT_EQ(obs::Event::FromJson(obs::JsonValue::Parse(line)), event);
  }
  ASSERT_GT(violations.size(), 0u)
      << "trace produced no violations; nothing to chase";
  EXPECT_GT(result.violated_sessions, 0u);

  // The hard acceptance bound: the event log's violation tally reconciles
  // exactly with the monitor's.
  EXPECT_EQ(violations.size(), monitor.Summary().qos_violations_observed);

  for (const obs::Event* violation : violations) {
    SCOPED_TRACE("violation seq " + std::to_string(violation->seq));
    // 1. The violation carries its interference attribution.
    const obs::JsonValue* realized = violation->fields.count("realized_fps")
                                         ? &violation->fields.at("realized_fps")
                                         : nullptr;
    ASSERT_NE(realized, nullptr);
    EXPECT_LT(realized->AsNumber(), 60.0);
    ASSERT_TRUE(violation->fields.count("dominant_resource"));
    EXPECT_TRUE(IsResourceName(
        violation->fields.at("dominant_resource").AsString()));
    ASSERT_TRUE(violation->fields.count("offender_game"));
    ASSERT_TRUE(violation->fields.count("offender_fps_gain"));
    ASSERT_TRUE(violation->fields.count("victim_game"));

    // 2. It links back to the decision that formed the colocation...
    ASSERT_GT(violation->decision_id, 0u);
    const auto it = decisions.find(violation->decision_id);
    ASSERT_NE(it, decisions.end());
    const obs::Event& decision = *it->second;
    EXPECT_LE(decision.seq, violation->seq);

    // 3. ...which recorded what the predictor believed at the time:
    // per-candidate verdicts with cache flags and the chosen placement.
    ASSERT_TRUE(decision.fields.count("num_candidates"));
    ASSERT_TRUE(decision.fields.count("choice"));
    ASSERT_TRUE(decision.fields.count("target_server"));
    ASSERT_TRUE(decision.candidates.has_value());
    const std::vector<obs::DecisionCandidate>& candidates =
        *decision.candidates;
    ASSERT_FALSE(candidates.empty());
    EXPECT_EQ(candidates.size(),
              static_cast<std::size_t>(
                  decision.fields.at("num_candidates").AsNumber()));
    std::uint64_t queries_total = 0, cache_hits_total = 0;
    for (const obs::DecisionCandidate& candidate : candidates) {
      // A candidate that passed the memory screen spent model queries.
      EXPECT_EQ(candidate.memory_ok, candidate.queries > 0);
      EXPECT_LE(candidate.cache_hits, candidate.queries);
      queries_total += candidate.queries;
      cache_hits_total += candidate.cache_hits;
    }
    EXPECT_EQ(static_cast<double>(queries_total),
              decision.fields.at("queries_total").AsNumber());
    EXPECT_EQ(static_cast<double>(cache_hits_total),
              decision.fields.at("cache_hits_total").AsNumber());
  }

  // The fleet time series sampled realized state alongside the events.
  const obs::FleetTimeSeries::Summary ts_summary = ts.Summarize();
  EXPECT_GT(ts_summary.servers, 0u);
  EXPECT_GT(ts_summary.samples_seen, 0u);

  // The captured run report carries the same story and round-trips.
  const obs::RunReport report = obs::RunReport::Capture("provenance-test");
  ASSERT_TRUE(report.forensics().has_value());
  EXPECT_EQ(report.forensics()->violations, violations.size());
  EXPECT_EQ(report.forensics()->violations_linked, violations.size());
  EXPECT_EQ(report.forensics()->decisions, decisions.size());
  const obs::RunReport parsed =
      obs::RunReport::FromJsonString(report.ToJsonString());
  ASSERT_TRUE(parsed.forensics().has_value());
  EXPECT_EQ(*parsed.forensics(), *report.forensics());

  // The whole run produced its telemetry without a single failed write.
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("obs.sink.write_errors").Value(), 0u);

  log.Clear();
  ts.Clear();
  monitor.Reset();
}

TEST(ProvenanceTest, DisabledRunLeavesNoTrace) {
  obs::EnabledScope off(false);
  obs::EventLog& log = obs::EventLog::Global();
  obs::FleetTimeSeries& ts = obs::FleetTimeSeries::Global();
  log.Clear();
  ts.Clear();

  const auto& world = TestWorld::Get();
  core::GAugurPredictor predictor(world.features());
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(100);
  const std::vector<double> qos_grid{60.0};
  predictor.TrainRm(slice);
  predictor.TrainCm(slice, qos_grid);

  const auto setup = SelectStudyGames(world.lab(), 6, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 80.0, 0.4, 20.0, 29);
  const auto result = SimulateDynamicFleet(
      world.lab(), trace, MakeProvenancePolicy(predictor, 60.0));
  EXPECT_GT(result.sessions, 0u);

  // The kill switch silences the whole provenance layer, yet placements
  // still happen (the policy itself must not depend on obs).
  EXPECT_TRUE(log.Empty());
  EXPECT_EQ(ts.Summarize().samples_seen, 0u);
}

}  // namespace
}  // namespace gaugur::sched
