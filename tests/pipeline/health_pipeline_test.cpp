// The acceptance tests for the fleet health engine.
//
// 1. A controlled, fully local world: an injected sustained FPS deficit
//    drives the server_min_fps rule through the complete lifecycle
//    (inactive -> pending -> firing -> resolved -> inactive), the alert
//    events stream through a real TelemetrySink into sealed segments,
//    every emitted transition reconciles 1:1 with the obs.health.*
//    metrics, a registered subscriber observes every transition in
//    order, and the firing window extracted from the STREAMED events
//    joins back to the qos_violation events and decision ids it
//    overlaps — the `trace_explorer alerts` pipeline end to end.
//
// 2. A real SimulateDynamicFleet run with the default rule pack armed:
//    lifecycle alert events in the global log reconcile exactly with
//    the engine summary and the global obs.health.* counter deltas, the
//    run report captures a health section that round-trips, and the
//    demo drift-ack subscriber leaves ack events for PSI firings.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gaugur/predictor.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/stream.h"
#include "obs/switch.h"
#include "obs/timeseries.h"
#include "sched/dynamic.h"
#include "sched/study.h"
#include "tests/pipeline/world.h"

namespace gaugur::sched {
namespace {

using gaugur::testing::TestWorld;
namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gaugur_health_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// All events of a finalized sink directory, seq-sorted.
std::vector<obs::Event> StreamedEvents(const std::string& dir) {
  obs::Manifest manifest;
  EXPECT_TRUE(obs::Manifest::Load(dir, &manifest));
  std::vector<obs::Event> events;
  const auto it = manifest.streams.find(obs::kEventsStream);
  if (it == manifest.streams.end()) return events;
  for (const obs::SegmentInfo& segment : it->second.segments) {
    std::vector<obs::Event> part;
    EXPECT_TRUE(obs::EventLog::ReadJsonl(dir + "/" + segment.file, &part));
    events.insert(events.end(), part.begin(), part.end());
  }
  std::sort(events.begin(), events.end(),
            [](const obs::Event& a, const obs::Event& b) {
              return a.seq < b.seq;
            });
  return events;
}

/// Lifecycle alert events (with a from/to edge; acks have neither).
std::vector<const obs::Event*> LifecycleAlerts(
    const std::vector<obs::Event>& events) {
  std::vector<const obs::Event*> alerts;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kAlert) continue;
    if (event.fields.count("to") == 0) continue;
    alerts.push_back(&event);
  }
  return alerts;
}

TEST(HealthPipelineTest, InjectedFpsDeficitFullLifecycleThroughSink) {
  obs::EnabledScope on(true);
  // Fully local world: the engine, its sources, and the sink share the
  // same injected instances, so nothing leaks into the process globals.
  obs::Registry registry;
  obs::FleetTimeSeries timeseries;
  obs::EventLog event_log({/*shard_capacity=*/512, /*num_shards=*/2});
  obs::HealthEngine engine{obs::HealthEngineConfig{
      &registry, /*monitor=*/nullptr, &timeseries, &event_log}};

  obs::AlertRule rule;
  rule.name = "server_fps_deficit";
  rule.severity = "warning";
  rule.signal.kind = obs::SignalKind::kServerMinFps;
  rule.condition = obs::ConditionKind::kThreshold;
  rule.comparison = obs::Comparison::kBelow;
  rule.threshold = 60.0;
  rule.for_ticks = 2;
  rule.resolve_ticks = 2;
  engine.AddRule(rule);

  std::vector<obs::AlertTransition> seen;
  obs::SubscriptionScope sub(engine,
                             [&seen](const obs::AlertTransition& t) {
                               seen.push_back(t);
                             });

  const std::string dir = TempDir("lifecycle");
  obs::SinkConfig sink_config;
  sink_config.directory = dir;
  sink_config.event_log = &event_log;
  sink_config.timeseries = &timeseries;
  sink_config.registry = &registry;
  obs::TelemetrySink sink(sink_config);

  auto record = [&timeseries](std::size_t server, double tick, double fps) {
    obs::ServerSample sample;
    sample.tick = tick;
    sample.slots.push_back({/*game_id=*/3, fps, {}});
    timeseries.Record(server, sample);
  };

  // The injected deficit: server 0 sustains 40 FPS against the 60 FPS
  // floor. t=1 -> pending, t=2 -> firing.
  record(0, 1.0, 40.0);
  engine.Evaluate(1.0);
  record(0, 2.0, 41.0);
  engine.Evaluate(2.0);

  // While the alert fires, the fleet also logs the violations the
  // window should later join to (decision 7 placed the victim).
  const std::uint64_t decision_id = 7;
  event_log.Append(obs::EventKind::kDecision, 2.5, decision_id,
                   {{"target_server", obs::JsonValue(0)}});
  event_log.Append(obs::EventKind::kQosViolation, 3.0, decision_id,
                   {{"server", obs::JsonValue(0)},
                    {"realized_fps", obs::JsonValue(40.0)}});
  event_log.Append(obs::EventKind::kQosViolation, 3.5, decision_id,
                   {{"server", obs::JsonValue(1)},
                    {"realized_fps", obs::JsonValue(55.0)}});
  record(0, 3.0, 40.0);
  engine.Evaluate(3.0);  // still firing, no transition

  // Recovery: two clean evaluations resolve, two more close the episode.
  record(0, 4.0, 75.0);
  engine.Evaluate(4.0);
  record(0, 5.0, 80.0);
  engine.Evaluate(5.0);  // -> resolved
  record(0, 6.0, 80.0);
  engine.Evaluate(6.0);
  record(0, 7.0, 80.0);
  engine.Evaluate(7.0);  // -> inactive

  sink.Stop();

  // The subscriber observed the complete lifecycle, in emission order.
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].to, obs::AlertState::kPending);
  EXPECT_EQ(seen[1].to, obs::AlertState::kFiring);
  EXPECT_EQ(seen[2].to, obs::AlertState::kResolved);
  EXPECT_EQ(seen[3].to, obs::AlertState::kInactive);
  for (const obs::AlertTransition& t : seen) {
    EXPECT_EQ(t.rule, "server_fps_deficit");
    EXPECT_EQ(t.label, "0");
  }
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1].id, seen[i].id);
  }

  // The streamed segments carry the same four transitions — and they
  // reconcile 1:1 with the obs.health.* metrics the engine bumped.
  const std::vector<obs::Event> streamed = StreamedEvents(dir);
  const std::vector<const obs::Event*> alerts = LifecycleAlerts(streamed);
  ASSERT_EQ(alerts.size(), 4u);
  EXPECT_EQ(registry.GetCounter("obs.health.transitions").Value(), 4u);
  EXPECT_EQ(registry.GetCounter("obs.health.alerts_fired").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("obs.health.alerts_resolved").Value(), 1u);
  EXPECT_EQ(registry.GetCounter("obs.health.flaps_suppressed").Value(), 0u);
  EXPECT_EQ(registry.GetGauge("obs.health.firing").Value(), 0);
  const obs::HealthSummary summary = engine.Summary();
  EXPECT_EQ(summary.transitions, 4u);
  EXPECT_EQ(summary.alerts_fired, 1u);
  EXPECT_EQ(summary.alerts_resolved, 1u);
  EXPECT_EQ(summary.firing, 0u);

  // The trace_explorer join, against the STREAMED events: the firing
  // window [2, 5] resolves to the server-0 violation and decision 7.
  const std::vector<obs::FiringWindow> windows =
      obs::ExtractFiringWindows(streamed);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].rule, "server_fps_deficit");
  EXPECT_EQ(windows[0].server, 0);
  EXPECT_TRUE(windows[0].resolved);
  EXPECT_DOUBLE_EQ(windows[0].fired_tick, 2.0);
  EXPECT_DOUBLE_EQ(windows[0].resolved_tick, 5.0);

  const obs::FiringWindowJoin join =
      obs::JoinFiringWindow(windows[0], streamed);
  ASSERT_EQ(join.violation_seqs.size(), 1u);  // server 1's is excluded
  EXPECT_EQ(join.decision_ids,
            (std::vector<std::uint64_t>{decision_id}));

  fs::remove_all(dir);
}

TEST(HealthPipelineTest, DefaultPackOnFleetRunReconcilesWithEventStream) {
  obs::EnabledScope on(true);
  obs::EventLog& log = obs::EventLog::Global();
  obs::FleetTimeSeries& ts = obs::FleetTimeSeries::Global();
  obs::ModelMonitor& monitor = obs::ModelMonitor::Global();
  obs::HealthEngine& engine = obs::HealthEngine::Global();
  log.Clear();
  ts.Clear();
  monitor.Reset();
  engine.Reset();
  // Whatever happens below, later tests must not see an armed engine.
  struct EngineGuard {
    ~EngineGuard() { obs::HealthEngine::Global().Reset(); }
  } guard;

  engine.InstallDefaultRules(/*qos_fps=*/60.0);
  std::vector<std::uint64_t> observed_ids;
  obs::SubscriptionScope sub(
      engine, [&observed_ids](const obs::AlertTransition& t) {
        observed_ids.push_back(t.id);
      });
  const obs::Snapshot before = obs::Registry::Global().Snap();
  auto counter_delta = [&before](const obs::Snapshot& after,
                                 const std::string& name) {
    const auto now = after.counters.find(name);
    const auto then = before.counters.find(name);
    return (now != after.counters.end() ? now->second : 0) -
           (then != before.counters.end() ? then->second : 0);
  };

  const auto& world = TestWorld::Get();
  core::GAugurPredictor predictor(world.features());
  const std::span<const core::MeasuredColocation> slice =
      std::span(world.corpus()).first(200);
  const std::vector<double> qos_grid{60.0};
  predictor.TrainRm(slice);
  predictor.TrainCm(slice, qos_grid);

  // The same deliberately hot trace the provenance test chases: enough
  // sustained deficits for the default pack to fire.
  const auto setup = SelectStudyGames(world.lab(), 8, 60.0, 3);
  const auto trace =
      GenerateDynamicTrace(setup.game_ids, 200.0, 0.6, 25.0, 23);
  const auto result = SimulateDynamicFleet(
      world.lab(), trace, MakeProvenancePolicy(predictor, 60.0));
  EXPECT_GT(result.sessions, 0u);

  const obs::HealthSummary summary = engine.Summary();
  EXPECT_GT(summary.evaluations, 0u);
  ASSERT_GT(summary.alerts_fired, 0u)
      << "hot trace produced no alerts; the default pack is inert";

  // Every emitted transition reached the subscriber, in order.
  EXPECT_EQ(observed_ids.size(), summary.transitions);
  for (std::size_t i = 1; i < observed_ids.size(); ++i) {
    EXPECT_LT(observed_ids[i - 1], observed_ids[i]);
  }

  // ...and the event stream: lifecycle alert events reconcile 1:1 with
  // the summary and with the global obs.health.* counter deltas.
  const std::vector<obs::Event> events = log.Snapshot();
  EXPECT_EQ(log.TotalDropped(), 0u);
  const std::vector<const obs::Event*> alerts = LifecycleAlerts(events);
  EXPECT_EQ(alerts.size(), summary.transitions);
  std::size_t fired = 0, resolved = 0, acks = 0;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kAlert) continue;
    if (event.fields.count("action")) {
      ++acks;
      continue;
    }
    const std::string to = event.fields.at("to").AsString();
    if (to == "firing") ++fired;
    if (to == "resolved") ++resolved;
  }
  EXPECT_EQ(fired, summary.alerts_fired);
  EXPECT_EQ(resolved, summary.alerts_resolved);
  const obs::Snapshot after = obs::Registry::Global().Snap();
  EXPECT_EQ(counter_delta(after, "obs.health.evaluations"),
            summary.evaluations);
  EXPECT_EQ(counter_delta(after, "obs.health.transitions"),
            summary.transitions);
  EXPECT_EQ(counter_delta(after, "obs.health.alerts_fired"),
            summary.alerts_fired);
  EXPECT_EQ(counter_delta(after, "obs.health.alerts_resolved"),
            summary.alerts_resolved);

  // The demo subscriber acknowledged PSI-drift firings into the log.
  std::size_t psi_firings = 0;
  for (const obs::Event* alert : alerts) {
    if (alert->fields.at("to").AsString() == "firing" &&
        alert->fields.at("signal").AsString() == "monitor_psi") {
      ++psi_firings;
    }
  }
  EXPECT_EQ(acks, psi_firings);

  // The offline join holds on the real run: every window's violations
  // lie inside the window, on the window's server when labeled, and
  // trace back to decisions that exist in the log.
  std::set<std::uint64_t> decision_ids;
  std::map<std::uint64_t, const obs::Event*> violations_by_seq;
  for (const obs::Event& event : events) {
    if (event.kind == obs::EventKind::kDecision) {
      decision_ids.insert(event.decision_id);
    } else if (event.kind == obs::EventKind::kQosViolation) {
      violations_by_seq[event.seq] = &event;
    }
  }
  const std::vector<obs::FiringWindow> windows =
      obs::ExtractFiringWindows(events);
  ASSERT_FALSE(windows.empty());
  std::size_t joined = 0;
  for (const obs::FiringWindow& window : windows) {
    const obs::FiringWindowJoin join = obs::JoinFiringWindow(window, events);
    joined += join.violation_seqs.size();
    for (const std::uint64_t seq : join.violation_seqs) {
      const auto it = violations_by_seq.find(seq);
      ASSERT_NE(it, violations_by_seq.end());
      EXPECT_GE(it->second->tick, window.fired_tick);
      EXPECT_LE(it->second->tick, window.resolved_tick);
      if (window.server >= 0) {
        EXPECT_EQ(static_cast<long long>(
                      it->second->fields.at("server").AsNumber()),
                  window.server);
      }
    }
    for (const std::uint64_t id : join.decision_ids) {
      EXPECT_TRUE(decision_ids.count(id)) << "joined decision " << id;
    }
  }
  EXPECT_GT(joined, 0u) << "no firing window overlapped any violation";

  // The run report carries the health section.
  const obs::RunReport report = obs::RunReport::Capture("health-pipeline");
  ASSERT_TRUE(report.health().has_value());
  EXPECT_EQ(report.health()->alerts_fired, summary.alerts_fired);
  const obs::JsonValue doc = obs::JsonValue::Parse(report.ToJsonString());
  ASSERT_NE(doc.Find("health"), nullptr);
  EXPECT_EQ(*doc.Find("health"), report.health()->ToJson());

  log.Clear();
  ts.Clear();
  monitor.Reset();
}

}  // namespace
}  // namespace gaugur::sched
