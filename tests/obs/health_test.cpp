// Health-engine unit tests: the rule writer's golden JSON, the alert
// lifecycle state machine (pending -> firing hysteresis, resolve
// cooldown, pending cancellation, flap suppression), subscriber
// ordering, both condition kinds against injected local sources,
// run-report integration (a v4 document is rejected), the offline
// firing-window extraction/join, and a concurrent evaluate-while-append
// loop the TSan CI job runs.

#include "obs/health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/switch.h"
#include "obs/timeseries.h"

namespace gaugur::obs {
namespace {

/// A fully local engine: nothing leaks into (or reads from) the process
/// globals, so tests control every signal the rules see.
struct LocalWorld {
  Registry registry;
  FleetTimeSeries timeseries;
  EventLog event_log{{/*shard_capacity=*/256, /*num_shards=*/2}};
  HealthEngine engine{HealthEngineConfig{&registry, /*monitor=*/nullptr,
                                         &timeseries, &event_log}};
};

AlertRule GaugeRule(const std::string& name, double threshold,
                    int for_ticks, int resolve_ticks) {
  AlertRule rule;
  rule.name = name;
  rule.signal.kind = SignalKind::kGauge;
  rule.signal.name = "test.gauge";
  rule.condition = ConditionKind::kThreshold;
  rule.comparison = Comparison::kAbove;
  rule.threshold = threshold;
  rule.for_ticks = for_ticks;
  rule.resolve_ticks = resolve_ticks;
  return rule;
}

std::vector<std::pair<AlertState, AlertState>> Edges(
    const std::vector<AlertTransition>& transitions) {
  std::vector<std::pair<AlertState, AlertState>> edges;
  for (const AlertTransition& t : transitions) {
    edges.emplace_back(t.from, t.to);
  }
  return edges;
}

TEST(HealthRuleJson, RoundTripsEveryFieldExactly) {
  AlertRule rule;
  rule.name = "burny";
  rule.severity = "critical";
  rule.signal.kind = SignalKind::kCounterRatio;
  rule.signal.name = "bad";
  rule.signal.denominator = "good+bad";
  rule.condition = ConditionKind::kBurnRate;
  rule.comparison = Comparison::kBelow;
  rule.threshold = 7.0;
  rule.window_ticks = 11.0;
  rule.fast_window_ticks = 3.0;
  rule.slow_window_ticks = 17.0;
  rule.slo = 0.875;
  rule.burn_threshold = 2.0;
  rule.for_ticks = 4;
  rule.resolve_ticks = 5;
  rule.max_flaps = 6;
  rule.flap_window_ticks = 99.0;

  // Golden: every field, under sorted keys, with shortest round-trip
  // numbers. The health section of every run report carries this shape.
  const std::string golden =
      R"({"burn_threshold":2,"comparison":"below","condition":"burn_rate",)"
      R"("fast_window_ticks":3,"flap_window_ticks":99,"for_ticks":4,)"
      R"("max_flaps":6,"name":"burny","resolve_ticks":5,)"
      R"("severity":"critical","signal":{"denominator":"good+bad",)"
      R"("kind":"counter_ratio","name":"bad"},"slo":0.875,)"
      R"("slow_window_ticks":17,"threshold":7,"window_ticks":11})";
  EXPECT_EQ(rule.ToJson().Dump(), golden);
  // The text parses back into the same document.
  EXPECT_EQ(JsonValue::Parse(golden), rule.ToJson());
}

TEST(HealthLifecycle, PendingToFiringHysteresisThenResolve) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.AddRule(GaugeRule("g", /*threshold=*/10.0, /*for_ticks=*/3,
                                 /*resolve_ticks=*/2));
  std::vector<AlertTransition> seen;
  SubscriptionScope sub(world.engine, [&seen](const AlertTransition& t) {
    seen.push_back(t);
  });

  Gauge& gauge = world.registry.GetGauge("test.gauge");
  gauge.Add(50);  // above threshold
  world.engine.Evaluate(1.0);  // true #1 -> pending
  world.engine.Evaluate(2.0);  // true #2 -> still pending, no transition
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].to, AlertState::kPending);
  world.engine.Evaluate(3.0);  // true #3 == for_ticks -> firing
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].from, AlertState::kPending);
  EXPECT_EQ(seen[1].to, AlertState::kFiring);
  EXPECT_EQ(seen[1].rule, "g");
  EXPECT_EQ(seen[1].label, "");
  EXPECT_DOUBLE_EQ(seen[1].value, 50.0);
  EXPECT_DOUBLE_EQ(seen[1].threshold, 10.0);

  gauge.Sub(50);  // back to 0, below threshold
  world.engine.Evaluate(4.0);  // false #1: firing holds
  ASSERT_EQ(seen.size(), 2u);
  world.engine.Evaluate(5.0);  // false #2 == resolve_ticks -> resolved
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2].to, AlertState::kResolved);
  world.engine.Evaluate(6.0);  // false #3
  world.engine.Evaluate(7.0);  // false #4 == 2*resolve_ticks -> inactive
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(Edges(seen),
            (std::vector<std::pair<AlertState, AlertState>>{
                {AlertState::kInactive, AlertState::kPending},
                {AlertState::kPending, AlertState::kFiring},
                {AlertState::kFiring, AlertState::kResolved},
                {AlertState::kResolved, AlertState::kInactive}}));

  const HealthSummary summary = world.engine.Summary();
  EXPECT_EQ(summary.evaluations, 7u);
  EXPECT_EQ(summary.transitions, 4u);
  EXPECT_EQ(summary.alerts_fired, 1u);
  EXPECT_EQ(summary.alerts_resolved, 1u);
  EXPECT_EQ(summary.flaps_suppressed, 0u);
  EXPECT_EQ(summary.firing, 0u);

  // Emitted transitions reconcile 1:1 with the obs.health.* metrics and
  // the alert events appended to the injected log.
  EXPECT_EQ(world.registry.GetCounter("obs.health.transitions").Value(), 4u);
  EXPECT_EQ(world.registry.GetCounter("obs.health.alerts_fired").Value(), 1u);
  EXPECT_EQ(world.registry.GetCounter("obs.health.alerts_resolved").Value(),
            1u);
  EXPECT_EQ(world.registry.GetGauge("obs.health.firing").Value(), 0);
  EXPECT_EQ(world.event_log.Snapshot().size(), 4u);
}

TEST(HealthLifecycle, PendingCancelsOnOneFalseEvaluation) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.AddRule(GaugeRule("g", 10.0, /*for_ticks=*/3,
                                 /*resolve_ticks=*/2));
  std::vector<AlertTransition> seen;
  SubscriptionScope sub(world.engine, [&seen](const AlertTransition& t) {
    seen.push_back(t);
  });

  Gauge& gauge = world.registry.GetGauge("test.gauge");
  gauge.Add(50);
  world.engine.Evaluate(1.0);  // pending
  gauge.Sub(50);
  world.engine.Evaluate(2.0);  // one false evaluation cancels pending
  EXPECT_EQ(Edges(seen),
            (std::vector<std::pair<AlertState, AlertState>>{
                {AlertState::kInactive, AlertState::kPending},
                {AlertState::kPending, AlertState::kInactive}}));
  EXPECT_EQ(world.engine.Summary().alerts_fired, 0u);
}

TEST(HealthLifecycle, ForTicksOneFiresWithoutPending) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.AddRule(GaugeRule("g", 10.0, /*for_ticks=*/1,
                                 /*resolve_ticks=*/1));
  std::vector<AlertTransition> seen;
  SubscriptionScope sub(world.engine, [&seen](const AlertTransition& t) {
    seen.push_back(t);
  });
  world.registry.GetGauge("test.gauge").Add(50);
  world.engine.Evaluate(1.0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].from, AlertState::kInactive);
  EXPECT_EQ(seen[0].to, AlertState::kFiring);
}

TEST(HealthLifecycle, FlapSuppressionMutesUntilWindowDrains) {
  EnabledScope on(true);
  LocalWorld world;
  AlertRule rule = GaugeRule("flappy", 10.0, /*for_ticks=*/1,
                             /*resolve_ticks=*/1);
  rule.max_flaps = 2;
  rule.flap_window_ticks = 100.0;
  world.engine.AddRule(rule);
  std::vector<AlertTransition> seen;
  SubscriptionScope sub(world.engine, [&seen](const AlertTransition& t) {
    seen.push_back(t);
  });

  Gauge& gauge = world.registry.GetGauge("test.gauge");
  // Flap: fire at t=1, 3, 5; resolve+inactive between. The third firing
  // entry exceeds max_flaps=2 inside the 100-tick window and mutes the
  // instance.
  auto pulse = [&](double fire_tick) {
    gauge.Add(50);
    world.engine.Evaluate(fire_tick);  // -> firing
    gauge.Sub(50);
    world.engine.Evaluate(fire_tick + 1.0);  // -> resolved
    world.engine.Evaluate(fire_tick + 1.5);  // -> inactive (2*resolve)
  };
  pulse(1.0);
  pulse(3.0);
  const std::size_t emitted_before = seen.size();
  EXPECT_EQ(emitted_before, 6u);  // two full fire/resolve/inactive cycles
  pulse(5.0);  // entirely muted
  EXPECT_EQ(seen.size(), emitted_before);

  HealthSummary summary = world.engine.Summary();
  EXPECT_EQ(summary.alerts_fired, 2u);
  EXPECT_EQ(summary.flaps_suppressed, 3u);  // muted fire+resolve+inactive
  EXPECT_EQ(summary.firing, 0u);  // muted firings never bump the gauge
  ASSERT_EQ(summary.rules.size(), 1u);
  ASSERT_EQ(summary.rules[0].instances.size(), 1u);
  EXPECT_TRUE(summary.rules[0].instances[0].flap_suppressed);

  // The muted transitions never reached the log either: emitted events
  // still reconcile 1:1 with the counters.
  EXPECT_EQ(world.event_log.Snapshot().size(), emitted_before);
  EXPECT_EQ(world.registry.GetCounter("obs.health.transitions").Value(),
            emitted_before);
  EXPECT_EQ(world.registry.GetCounter("obs.health.flaps_suppressed").Value(),
            3u);

  // Quiet until the flap window drains past the last firing (t=5): the
  // instance may speak again.
  world.engine.Evaluate(110.0);
  gauge.Add(50);
  world.engine.Evaluate(111.0);
  ASSERT_EQ(seen.size(), emitted_before + 1);
  EXPECT_EQ(seen.back().to, AlertState::kFiring);
  summary = world.engine.Summary();
  EXPECT_EQ(summary.alerts_fired, 3u);
  EXPECT_EQ(summary.firing, 1u);
  EXPECT_FALSE(summary.rules[0].instances[0].flap_suppressed);
}

TEST(HealthLifecycle, SubscribersSeeEveryTransitionInOrder) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.AddRule(GaugeRule("g", 10.0, /*for_ticks=*/1,
                                 /*resolve_ticks=*/1));

  // `calls` interleaves both subscribers: for every transition, the
  // first-subscribed callback must run before the second.
  std::vector<std::pair<int, std::uint64_t>> calls;
  const std::uint64_t first =
      world.engine.Subscribe([&calls](const AlertTransition& t) {
        calls.emplace_back(1, t.id);
      });
  const std::uint64_t second =
      world.engine.Subscribe([&calls](const AlertTransition& t) {
        calls.emplace_back(2, t.id);
      });
  ASSERT_LT(first, second);

  Gauge& gauge = world.registry.GetGauge("test.gauge");
  gauge.Add(50);
  world.engine.Evaluate(1.0);  // firing
  gauge.Sub(50);
  world.engine.Evaluate(2.0);  // resolved
  ASSERT_EQ(calls.size(), 4u);
  for (std::size_t i = 0; i + 1 < calls.size(); i += 2) {
    EXPECT_EQ(calls[i].first, 1);
    EXPECT_EQ(calls[i + 1].first, 2);
    EXPECT_EQ(calls[i].second, calls[i + 1].second);  // same transition
  }
  EXPECT_LT(calls[0].second, calls[2].second);  // ids are emission-ordered

  world.engine.Unsubscribe(first);
  world.engine.Evaluate(3.0);  // inactive (2*resolve_ticks quiet)
  ASSERT_EQ(calls.size(), 5u);
  EXPECT_EQ(calls.back().first, 2);
  world.engine.Unsubscribe(second);
}

TEST(HealthConditions, BurnRateNeedsBothWindows) {
  EnabledScope on(true);
  LocalWorld world;
  AlertRule rule;
  rule.name = "burn";
  rule.severity = "critical";
  rule.signal.kind = SignalKind::kCounterRatio;
  rule.signal.name = "test.bad";
  rule.signal.denominator = "test.total";
  rule.condition = ConditionKind::kBurnRate;
  rule.slo = 0.9;  // error budget 0.1
  rule.burn_threshold = 1.0;
  rule.fast_window_ticks = 2.0;
  rule.slow_window_ticks = 6.0;
  rule.for_ticks = 1;
  rule.resolve_ticks = 1;
  world.engine.AddRule(rule);
  std::vector<AlertTransition> seen;
  SubscriptionScope sub(world.engine, [&seen](const AlertTransition& t) {
    seen.push_back(t);
  });

  Counter& bad = world.registry.GetCounter("test.bad");
  Counter& total = world.registry.GetCounter("test.total");
  // Ten clean ticks of history (10 requests/tick, none bad).
  for (double tick = 0.0; tick <= 10.0; tick += 1.0) {
    total.Add(10);
    world.engine.Evaluate(tick);
  }
  EXPECT_TRUE(seen.empty());

  // One bad blip: the fast window burns hot (0.25/0.1 = 2.5x) but the
  // slow window stays inside budget, so nobody is paged.
  bad.Add(5);
  total.Add(10);
  world.engine.Evaluate(11.0);
  EXPECT_TRUE(seen.empty());

  // Sustained badness pushes the slow window past budget too: page.
  for (double tick = 12.0; tick <= 14.0; tick += 1.0) {
    bad.Add(5);
    total.Add(10);
    world.engine.Evaluate(tick);
    if (!seen.empty()) break;
  }
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0].to, AlertState::kFiring);
  EXPECT_GT(seen[0].value, 1.0);  // fast-window burn multiple
  EXPECT_DOUBLE_EQ(seen[0].threshold, 1.0);
}

TEST(HealthConditions, ServerMinFpsLabelsPerServerAndDrains) {
  EnabledScope on(true);
  LocalWorld world;
  AlertRule rule;
  rule.name = "deficit";
  rule.signal.kind = SignalKind::kServerMinFps;
  rule.condition = ConditionKind::kThreshold;
  rule.comparison = Comparison::kBelow;
  rule.threshold = 60.0;
  rule.for_ticks = 2;
  rule.resolve_ticks = 1;
  world.engine.AddRule(rule);
  std::vector<AlertTransition> seen;
  SubscriptionScope sub(world.engine, [&seen](const AlertTransition& t) {
    seen.push_back(t);
  });

  auto record = [&world](std::size_t server, double tick, double fps) {
    ServerSample sample;
    sample.tick = tick;
    sample.slots.push_back({/*game_id=*/1, fps, {}});
    world.timeseries.Record(server, sample);
  };
  record(0, 1.0, 30.0);  // deficit
  record(1, 1.0, 80.0);  // healthy
  world.engine.Evaluate(1.0);
  record(0, 2.0, 32.0);
  world.engine.Evaluate(2.0);  // second bad eval -> firing on server 0 only
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].to, AlertState::kFiring);
  EXPECT_EQ(seen[1].label, "0");
  EXPECT_EQ(seen[1].signal, SignalKind::kServerMinFps);

  // The server drains (empty sample): its label vanishes from the
  // sample set and the instance steps false until it resolves.
  world.timeseries.Record(0, ServerSample{3.0, {}});
  world.engine.Evaluate(3.0);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2].to, AlertState::kResolved);
  EXPECT_EQ(seen[2].label, "0");
}

TEST(HealthEngineTest, DisabledEvaluateIsNoop) {
  LocalWorld world;
  {
    EnabledScope on(true);
    world.engine.AddRule(GaugeRule("g", 10.0, 1, 1));
  }
  EnabledScope off(false);
  world.engine.Evaluate(1.0);
  EXPECT_EQ(world.engine.Summary().evaluations, 0u);
}

TEST(HealthSummaryJson, RoundTripsBitExactly) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.AddRule(GaugeRule("g", 10.0, /*for_ticks=*/2,
                                 /*resolve_ticks=*/2));
  Gauge& gauge = world.registry.GetGauge("test.gauge");
  gauge.Add(50);
  world.engine.Evaluate(1.0);
  world.engine.Evaluate(2.0);  // firing, still live at summary time

  const HealthSummary summary = world.engine.Summary();
  EXPECT_EQ(summary.firing, 1u);
  // The written document survives text bit-exactly: Parse(Dump) is the
  // same document, and re-dumping it reproduces the text.
  const std::string text = summary.ToJson().Dump();
  const JsonValue parsed = JsonValue::Parse(text);
  EXPECT_EQ(parsed, summary.ToJson());
  EXPECT_EQ(parsed.Dump(), text);
  EXPECT_EQ(JsonInteger<std::uint64_t>(parsed.Find("firing"), "firing"), 1u);
  const JsonValue& instance =
      parsed.Find("rules")->AsArray().at(0).Find("instances")->AsArray().at(0);
  EXPECT_EQ(instance.Find("state")->AsString(), "firing");
}

TEST(HealthRunReport, CurrentSchemaRoundTripsWithHealthSectionExactly) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.InstallDefaultRules(/*qos_fps=*/60.0);
  EXPECT_TRUE(world.engine.Armed());
  EXPECT_EQ(world.engine.Rules().size(), 8u);
  world.registry.GetGauge("pool.queue_depth").Add(1000);  // over backlog
  world.engine.Evaluate(1.0);
  world.engine.Evaluate(2.0);  // pool_queue_backlog fires

  RunReport report("health-report", world.registry.Snap());
  report.SetHealth(world.engine.Summary());
  const std::string json = report.ToJsonString();
  EXPECT_NE(json.find("\"gaugur.obs.run_report/v5\""), std::string::npos);

  // Exact round trip through the document model: the health section is
  // the summary's own JSON, and re-serialization reproduces the text.
  const JsonValue doc = JsonValue::Parse(json);
  ASSERT_NE(doc.Find("health"), nullptr);
  EXPECT_EQ(*doc.Find("health"), report.health()->ToJson());
  EXPECT_EQ(doc.Dump(2), json);
}

TEST(HealthRunReport, DocumentWithoutHealthOrProfileParses) {
  const RunReport parsed = RunReport::FromJsonString(
      R"({"schema": "gaugur.obs.run_report/v5", "name": "bare",)"
      R"( "counters": {"a": 3}, "gauges": {}, "histograms": {}})");
  EXPECT_EQ(parsed.name(), "bare");
  // The registry sections are not read back.
  EXPECT_TRUE(parsed.snapshot().counters.empty());
  EXPECT_FALSE(parsed.health().has_value());
  EXPECT_FALSE(parsed.profile().has_value());
}

TEST(HealthRunReport, V4DocumentIsRejected) {
  try {
    RunReport::FromJsonString(
        R"({"schema": "gaugur.obs.run_report/v4", "name": "legacy",)"
        R"( "counters": {"a": 3}, "gauges": {}, "histograms": {}})");
    FAIL() << "a v4 document parsed";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown run-report schema"),
              std::string::npos)
        << error.what();
  }
}

TEST(HealthWindows, ExtractAndJoinFiringWindows) {
  std::vector<Event> events;
  auto add = [&events](std::uint64_t seq, EventKind kind, double tick,
                       std::uint64_t decision_id, JsonObject fields) {
    Event event;
    event.seq = seq;
    event.kind = kind;
    event.tick = tick;
    event.decision_id = decision_id;
    event.fields = std::move(fields);
    events.push_back(std::move(event));
  };
  add(1, EventKind::kAlert, 10.0, 0,
      {{"rule", JsonValue("deficit")},
       {"label", JsonValue("0")},
       {"severity", JsonValue("warning")},
       {"signal", JsonValue("server_min_fps")},
       {"from", JsonValue("pending")},
       {"to", JsonValue("firing")},
       {"value", JsonValue(42.0)},
       {"threshold", JsonValue(60.0)}});
  // An ack event (no from/to) must not open or close a window.
  add(2, EventKind::kAlert, 10.5, 0,
      {{"action", JsonValue("ack_drift")}, {"rule", JsonValue("deficit")}});
  add(3, EventKind::kQosViolation, 12.0, 5, {{"server", JsonValue(0)}});
  add(4, EventKind::kQosViolation, 13.0, 6, {{"server", JsonValue(1)}});
  add(5, EventKind::kQosViolation, 14.0, 5, {{"server", JsonValue(0)}});
  add(6, EventKind::kAlert, 20.0, 0,
      {{"rule", JsonValue("deficit")},
       {"label", JsonValue("0")},
       {"severity", JsonValue("warning")},
       {"signal", JsonValue("server_min_fps")},
       {"from", JsonValue("firing")},
       {"to", JsonValue("resolved")},
       {"value", JsonValue(61.0)},
       {"threshold", JsonValue(60.0)}});
  add(7, EventKind::kQosViolation, 25.0, 9,
      {{"server", JsonValue(0)}});  // after the window

  const std::vector<FiringWindow> windows = ExtractFiringWindows(events);
  ASSERT_EQ(windows.size(), 1u);
  const FiringWindow& window = windows[0];
  EXPECT_EQ(window.rule, "deficit");
  EXPECT_EQ(window.label, "0");
  EXPECT_EQ(window.server, 0);
  EXPECT_TRUE(window.resolved);
  EXPECT_DOUBLE_EQ(window.fired_tick, 10.0);
  EXPECT_DOUBLE_EQ(window.resolved_tick, 20.0);
  EXPECT_DOUBLE_EQ(window.value, 42.0);

  const FiringWindowJoin join = JoinFiringWindow(window, events);
  // Server-scoped: only the two server-0 violations inside the window,
  // and their decision id deduplicated.
  EXPECT_EQ(join.violation_seqs, (std::vector<std::uint64_t>{3, 5}));
  EXPECT_EQ(join.decision_ids, (std::vector<std::uint64_t>{5}));
}

TEST(HealthWindows, UnresolvedWindowExtendsToLogEnd) {
  std::vector<Event> events;
  Event firing;
  firing.seq = 1;
  firing.kind = EventKind::kAlert;
  firing.tick = 10.0;
  firing.fields = {{"rule", JsonValue("r")},
                   {"label", JsonValue("")},
                   {"from", JsonValue("pending")},
                   {"to", JsonValue("firing")}};
  events.push_back(firing);
  Event later;
  later.seq = 2;
  later.kind = EventKind::kAlert;
  later.tick = 30.0;
  later.fields = {{"rule", JsonValue("other")},
                  {"label", JsonValue("")},
                  {"from", JsonValue("inactive")},
                  {"to", JsonValue("pending")}};
  events.push_back(later);

  const std::vector<FiringWindow> windows = ExtractFiringWindows(events);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_FALSE(windows[0].resolved);
  EXPECT_DOUBLE_EQ(windows[0].resolved_tick, 30.0);
}

// The TSan job runs this: Evaluate() racing source mutation, event-log
// appends, and Summary() snapshots must stay clean.
TEST(HealthEngineTest, ConcurrentEvaluateWhileAppendIsRaceFree) {
  EnabledScope on(true);
  LocalWorld world;
  world.engine.AddRule(GaugeRule("g", 100.0, 2, 2));
  // A windowed ratio keeps the per-instance sample ring under the race.
  AlertRule counter_rule;
  counter_rule.name = "c";
  counter_rule.signal.kind = SignalKind::kCounterRatio;
  counter_rule.signal.name = "test.bad";
  counter_rule.signal.denominator = "test.counter";
  counter_rule.condition = ConditionKind::kThreshold;
  counter_rule.threshold = 0.5;
  counter_rule.window_ticks = 10.0;
  counter_rule.for_ticks = 2;
  counter_rule.resolve_ticks = 2;
  world.engine.AddRule(counter_rule);
  SubscriptionScope sub(world.engine, [&world](const AlertTransition& t) {
    world.event_log.Append(EventKind::kAlert, t.tick, 0,
                           {{"action", JsonValue("ack")},
                            {"rule", JsonValue(t.rule)}});
  });

  std::atomic<bool> stop{false};
  std::thread writer([&world, &stop] {
    double tick = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      tick += 1.0;
      world.registry.GetCounter("test.counter").Add(120);
      world.registry.GetCounter("test.bad").Add(tick > 50.0 ? 10 : 90);
      world.registry.GetGauge("test.gauge").Add(tick > 50.0 ? -1 : 3);
      ServerSample sample;
      sample.tick = tick;
      sample.slots.push_back({1, 45.0, {}});
      world.timeseries.Record(0, sample);
      world.event_log.Append(EventKind::kArrival, tick, 0,
                             {{"game_id", JsonValue(1)}});
    }
  });
  std::thread reader([&world, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)world.engine.Summary();
    }
  });
  for (double tick = 1.0; tick <= 400.0; tick += 1.0) {
    world.engine.Evaluate(tick);
  }
  stop.store(true);
  writer.join();
  reader.join();
  EXPECT_EQ(world.engine.Summary().evaluations, 400u);
}

}  // namespace
}  // namespace gaugur::obs
