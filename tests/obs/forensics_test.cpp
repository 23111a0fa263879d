// Forensics-summary tests: building the digest from an event-log
// snapshot (counts, decision linkage, bounded recap tail), its JSON
// round trip, and the run-report integration, including documents that
// lack the section.

#include "obs/forensics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/report.h"
#include "obs/switch.h"
#include "obs/timeseries.h"

namespace gaugur::obs {
namespace {

Event Decision(std::uint64_t seq, std::uint64_t decision_id) {
  Event event;
  event.seq = seq;
  event.tick = static_cast<double>(seq);
  event.kind = EventKind::kDecision;
  event.decision_id = decision_id;
  event.fields["target_server"] = JsonValue(0);
  return event;
}

Event Violation(std::uint64_t seq, std::uint64_t decision_id,
                double realized_fps) {
  Event event;
  event.seq = seq;
  event.tick = static_cast<double>(seq);
  event.kind = EventKind::kQosViolation;
  event.decision_id = decision_id;
  event.fields["server"] = JsonValue(2);
  event.fields["victim_game"] = JsonValue(7);
  event.fields["realized_fps"] = JsonValue(realized_fps);
  event.fields["qos_fps"] = JsonValue(60.0);
  event.fields["dominant_resource"] = JsonValue("GPU-CE");
  event.fields["offender_game"] = JsonValue(3);
  return event;
}

TEST(BuildForensics, CountsKindsAndLinksViolations) {
  std::vector<Event> events;
  events.push_back(Decision(1, 1));
  events.push_back(Violation(2, 1, 55.0));   // linked: decision 1 is present
  events.push_back(Violation(3, 0, 52.0));   // unlinked: no decision id
  events.push_back(Violation(4, 99, 50.0));  // unlinked: decision not in log
  Event arrival;
  arrival.seq = 5;
  arrival.kind = EventKind::kArrival;
  events.push_back(arrival);

  FleetTimeSeries::Summary ts;
  ts.servers = 3;
  ts.samples_seen = 100;
  ts.samples_kept = 40;

  const ForensicsSummary summary =
      BuildForensics(events, /*dropped=*/6, ts);
  EXPECT_EQ(summary.events, 5u);
  EXPECT_EQ(summary.events_dropped, 6u);
  EXPECT_EQ(summary.decisions, 1u);
  EXPECT_EQ(summary.violations, 3u);
  EXPECT_EQ(summary.violations_linked, 1u);
  EXPECT_EQ(summary.events_by_kind.at("decision"), 1u);
  EXPECT_EQ(summary.events_by_kind.at("qos_violation"), 3u);
  EXPECT_EQ(summary.events_by_kind.at("arrival"), 1u);
  EXPECT_EQ(summary.ts_servers, 3u);
  EXPECT_EQ(summary.ts_samples_kept, 40u);
  EXPECT_FALSE(summary.Empty());

  ASSERT_EQ(summary.recent_violations.size(), 3u);
  const ViolationRecap& recap = summary.recent_violations.front();
  EXPECT_EQ(recap.seq, 2u);
  EXPECT_EQ(recap.decision_id, 1u);
  EXPECT_EQ(recap.server, 2u);
  EXPECT_EQ(recap.victim_game, 7);
  EXPECT_EQ(recap.realized_fps, 55.0);
  EXPECT_EQ(recap.qos_fps, 60.0);
  EXPECT_EQ(recap.dominant_resource, "GPU-CE");
  EXPECT_EQ(recap.offender_game, 3);
}

TEST(BuildForensics, RecapTailIsBoundedNewestLast) {
  std::vector<Event> events;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    events.push_back(Violation(i, 0, 50.0 + static_cast<double>(i)));
  }
  const ForensicsSummary summary =
      BuildForensics(events, 0, {}, /*max_recaps=*/4);
  EXPECT_EQ(summary.violations, 10u);
  ASSERT_EQ(summary.recent_violations.size(), 4u);
  EXPECT_EQ(summary.recent_violations.front().seq, 7u);
  EXPECT_EQ(summary.recent_violations.back().seq, 10u);
}

TEST(ForensicsSummary, JsonRoundTripsExactly) {
  std::vector<Event> events;
  events.push_back(Decision(1, 1));
  events.push_back(Violation(2, 1, 51.333333333333336));
  FleetTimeSeries::Summary ts;
  ts.servers = 1;
  ts.samples_seen = 7;
  ts.samples_kept = 7;
  const ForensicsSummary summary = BuildForensics(events, 0, ts);

  const ForensicsSummary parsed =
      ForensicsSummary::FromJson(summary.ToJson());
  EXPECT_EQ(parsed, summary);
  // Byte-stable: sorted keys make re-serialization a fixed point.
  EXPECT_EQ(parsed.ToJson().Dump(), summary.ToJson().Dump());
}

TEST(RunReportForensics, CaptureEmitsCurrentSchemaWithForensicsSection) {
  EnabledScope on(true);
  EventLog& log = EventLog::Global();
  log.Clear();
  FleetTimeSeries::Global().Clear();

  const std::uint64_t id = log.NextDecisionId();
  log.Append(EventKind::kDecision, 1.0, id,
             {{"target_server", JsonValue(0)}});
  log.Append(EventKind::kQosViolation, 2.0, id,
             {{"server", JsonValue(0)},
              {"victim_game", JsonValue(4)},
              {"realized_fps", JsonValue(48.5)},
              {"qos_fps", JsonValue(60.0)},
              {"dominant_resource", JsonValue("MEM-BW")},
              {"offender_game", JsonValue(9)}});

  const RunReport report = RunReport::Capture("forensics-test");
  ASSERT_TRUE(report.forensics().has_value());
  EXPECT_EQ(report.forensics()->violations, 1u);
  EXPECT_EQ(report.forensics()->violations_linked, 1u);

  const JsonValue doc = JsonValue::Parse(report.ToJsonString());
  EXPECT_EQ(doc.Find("schema")->AsString(),
            std::string("gaugur.obs.run_report/v5"));
  ASSERT_NE(doc.Find("forensics"), nullptr);

  const RunReport parsed = RunReport::FromJsonString(report.ToJsonString());
  ASSERT_TRUE(parsed.forensics().has_value());
  EXPECT_EQ(*parsed.forensics(), *report.forensics());
  log.Clear();
  FleetTimeSeries::Global().Clear();
}

TEST(RunReportForensics, DocumentsWithoutForensicsSectionParse) {
  const RunReport bare = RunReport::FromJsonString(
      R"({"schema": "gaugur.obs.run_report/v5", "name": "bare",)"
      R"( "counters": {"a": 3}, "gauges": {}, "histograms": {}})");
  EXPECT_EQ(bare.name(), "bare");
  EXPECT_FALSE(bare.forensics().has_value());

  // Only the schema and the name are required.
  const RunReport minimal = RunReport::FromJsonString(
      R"({"schema": "gaugur.obs.run_report/v5", "name": "minimal"})");
  EXPECT_TRUE(minimal.snapshot().counters.empty());
  EXPECT_FALSE(minimal.model_monitor().has_value());
  EXPECT_FALSE(minimal.forensics().has_value());
  EXPECT_FALSE(minimal.health().has_value());
  EXPECT_FALSE(minimal.profile().has_value());
}

}  // namespace
}  // namespace gaugur::obs
