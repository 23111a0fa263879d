// Structured run reports: a Registry snapshot serialized to JSON (for
// machines) and aligned text tables (for eyeballs), following the
// bench_results/ convention of one artifact per run.
//
// Documented schema, version "gaugur.obs.run_report/v5":
//
//   {
//     "schema": "gaugur.obs.run_report/v5",
//     "name": "<run name>",
//     "meta": {"<key>": "<string value>", ...},
//     "counters": {"<name>": <uint>, ...},
//     "gauges": {"<name>": <int>, ...},
//     "histograms": {
//       "<name>": {
//         "count": <uint>, "sum": <double>, "mean": <double>,
//         "p50": <double>, "p95": <double>, "p99": <double>,
//         "p999": <double>,
//         "buckets": [{"le": <double>, "count": <uint>}, ...,
//                     {"le": null, "count": <uint>}]   // overflow last
//       }, ...
//     },
//     "model_monitor": { ... },  // optional; obs/model_monitor.h schema
//     "forensics": { ... },      // optional; obs/forensics.h schema
//     "health": { ... },         // optional; obs/health.h HealthSummary
//     "profile": { ... }         // optional; obs/latency_profiler.h
//                                //   LatencyProfileSummary
//   }
//
// Every section after "histograms" is optional. FromJson rejects any
// schema other than v5 and reads back only what trace_explorer renders:
// the name, "forensics" and "profile". Every other key is ignored, so a
// parsed report has an empty snapshot and no meta, model_monitor or
// health section. All sections serialize through JsonObject (std::map),
// so keys are sorted and the emitted JSON is byte-stable across runs and
// platforms.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "obs/forensics.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"

namespace gaugur::obs {

inline constexpr const char* kRunReportSchema = "gaugur.obs.run_report/v5";

class RunReport {
 public:
  RunReport(std::string name, Snapshot snapshot)
      : name_(std::move(name)), snapshot_(std::move(snapshot)) {}

  /// Captures the global registry as of now; when the global ModelMonitor
  /// has recorded predictions, its summary is attached as the
  /// model_monitor section, when the global EventLog holds events a
  /// forensics section is built from it and the global FleetTimeSeries,
  /// and when the global HealthEngine is armed its summary becomes the
  /// health section.
  static RunReport Capture(std::string name) {
    RunReport report(std::move(name), Registry::Global().Snap());
    if (ModelMonitor::Global().HasData()) {
      report.SetModelMonitor(ModelMonitor::Global().Summary());
    }
    if (!EventLog::Global().Empty()) {
      const std::vector<Event> events = EventLog::Global().Snapshot();
      report.SetForensics(BuildForensics(
          events, EventLog::Global().TotalDropped(),
          FleetTimeSeries::Global().Summarize()));
    }
    if (HealthEngine::Global().Armed()) {
      report.SetHealth(HealthEngine::Global().Summary());
    }
    const LatencyProfileSummary profile =
        LatencyProfiler::Global().Summary();
    if (!profile.Empty()) {
      report.SetProfile(profile);
    }
    return report;
  }

  const std::string& name() const { return name_; }
  const Snapshot& snapshot() const { return snapshot_; }

  /// Free-form string metadata (git sha, seed, workload label, ...).
  void SetMeta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  /// Optional model-quality section.
  void SetModelMonitor(ModelMonitorSummary summary) {
    model_monitor_ = std::move(summary);
  }
  const std::optional<ModelMonitorSummary>& model_monitor() const {
    return model_monitor_;
  }

  /// Optional decision-provenance section.
  void SetForensics(ForensicsSummary summary) {
    forensics_ = std::move(summary);
  }
  const std::optional<ForensicsSummary>& forensics() const {
    return forensics_;
  }

  /// Optional fleet-health / alerting section.
  void SetHealth(HealthSummary summary) { health_ = std::move(summary); }
  const std::optional<HealthSummary>& health() const { return health_; }

  /// Optional decision-latency-attribution section.
  void SetProfile(LatencyProfileSummary summary) {
    profile_ = std::move(summary);
  }
  const std::optional<LatencyProfileSummary>& profile() const {
    return profile_;
  }

  JsonValue ToJson() const;
  std::string ToJsonString(int indent = 2) const;

  /// Aligned text tables (via common::Table): one for counters + gauges,
  /// one for histograms with count/mean/p50/p95/p99/p99.9 columns.
  std::string ToText() const;
  void Print(std::ostream& os) const;

  /// Writes ToJsonString() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

  /// Reads the name, forensics and profile of a /v5 document (see the
  /// schema note above); throws std::logic_error (GAUGUR_CHECK) on another
  /// schema or a malformed forensics / profile section.
  static RunReport FromJson(const JsonValue& doc);
  static RunReport FromJsonString(const std::string& text) {
    return FromJson(JsonValue::Parse(text));
  }

 private:
  std::string name_;
  Snapshot snapshot_;
  std::map<std::string, std::string> meta_;
  std::optional<ModelMonitorSummary> model_monitor_;
  std::optional<ForensicsSummary> forensics_;
  std::optional<HealthSummary> health_;
  std::optional<LatencyProfileSummary> profile_;
};

}  // namespace gaugur::obs
