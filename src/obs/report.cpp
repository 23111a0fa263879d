#include "obs/report.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/table.h"

namespace gaugur::obs {

namespace {

JsonValue HistogramToJson(const HistogramSnapshot& hist) {
  JsonObject object;
  object["count"] = static_cast<unsigned long long>(hist.count);
  object["sum"] = hist.sum;
  object["mean"] = hist.Mean();
  object["p50"] = hist.Percentile(0.50);
  object["p95"] = hist.Percentile(0.95);
  object["p99"] = hist.Percentile(0.99);
  object["p999"] = hist.Percentile(0.999);
  JsonArray buckets;
  for (std::size_t i = 0; i < hist.counts.size(); ++i) {
    JsonObject bucket;
    bucket["le"] = i < hist.bounds.size() ? JsonValue(hist.bounds[i])
                                          : JsonValue(nullptr);
    bucket["count"] = static_cast<unsigned long long>(hist.counts[i]);
    buckets.push_back(JsonValue(std::move(bucket)));
  }
  object["buckets"] = JsonValue(std::move(buckets));
  return JsonValue(std::move(object));
}

}  // namespace

JsonValue RunReport::ToJson() const {
  JsonObject doc;
  doc["schema"] = kRunReportSchema;
  doc["name"] = name_;
  JsonObject meta;
  for (const auto& [key, value] : meta_) meta[key] = value;
  doc["meta"] = JsonValue(std::move(meta));
  JsonObject counters;
  for (const auto& [name, value] : snapshot_.counters) {
    counters[name] = static_cast<unsigned long long>(value);
  }
  doc["counters"] = JsonValue(std::move(counters));
  JsonObject gauges;
  for (const auto& [name, value] : snapshot_.gauges) {
    gauges[name] = static_cast<long long>(value);
  }
  doc["gauges"] = JsonValue(std::move(gauges));
  JsonObject histograms;
  for (const auto& [name, hist] : snapshot_.histograms) {
    histograms[name] = HistogramToJson(hist);
  }
  doc["histograms"] = JsonValue(std::move(histograms));
  if (model_monitor_.has_value()) {
    doc["model_monitor"] = model_monitor_->ToJson();
  }
  if (forensics_.has_value()) {
    doc["forensics"] = forensics_->ToJson();
  }
  if (health_.has_value()) {
    doc["health"] = health_->ToJson();
  }
  if (profile_.has_value()) {
    doc["profile"] = profile_->ToJson();
  }
  return JsonValue(std::move(doc));
}

std::string RunReport::ToJsonString(int indent) const {
  return ToJson().Dump(indent);
}

std::string RunReport::ToText() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

void RunReport::Print(std::ostream& os) const {
  common::Table scalars({"metric", "kind", "value"});
  for (const auto& [name, value] : snapshot_.counters) {
    scalars.AddRow({name, std::string("counter"),
                    static_cast<long long>(value)});
  }
  for (const auto& [name, value] : snapshot_.gauges) {
    scalars.AddRow({name, std::string("gauge"),
                    static_cast<long long>(value)});
  }
  if (scalars.NumRows() > 0) {
    scalars.Print(os, "run report: " + name_);
  }
  common::Table hists(
      {"histogram", "count", "mean", "p50", "p95", "p99", "p99.9"},
      /*double_precision=*/1);
  for (const auto& [name, hist] : snapshot_.histograms) {
    hists.AddRow({name, static_cast<long long>(hist.count), hist.Mean(),
                  hist.Percentile(0.50), hist.Percentile(0.95),
                  hist.Percentile(0.99), hist.Percentile(0.999)});
  }
  if (hists.NumRows() > 0) {
    hists.Print(os, "latency histograms (µs)");
  }
  if (model_monitor_.has_value()) {
    const ModelMonitorSummary& m = *model_monitor_;
    common::Table monitor({"model monitor", "value"}, /*double_precision=*/3);
    monitor.AddRow({std::string("cm predictions"),
                    static_cast<long long>(m.cm_predictions)});
    monitor.AddRow({std::string("rm predictions"),
                    static_cast<long long>(m.rm_predictions)});
    monitor.AddRow({std::string("outcomes joined"),
                    static_cast<long long>(m.outcomes_joined)});
    monitor.AddRow({std::string("cm precision"), m.cm_precision});
    monitor.AddRow({std::string("cm recall"), m.cm_recall});
    monitor.AddRow({std::string("cm fpr"), m.cm_fpr});
    monitor.AddRow({std::string("rm MAE (fps)"), m.rm_mae_fps});
    monitor.AddRow({std::string("rm p95 |err| (fps)"),
                    m.rm_p95_abs_error_fps});
    monitor.AddRow({std::string("cm max PSI"), m.cm_drift.max_psi});
    monitor.AddRow({std::string("rm max PSI"), m.rm_drift.max_psi});
    monitor.AddRow({std::string("attr: cm false positive"),
                    static_cast<long long>(m.attr_cm_false_positive)});
    monitor.AddRow({std::string("attr: rm overestimate"),
                    static_cast<long long>(m.attr_rm_overestimate)});
    monitor.AddRow({std::string("attr: capacity pressure"),
                    static_cast<long long>(m.attr_capacity_pressure)});
    monitor.AddRow({std::string("qos violations observed"),
                    static_cast<long long>(m.qos_violations_observed)});
    monitor.Print(os, "model monitor (rolling window)");
  }
  if (forensics_.has_value()) {
    const ForensicsSummary& f = *forensics_;
    common::Table forensics({"forensics", "value"});
    forensics.AddRow({std::string("events"),
                      static_cast<long long>(f.events)});
    forensics.AddRow({std::string("events dropped"),
                      static_cast<long long>(f.events_dropped)});
    forensics.AddRow({std::string("decisions"),
                      static_cast<long long>(f.decisions)});
    forensics.AddRow({std::string("qos violations"),
                      static_cast<long long>(f.violations)});
    forensics.AddRow({std::string("violations linked to decision"),
                      static_cast<long long>(f.violations_linked)});
    forensics.AddRow({std::string("timeseries samples kept"),
                      static_cast<long long>(f.ts_samples_kept)});
    forensics.Print(os, "decision provenance");
  }
  if (health_.has_value()) {
    const HealthSummary& h = *health_;
    common::Table health({"health", "value"});
    health.AddRow({std::string("rules"),
                   static_cast<long long>(h.rules.size())});
    health.AddRow({std::string("evaluations"),
                   static_cast<long long>(h.evaluations)});
    health.AddRow({std::string("transitions"),
                   static_cast<long long>(h.transitions)});
    health.AddRow({std::string("alerts fired"),
                   static_cast<long long>(h.alerts_fired)});
    health.AddRow({std::string("alerts resolved"),
                   static_cast<long long>(h.alerts_resolved)});
    health.AddRow({std::string("flaps suppressed"),
                   static_cast<long long>(h.flaps_suppressed)});
    health.AddRow({std::string("firing now"),
                   static_cast<long long>(h.firing)});
    health.Print(os, "fleet health");
  }
  if (profile_.has_value()) {
    const LatencyProfileSummary& p = *profile_;
    common::Table phases({"phase", "count", "total ms", "mean µs", "max µs"},
                         /*double_precision=*/2);
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      const PhaseStats& stats = p.fleet[i];
      if (stats.count == 0) continue;
      phases.AddRow({std::string(PhaseName(static_cast<Phase>(i))),
                     static_cast<long long>(stats.count),
                     stats.total_us / 1000.0,
                     stats.total_us / static_cast<double>(stats.count),
                     stats.max_us});
    }
    if (phases.NumRows() > 0) {
      phases.Print(os, "decision latency attribution (" +
                           std::to_string(p.decisions) + " decisions)");
    }
    common::Table contention({"contention", "value"}, /*double_precision=*/2);
    contention.AddRow({std::string("tick windows"),
                       static_cast<long long>(p.imbalance.windows)});
    contention.AddRow({std::string("shard spread mean (µs)"),
                       p.imbalance.windows > 0
                           ? p.imbalance.spread_total_us /
                                 static_cast<double>(p.imbalance.windows)
                           : 0.0});
    contention.AddRow({std::string("shard spread max (µs)"),
                       p.imbalance.spread_max_us});
    contention.AddRow({std::string("cache lock acquisitions"),
                       static_cast<long long>(p.cache.acquisitions)});
    contention.AddRow({std::string("cache lock contended"),
                       static_cast<long long>(p.cache.contended)});
    contention.AddRow({std::string("cache lock wait (µs)"), p.cache.wait_us});
    contention.Print(os, "shard / cache contention");
  }
}

bool RunReport::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJsonString() << '\n';
  return static_cast<bool>(out);
}

RunReport RunReport::FromJson(const JsonValue& doc) {
  GAUGUR_CHECK_MSG(doc.IsObject(), "run report must be a JSON object");
  const JsonValue* schema = doc.Find("schema");
  GAUGUR_CHECK_MSG(schema != nullptr && schema->IsString() &&
                       schema->AsString() == kRunReportSchema,
                   "unknown run-report schema");
  const JsonValue* name = doc.Find("name");
  GAUGUR_CHECK_MSG(name != nullptr && name->IsString(),
                   "run report missing 'name'");

  // Only the sections a reader renders are parsed; the registry
  // snapshot, meta, model_monitor and health sections are ignored.
  RunReport report(name->AsString(), Snapshot{});
  if (const JsonValue* forensics = doc.Find("forensics")) {
    report.SetForensics(ForensicsSummary::FromJson(*forensics));
  }
  if (const JsonValue* profile = doc.Find("profile")) {
    report.SetProfile(LatencyProfileSummary::FromJson(*profile));
  }
  return report;
}

}  // namespace gaugur::obs
