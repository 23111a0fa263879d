// trace_explorer: offline forensics over a fleet run's telemetry — the
// monolithic JSONL event log quickstart writes by default, or a
// streaming-sink manifest directory (segments + manifest.json, see
// obs/stream.h). Manifest input is read lazily: views that only need a
// tick window open just the segments whose manifest ranges overlap it.
//
// Default view: run summary + per-server timeline table (every event
// that touches a server, in sequence order). With --violation N the tool
// answers the forensics question end to end for the N-th qos_violation
// event: which decision placed the victim, what the predictor believed
// about every candidate at that moment (queries, cache hits, margins),
// and which resource / co-located offender the ground-truth attribution
// blames for the dip. With --window S T it plots server S's realized
// FPS and dominant-resource pressure for ±K ticks around tick T
// (ASCII sparkline table), joined to the decisions and violations that
// touched the server in that window. The `alerts` subcommand renders the
// health engine's firing timeline (obs/health.h), each window joined to
// the qos_violation events and decision ids it overlaps. The `profile`
// subcommand renders the run report's decision-latency attribution
// (obs/latency_profiler.h): fleet and per-shard phase breakdowns,
// barrier / window-imbalance / cache-lock contention, and the slowest-K
// tail exemplars joined back to their decision events.
//
// Usage:
//   trace_explorer [alerts|profile] <events.jsonl|sink_dir> [report.json]
//                  [--violation N] [--window SERVER TICK] [--span K]
//
// Build & run:
//   cmake --build build && ./build/examples/quickstart
//   ./build/examples/trace_explorer bench_results/quickstart_events.jsonl
//   GAUGUR_SINK_DIR=sink ./build/examples/quickstart
//   ./build/examples/trace_explorer sink --window 0 120

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <set>

#include "common/table.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/report.h"
#include "obs/stream.h"
#include "resources/resource.h"

using gaugur::obs::Event;
using gaugur::obs::EventKind;
using gaugur::obs::EventKindName;
using gaugur::obs::JsonInteger;
using gaugur::obs::JsonValue;
using gaugur::obs::Manifest;
using gaugur::obs::StreamManifest;
using gaugur::obs::TimeseriesPoint;

namespace {

/// Tolerant field accessors: the payload is kind-specific and optional
/// fields (e.g. candidate details) are simply absent for plain policies.
double NumField(const Event& event, const char* key, double fallback = -1.0) {
  const auto it = event.fields.find(key);
  if (it == event.fields.end() || !it->second.IsNumber()) return fallback;
  return it->second.AsNumber();
}

std::string StrField(const Event& event, const char* key) {
  const auto it = event.fields.find(key);
  if (it == event.fields.end() || !it->second.IsString()) return "";
  return it->second.AsString();
}

long long ServerOf(const Event& event) {
  if (event.kind == EventKind::kDecision) {
    return static_cast<long long>(NumField(event, "target_server", -1.0));
  }
  return static_cast<long long>(NumField(event, "server", -1.0));
}

/// Where the events come from: one JSONL file, or a sink directory whose
/// manifest lets us open only the segments a view actually needs.
struct TraceSource {
  bool is_manifest = false;
  std::string path;
  Manifest manifest;
  // Segment-read accounting, so the lazy-loading claim is checkable.
  std::size_t event_segments_loaded = 0;
  std::size_t timeseries_segments_loaded = 0;
};

bool OpenSource(const std::string& path, TraceSource* source) {
  source->path = path;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    source->is_manifest = true;
    if (!Manifest::Load(path, &source->manifest)) {
      std::fprintf(stderr, "cannot read %s/%s\n", path.c_str(),
                   gaugur::obs::kManifestFileName);
      return false;
    }
    return true;
  }
  source->is_manifest = false;
  return true;
}

const StreamManifest* FindStream(const TraceSource& source,
                                 const char* name) {
  const auto it = source.manifest.streams.find(name);
  return it == source.manifest.streams.end() ? nullptr : &it->second;
}

/// Sorted-merge invariant for segment reads: after the seq-sort, seqs
/// must be strictly increasing (a duplicate means two segments overlap —
/// a corrupt or double-written manifest), and within one shard of a
/// sharded fleet run, ticks must be non-decreasing (per-shard streams are
/// monotonic by construction; a regression means the shard tag or the
/// merge is wrong). Violations make the tool exit nonzero.
bool CheckMergedEventInvariants(const std::vector<Event>& events) {
  std::map<long long, double> shard_last_tick;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0 && events[i].seq <= events[i - 1].seq) {
      std::fprintf(stderr,
                   "merge invariant violated: duplicate/regressing seq %llu "
                   "(overlapping segments?)\n",
                   static_cast<unsigned long long>(events[i].seq));
      return false;
    }
    const auto shard_field = events[i].fields.find("shard");
    if (shard_field == events[i].fields.end()) continue;
    const auto shard =
        JsonInteger<long long>(&shard_field->second, "event 'shard'");
    const auto last = shard_last_tick.find(shard);
    if (last != shard_last_tick.end() && events[i].tick < last->second) {
      std::fprintf(stderr,
                   "merge invariant violated: shard %lld tick regressed "
                   "%.6f -> %.6f at seq %llu\n",
                   shard, last->second, events[i].tick,
                   static_cast<unsigned long long>(events[i].seq));
      return false;
    }
    shard_last_tick[shard] = events[i].tick;
  }
  return true;
}

/// Loads the given event segments (by index) and merges them seq-sorted.
bool LoadEventSegments(TraceSource& source,
                       const std::vector<std::size_t>& indices,
                       std::vector<Event>* out) {
  const StreamManifest* stream = FindStream(source, gaugur::obs::kEventsStream);
  if (stream == nullptr) return true;
  for (std::size_t i : indices) {
    const std::string path = source.path + "/" + stream->segments[i].file;
    std::vector<Event> part;
    if (!gaugur::obs::EventLog::ReadJsonl(path, &part)) {
      std::fprintf(stderr, "cannot read segment %s\n", path.c_str());
      return false;
    }
    out->insert(out->end(), part.begin(), part.end());
    ++source.event_segments_loaded;
  }
  std::sort(out->begin(), out->end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return CheckMergedEventInvariants(*out);
}

std::vector<std::size_t> AllSegmentIndices(const StreamManifest* stream) {
  std::vector<std::size_t> indices;
  if (stream == nullptr) return indices;
  for (std::size_t i = 0; i < stream->segments.size(); ++i) {
    indices.push_back(i);
  }
  return indices;
}

/// Whole-log views (timeline, --violation): every event segment.
bool LoadAllEvents(TraceSource& source, std::vector<Event>* out) {
  if (!source.is_manifest) {
    return gaugur::obs::EventLog::ReadJsonl(source.path, out);
  }
  return LoadEventSegments(
      source, AllSegmentIndices(FindStream(source, gaugur::obs::kEventsStream)),
      out);
}

/// Timeseries points overlapping [lo, hi], reading only the segments
/// whose manifest tick range intersects the window.
bool LoadTimeseriesWindow(TraceSource& source, double lo, double hi,
                          std::vector<TimeseriesPoint>* out) {
  const StreamManifest* stream =
      FindStream(source, gaugur::obs::kTimeseriesStream);
  if (stream == nullptr) return true;
  for (std::size_t i : gaugur::obs::SelectSegmentsByTick(*stream, lo, hi)) {
    const std::string path = source.path + "/" + stream->segments[i].file;
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read segment %s\n", path.c_str());
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::vector<TimeseriesPoint> part =
        gaugur::obs::ParseTimeseriesJsonl(text.str());
    out->insert(out->end(), part.begin(), part.end());
    ++source.timeseries_segments_loaded;
  }
  std::sort(out->begin(), out->end(),
            [](const TimeseriesPoint& a, const TimeseriesPoint& b) {
              return a.seq < b.seq;
            });
  return true;
}

/// One-line human description of an event's payload.
std::string Describe(const Event& event) {
  char buf[256];
  switch (event.kind) {
    case EventKind::kArrival:
      std::snprintf(buf, sizeof(buf), "game %d arrives (%.0f min)",
                    static_cast<int>(NumField(event, "game_id")),
                    NumField(event, "duration_min"));
      return buf;
    case EventKind::kDecision:
      std::snprintf(buf, sizeof(buf),
                    "game %d -> server %lld (%d candidates, choice %d)",
                    static_cast<int>(NumField(event, "game_id")),
                    static_cast<long long>(NumField(event, "target_server")),
                    static_cast<int>(NumField(event, "num_candidates")),
                    static_cast<int>(NumField(event, "choice")));
      return buf;
    case EventKind::kDeparture:
      std::snprintf(buf, sizeof(buf), "request %lld departs",
                    static_cast<long long>(NumField(event, "request_index")));
      return buf;
    case EventKind::kPowerOn:
      return "server powered on";
    case EventKind::kPowerOff:
      return "server powered off";
    case EventKind::kQosViolation:
      std::snprintf(buf, sizeof(buf),
                    "game %d at %.1f FPS < QoS %.0f (%s, offender game %d)",
                    static_cast<int>(NumField(event, "victim_game")),
                    NumField(event, "realized_fps"),
                    NumField(event, "qos_fps"),
                    StrField(event, "dominant_resource").c_str(),
                    static_cast<int>(NumField(event, "offender_game")));
      return buf;
    case EventKind::kRetrain:
      std::snprintf(buf, sizeof(buf), "%s retrained on %lld rows",
                    StrField(event, "model").c_str(),
                    static_cast<long long>(NumField(event, "rows")));
      return buf;
    case EventKind::kAlert: {
      // Two shapes share the kind: lifecycle transitions (from/to) and
      // subscriber acknowledgements (action, no from/to).
      const std::string action = StrField(event, "action");
      if (!action.empty()) {
        std::snprintf(buf, sizeof(buf), "%s %s[%s] (value %.3f)",
                      action.c_str(), StrField(event, "rule").c_str(),
                      StrField(event, "label").c_str(),
                      NumField(event, "value", 0.0));
        return buf;
      }
      std::snprintf(buf, sizeof(buf), "%s[%s] %s -> %s (%.3f vs %.3f)",
                    StrField(event, "rule").c_str(),
                    StrField(event, "label").c_str(),
                    StrField(event, "from").c_str(),
                    StrField(event, "to").c_str(),
                    NumField(event, "value", 0.0),
                    NumField(event, "threshold", 0.0));
      return buf;
    }
  }
  return "?";
}

void PrintTimeline(const std::vector<Event>& events) {
  gaugur::common::Table table({"seq", "tick", "server", "decision", "kind",
                               "what"},
                              /*double_precision=*/2);
  for (const Event& event : events) {
    const long long server = ServerOf(event);
    table.AddRow({static_cast<long long>(event.seq), event.tick,
                  server >= 0 ? gaugur::common::Cell(server)
                              : gaugur::common::Cell(std::string("-")),
                  event.decision_id != 0
                      ? gaugur::common::Cell(
                            static_cast<long long>(event.decision_id))
                      : gaugur::common::Cell(std::string("-")),
                  std::string(EventKindName(event.kind)), Describe(event)});
  }
  table.Print(std::cout, "fleet timeline");
}

/// The forensics join: violation -> decision -> candidate judgements ->
/// resource/offender attribution.
int ExplainViolation(const std::vector<Event>& events, std::size_t n) {
  std::vector<const Event*> violations;
  for (const Event& event : events) {
    if (event.kind == EventKind::kQosViolation) violations.push_back(&event);
  }
  if (n >= violations.size()) {
    std::fprintf(stderr, "violation %zu out of range: log has %zu\n", n,
                 violations.size());
    return 1;
  }
  const Event& violation = *violations[n];
  std::printf("violation %zu of %zu (event seq %llu, tick %.2f)\n", n,
              violations.size(),
              static_cast<unsigned long long>(violation.seq), violation.tick);
  std::printf(
      "  game %d on server %lld dipped to %.1f FPS (QoS floor %.0f)\n",
      static_cast<int>(NumField(violation, "victim_game")),
      ServerOf(violation), NumField(violation, "realized_fps"),
      NumField(violation, "qos_fps"));
  std::printf(
      "  attribution: dominant resource %s (slowdown +%.3f); removing "
      "co-located game %d would buy back %.1f FPS\n",
      StrField(violation, "dominant_resource").c_str(),
      NumField(violation, "dominant_damage", 0.0),
      static_cast<int>(NumField(violation, "offender_game")),
      NumField(violation, "offender_fps_gain", 0.0));

  if (violation.decision_id == 0) {
    std::printf("  no originating decision recorded (decision_id 0)\n");
    return 0;
  }
  const Event* decision = nullptr;
  for (const Event& event : events) {
    if (event.kind == EventKind::kDecision &&
        event.decision_id == violation.decision_id) {
      decision = &event;
      break;
    }
  }
  if (decision == nullptr) {
    std::printf("  decision %llu not in the log (ring dropped it?)\n",
                static_cast<unsigned long long>(violation.decision_id));
    return 0;
  }
  std::printf(
      "\ncaused by decision %llu (seq %llu, tick %.2f): game %d placed on "
      "server %lld out of %d open candidates\n",
      static_cast<unsigned long long>(decision->decision_id),
      static_cast<unsigned long long>(decision->seq), decision->tick,
      static_cast<int>(NumField(*decision, "game_id")),
      static_cast<long long>(NumField(*decision, "target_server")),
      static_cast<int>(NumField(*decision, "num_candidates")));

  if (!decision->candidates.has_value()) {
    std::printf("  (policy published no per-candidate judgements)\n");
    return 0;
  }
  gaugur::common::Table table(
      {"candidate", "feasible", "memory_ok", "queries", "cache_hits",
       "min_margin"},
      /*double_precision=*/4);
  const auto& candidates = *decision->candidates;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const gaugur::obs::DecisionCandidate& entry = candidates[c];
    table.AddRow({static_cast<long long>(c),
                  std::string(entry.feasible ? "yes" : "no"),
                  std::string(entry.memory_ok ? "yes" : "no"),
                  static_cast<long long>(entry.queries),
                  static_cast<long long>(entry.cache_hits),
                  entry.min_margin});
  }
  table.Print(std::cout, "what the predictor believed");
  return 0;
}

// ---------------------------------------------------------------------------
// The alerts view: the health engine's firing timeline, each window
// joined back to the qos_violation events and decision ids it overlaps.

/// Comma-joins up to `max` values of `items`, then "+N more".
template <typename Container, typename Format>
std::string JoinList(const Container& items, std::size_t max,
                     Format format) {
  std::string out;
  std::size_t n = 0;
  for (const auto& item : items) {
    if (n == max) {
      out += " +" + std::to_string(items.size() - max) + " more";
      break;
    }
    if (n > 0) out += ",";
    out += format(item);
    ++n;
  }
  return out.empty() ? std::string("-") : out;
}

int AlertsView(const std::vector<Event>& events) {
  const std::vector<gaugur::obs::FiringWindow> windows =
      gaugur::obs::ExtractFiringWindows(events);
  if (windows.empty()) {
    std::printf("no alert firings in the log\n");
    return 0;
  }
  std::size_t resolved = 0;
  std::size_t joined_violations = 0;
  gaugur::common::Table table(
      {"fired", "resolved", "rule", "label", "sev", "value", "threshold",
       "violations", "decisions"},
      /*double_precision=*/2);
  for (const gaugur::obs::FiringWindow& window : windows) {
    const gaugur::obs::FiringWindowJoin join =
        gaugur::obs::JoinFiringWindow(window, events);
    if (window.resolved) ++resolved;
    joined_violations += join.violation_seqs.size();
    table.AddRow(
        {window.fired_tick,
         window.resolved
             ? gaugur::common::Cell(window.resolved_tick)
             : gaugur::common::Cell(std::string("(firing)")),
         window.rule,
         window.label.empty() ? std::string("-") : window.label,
         window.severity, window.value, window.threshold,
         JoinList(join.violation_seqs, 4,
                  [](std::uint64_t seq) {
                    return "#" + std::to_string(seq);
                  }),
         JoinList(join.decision_ids, 4, [](std::uint64_t id) {
           return std::to_string(id);
         })});
  }
  table.Print(std::cout, "alert timeline");
  std::printf(
      "\n%zu firing windows (%zu resolved, %zu still firing at end of "
      "log), %zu overlapping qos_violation events\n",
      windows.size(), resolved, windows.size() - resolved,
      joined_violations);
  std::printf(
      "hint: --violation N explains any of the joined violations; "
      "--window SERVER TICK plots the server around a firing\n");
  return 0;
}

// ---------------------------------------------------------------------------
// The profile view: the run report's decision-latency-attribution
// section (run_report/v5 "profile") rendered as fleet + per-shard phase
// breakdowns, the contention/imbalance tallies, and the slowest-K tail
// exemplars, each joined back to its decision event in the log.

const char* DominantPhase(
    const std::array<double, gaugur::obs::kNumPhases>& phase_us) {
  std::size_t best = 0;
  for (std::size_t p = 1; p < gaugur::obs::kNumPhases; ++p) {
    if (phase_us[p] > phase_us[best]) best = p;
  }
  return gaugur::obs::PhaseName(static_cast<gaugur::obs::Phase>(best)).data();
}

int ProfileView(const gaugur::obs::LatencyProfileSummary& profile,
                const std::vector<Event>& events) {
  using gaugur::obs::kNumPhases;
  using gaugur::obs::Phase;
  using gaugur::obs::PhaseName;

  // Fleet-wide phase breakdown, with each phase's share of the total
  // attributed (exclusive) time so the dominant phase is one glance away.
  double attributed_us = 0.0;
  for (const auto& stats : profile.fleet) attributed_us += stats.total_us;
  gaugur::common::Table fleet({"phase", "count", "total ms", "mean us",
                               "max us", "share %"},
                              /*double_precision=*/2);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const auto& stats = profile.fleet[p];
    if (stats.count == 0) continue;
    fleet.AddRow({std::string(PhaseName(static_cast<Phase>(p))),
                  static_cast<long long>(stats.count),
                  stats.total_us / 1000.0,
                  stats.total_us / static_cast<double>(stats.count),
                  stats.max_us,
                  attributed_us > 0.0
                      ? 100.0 * stats.total_us / attributed_us
                      : 0.0});
  }
  char title[96];
  std::snprintf(title, sizeof(title),
                "fleet phase breakdown (%llu decisions, %.2f ms attributed)",
                static_cast<unsigned long long>(profile.decisions),
                attributed_us / 1000.0);
  fleet.Print(std::cout, title);

  // Per-shard: where each shard spent its time and how long it idled at
  // the tick barrier. A single-shard run collapses to one row.
  if (profile.shards.size() > 1) {
    gaugur::common::Table shards(
        {"shard", "decisions", "busy ms", "dominant phase", "barrier waits",
         "barrier ms"},
        /*double_precision=*/2);
    for (const auto& shard : profile.shards) {
      std::array<double, kNumPhases> phase_us{};
      double busy_us = 0.0;
      for (std::size_t p = 0; p < kNumPhases; ++p) {
        phase_us[p] = shard.phases[p].total_us;
        busy_us += phase_us[p];
      }
      shards.AddRow({static_cast<long long>(shard.shard),
                     static_cast<long long>(shard.decisions),
                     shard.window_busy_us > 0.0 ? shard.window_busy_us / 1000.0
                                                : busy_us / 1000.0,
                     std::string(DominantPhase(phase_us)),
                     static_cast<long long>(shard.barrier_waits),
                     shard.barrier_wait_us / 1000.0});
    }
    std::printf("\n");
    shards.Print(std::cout, "per-shard attribution");
  }

  // Contention: window imbalance (fast shards waiting on the straggler)
  // and prediction-cache stripe lock waits.
  std::printf("\n");
  gaugur::common::Table contention({"contention", "value"},
                                   /*double_precision=*/2);
  if (profile.imbalance.windows > 0) {
    contention.AddRow(
        {std::string("tick windows"),
         static_cast<long long>(profile.imbalance.windows)});
    contention.AddRow({std::string("shard spread mean us"),
                       profile.imbalance.spread_total_us /
                           static_cast<double>(profile.imbalance.windows)});
    contention.AddRow({std::string("shard spread max us"),
                       profile.imbalance.spread_max_us});
  }
  contention.AddRow(
      {std::string("cache lock acquisitions"),
       static_cast<long long>(profile.cache.acquisitions)});
  contention.AddRow({std::string("cache lock contended"),
                     static_cast<long long>(profile.cache.contended)});
  contention.AddRow({std::string("cache lock wait us"),
                     profile.cache.wait_us});
  contention.AddRow({std::string("cache lock wait max us"),
                     profile.cache.wait_max_us});
  contention.Print(std::cout, "shard / cache contention");

  // Tail exemplars: the slowest-K decisions with full phase breakdowns,
  // joined 1:1 back to their decision events. A missing join means the
  // bounded event ring dropped that decision, not a broken id.
  if (profile.exemplars.empty()) {
    std::printf("\nno tail exemplars recorded\n");
    return 0;
  }
  std::printf("\n");
  gaugur::common::Table tail({"rank", "decision", "tick", "shard",
                              "total us", "dominant phase", "placement"},
                             /*double_precision=*/2);
  std::size_t joined = 0;
  for (std::size_t rank = 0; rank < profile.exemplars.size(); ++rank) {
    const auto& exemplar = profile.exemplars[rank];
    const Event* decision = nullptr;
    for (const Event& event : events) {
      if (event.kind == EventKind::kDecision &&
          event.decision_id == exemplar.decision_id) {
        decision = &event;
        break;
      }
    }
    if (decision != nullptr) ++joined;
    tail.AddRow({static_cast<long long>(rank),
                 exemplar.decision_id != 0
                     ? gaugur::common::Cell(
                           static_cast<long long>(exemplar.decision_id))
                     : gaugur::common::Cell(std::string("-")),
                 exemplar.tick, static_cast<long long>(exemplar.shard),
                 exemplar.total_us, std::string(DominantPhase(exemplar.phase_us)),
                 decision != nullptr ? Describe(*decision)
                                     : std::string("(not in event log)")});
  }
  tail.Print(std::cout, "slowest decisions (tail exemplars)");
  std::printf(
      "\n%zu/%zu exemplars joined to a decision event; re-run with "
      "--violation N or --window SERVER TICK to dig into one\n",
      joined, profile.exemplars.size());
  return 0;
}

// ---------------------------------------------------------------------------
// The window view: ±K ticks of FPS + pressure around a point in time.

constexpr int kBarWidth = 12;

std::string Bar(double value, double lo, double hi) {
  if (!(hi > lo)) return std::string(kBarWidth, '#');
  const double unit = (value - lo) / (hi - lo);
  const int n = static_cast<int>(
      std::lround(std::clamp(unit, 0.0, 1.0) * kBarWidth));
  return std::string(static_cast<std::size_t>(n), '#');
}

/// One row of the window plot, derived from a timeseries sample (or,
/// for monolithic input with no timeseries stream, a violation event).
struct WindowRow {
  double tick = 0.0;
  long long games = -1;  // -1 = unknown (violation-derived row)
  double min_fps = 0.0;
  std::string dominant;
  double pressure = 0.0;
};

WindowRow RowFromSample(const gaugur::obs::ServerSample& sample) {
  WindowRow row;
  row.tick = sample.tick;
  row.games = static_cast<long long>(sample.slots.size());
  row.min_fps = sample.slots.empty() ? 0.0 : sample.slots.front().fps;
  // Dominant resource: the largest equilibrium pressure any slot sees on
  // any shared resource in this sample.
  double best = -1.0;
  std::size_t best_resource = 0;
  for (const gaugur::obs::SlotSample& slot : sample.slots) {
    row.min_fps = std::min(row.min_fps, slot.fps);
    for (std::size_t r = 0;
         r < slot.pressure.size() && r < gaugur::resources::kNumResources;
         ++r) {
      if (slot.pressure[r] > best) {
        best = slot.pressure[r];
        best_resource = r;
      }
    }
  }
  if (best >= 0.0) {
    row.dominant = std::string(
        gaugur::resources::Name(gaugur::resources::kAllResources[best_resource]));
    row.pressure = best;
  }
  return row;
}

int WindowView(TraceSource& source, long long server, double center,
               double span) {
  const double lo = center - span;
  const double hi = center + span;

  // Events: only the segments overlapping the window (all of them for a
  // monolithic file — there is nothing smaller to open).
  std::vector<Event> events;
  if (source.is_manifest) {
    const StreamManifest* stream =
        FindStream(source, gaugur::obs::kEventsStream);
    if (stream != nullptr &&
        !LoadEventSegments(
            source, gaugur::obs::SelectSegmentsByTick(*stream, lo, hi),
            &events)) {
      return 1;
    }
  } else if (!gaugur::obs::EventLog::ReadJsonl(source.path, &events)) {
    std::fprintf(stderr, "cannot read %s\n", source.path.c_str());
    return 1;
  }

  std::vector<TimeseriesPoint> points;
  if (source.is_manifest && !LoadTimeseriesWindow(source, lo, hi, &points)) {
    return 1;
  }

  // Rows: realized per-server state, preferring the full-fidelity
  // timeseries stream; a monolithic event log only knows realized FPS at
  // violation instants, so those become the fallback rows.
  std::vector<WindowRow> rows;
  for (const TimeseriesPoint& point : points) {
    if (static_cast<long long>(point.server) != server) continue;
    if (point.sample.tick < lo || point.sample.tick > hi) continue;
    rows.push_back(RowFromSample(point.sample));
  }
  if (rows.empty()) {
    for (const Event& event : events) {
      if (event.kind != EventKind::kQosViolation) continue;
      if (ServerOf(event) != server) continue;
      if (event.tick < lo || event.tick > hi) continue;
      WindowRow row;
      row.tick = event.tick;
      row.min_fps = NumField(event, "realized_fps", 0.0);
      row.dominant = StrField(event, "dominant_resource");
      row.pressure = NumField(event, "dominant_damage", 0.0);
      rows.push_back(row);
    }
  }

  // A server id nothing in the log has ever mentioned is a typo, not an
  // empty window: fail loudly with the ids that do exist. The happy path
  // stays lazy; only this error path opens every event segment.
  if (rows.empty()) {
    std::set<long long> known;
    auto note = [&known](long long id) {
      if (id >= 0) known.insert(id);
    };
    for (const Event& event : events) note(ServerOf(event));
    for (const TimeseriesPoint& point : points) {
      note(static_cast<long long>(point.server));
    }
    if (known.count(server) == 0 && source.is_manifest) {
      std::vector<Event> all;
      if (LoadAllEvents(source, &all)) {
        for (const Event& event : all) note(ServerOf(event));
      }
    }
    if (known.count(server) == 0) {
      std::fprintf(stderr, "unknown server id %lld; this log knows %s\n",
                   server,
                   known.empty()
                       ? "no servers at all"
                       : ("server ids " +
                          JoinList(known, 16,
                                   [](long long id) {
                                     return std::to_string(id);
                                   }))
                             .c_str());
      return 1;
    }
  }

  std::printf("server %lld, ticks %.2f..%.2f (center %.2f, span %.2f)\n",
              server, lo, hi, center, span);
  if (rows.empty()) {
    std::printf("no realized samples for server %lld in this window\n",
                server);
  } else {
    double fps_lo = rows.front().min_fps, fps_hi = rows.front().min_fps;
    double press_hi = 0.0;
    for (const WindowRow& row : rows) {
      fps_lo = std::min(fps_lo, row.min_fps);
      fps_hi = std::max(fps_hi, row.min_fps);
      press_hi = std::max(press_hi, row.pressure);
    }
    gaugur::common::Table table({"tick", "games", "min_fps", "fps",
                                 "dominant", "pressure", "load"},
                                /*double_precision=*/2);
    for (const WindowRow& row : rows) {
      table.AddRow(
          {row.tick,
           row.games >= 0 ? gaugur::common::Cell(row.games)
                          : gaugur::common::Cell(std::string("-")),
           row.min_fps, Bar(row.min_fps, fps_lo, fps_hi),
           row.dominant.empty() ? std::string("-") : row.dominant,
           row.pressure, Bar(row.pressure, 0.0, press_hi)});
    }
    char title[96];
    std::snprintf(title, sizeof(title),
                  "realized FPS / dominant pressure (fps %.1f..%.1f)",
                  fps_lo, fps_hi);
    table.Print(std::cout, title);
  }

  // The events that touched this server inside the window, with the
  // violation -> decision join inline.
  gaugur::common::Table event_table({"seq", "tick", "decision", "kind",
                                     "what"},
                                    /*double_precision=*/2);
  std::vector<const Event*> window_violations;
  for (const Event& event : events) {
    if (ServerOf(event) != server) continue;
    if (event.tick < lo || event.tick > hi) continue;
    event_table.AddRow(
        {static_cast<long long>(event.seq), event.tick,
         event.decision_id != 0
             ? gaugur::common::Cell(static_cast<long long>(event.decision_id))
             : gaugur::common::Cell(std::string("-")),
         std::string(EventKindName(event.kind)), Describe(event)});
    if (event.kind == EventKind::kQosViolation) {
      window_violations.push_back(&event);
    }
  }
  if (event_table.NumRows() > 0) {
    std::printf("\n");
    event_table.Print(std::cout, "events on this server in the window");
  }

  // Join each violation to its originating decision. The decision may
  // predate the window; for manifest input, lazily open older segments
  // (newest first) by seq until it turns up.
  for (const Event* violation : window_violations) {
    const std::uint64_t want = violation->decision_id;
    if (want == 0) continue;
    const Event* decision = nullptr;
    auto find_in = [&](const std::vector<Event>& haystack) -> const Event* {
      for (const Event& event : haystack) {
        if (event.kind == EventKind::kDecision && event.decision_id == want) {
          return &event;
        }
      }
      return nullptr;
    };
    decision = find_in(events);
    std::vector<Event> older;  // keeps lazily-loaded decisions alive
    if (decision == nullptr && source.is_manifest) {
      const StreamManifest* stream =
          FindStream(source, gaugur::obs::kEventsStream);
      if (stream != nullptr) {
        std::vector<std::size_t> earlier = gaugur::obs::SelectSegmentsBySeq(
            *stream, 0, violation->seq);
        for (auto it = earlier.rbegin();
             it != earlier.rend() && decision == nullptr; ++it) {
          older.clear();
          if (!LoadEventSegments(source, {*it}, &older)) break;
          decision = find_in(older);
        }
      }
    }
    if (decision != nullptr) {
      std::printf(
          "violation seq %llu <- decision %llu at tick %.2f: %s\n",
          static_cast<unsigned long long>(violation->seq),
          static_cast<unsigned long long>(want), decision->tick,
          Describe(*decision).c_str());
    } else {
      std::printf("violation seq %llu: decision %llu not found in the log\n",
                  static_cast<unsigned long long>(violation->seq),
                  static_cast<unsigned long long>(want));
    }
  }

  if (source.is_manifest) {
    const StreamManifest* ev = FindStream(source, gaugur::obs::kEventsStream);
    const StreamManifest* ts =
        FindStream(source, gaugur::obs::kTimeseriesStream);
    std::printf(
        "\nloaded %zu/%zu event segments, %zu/%zu timeseries segments\n",
        source.event_segments_loaded,
        ev != nullptr ? ev->segments.size() : 0,
        source.timeseries_segments_loaded,
        ts != nullptr ? ts->segments.size() : 0);
  }
  return 0;
}

}  // namespace

void PrintUsage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: trace_explorer [alerts|profile] <events.jsonl|sink_dir> "
      "[report.json]\n"
      "                      [--violation N] [--window SERVER TICK]"
      " [--span K]\n"
      "\n"
      "Offline forensics over a fleet run's decision event log.\n"
      "\n"
      "  alerts          render the health engine's alert timeline: each\n"
      "                  firing window with the qos_violation events and\n"
      "                  decision ids it overlaps\n"
      "  profile         render the report's decision-latency attribution\n"
      "                  (run_report/v5 \"profile\" section): fleet and\n"
      "                  per-shard phase breakdowns, barrier / cache-lock\n"
      "                  contention, and the slowest-K tail exemplars\n"
      "                  joined to their decision events; needs the\n"
      "                  report.json argument\n"
      "  <events.jsonl>  event log written via obs::EventLog (e.g. by the\n"
      "                  quickstart example)\n"
      "  <sink_dir>      streaming-sink directory (manifest.json +\n"
      "                  segments); windowed views open only the segments\n"
      "                  they need\n"
      "  [report.json]   optional RunReport; prints its forensics summary\n"
      "  --violation N   explain the N-th qos_violation event (0-based):\n"
      "                  the placement decision that caused it, what the\n"
      "                  predictor believed about every candidate, and the\n"
      "                  resource/offender the attribution blames\n"
      "  --window S T    plot server S's realized FPS and dominant\n"
      "                  resource pressure around tick T, joined to the\n"
      "                  decisions/violations in the window\n"
      "  --span K        half-width of the --window view in ticks\n"
      "                  (default 30)\n"
      "  --help          print this message\n"
      "\n"
      "Without --violation/--window, prints the run summary and the\n"
      "per-server fleet timeline.\n");
}

namespace {

int Run(int argc, char** argv) {
  std::string events_path;
  std::string report_path;
  bool alerts = false;
  bool profile = false;
  bool explain = false;
  std::size_t violation_index = 0;
  bool window = false;
  long long window_server = 0;
  double window_tick = 0.0;
  double window_span = 30.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg == "--violation") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--violation needs an index argument\n\n");
        PrintUsage(stderr);
        return 2;
      }
      explain = true;
      violation_index = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--window") {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "--window needs SERVER and TICK arguments\n\n");
        PrintUsage(stderr);
        return 2;
      }
      window = true;
      window_server = std::atoll(argv[++i]);
      window_tick = std::atof(argv[++i]);
    } else if (arg == "--span") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--span needs a tick-count argument\n\n");
        PrintUsage(stderr);
        return 2;
      }
      window_span = std::atof(argv[++i]);
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      // Unknown flags must not silently fall through as file paths.
      std::fprintf(stderr, "unknown flag %s\n\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    } else if (!alerts && !profile && events_path.empty() &&
               arg == "alerts") {
      alerts = true;
    } else if (!alerts && !profile && events_path.empty() &&
               arg == "profile") {
      profile = true;
    } else if (events_path.empty()) {
      events_path = arg;
    } else if (report_path.empty()) {
      report_path = arg;
    } else {
      std::fprintf(stderr, "unexpected extra argument %s\n\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (events_path.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  if (profile && report_path.empty()) {
    std::fprintf(stderr,
                 "the profile view needs the report.json argument (the "
                 "attribution lives in the run report)\n\n");
    PrintUsage(stderr);
    return 2;
  }

  TraceSource source;
  if (!OpenSource(events_path, &source)) return 1;
  if (source.is_manifest) {
    std::size_t segments = 0;
    for (const auto& [name, stream] : source.manifest.streams) {
      segments += stream.segments.size();
    }
    std::printf("manifest: %zu streams, %zu segments, backpressure %s%s\n",
                source.manifest.streams.size(), segments,
                source.manifest.backpressure.c_str(),
                source.manifest.finalized ? "" : " (NOT finalized)");
  }

  if (!report_path.empty()) {
    std::ifstream in(report_path);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", report_path.c_str());
      return 1;
    }
    const gaugur::obs::RunReport report =
        gaugur::obs::RunReport::FromJsonString(text.str());
    if (profile) {
      if (!report.profile().has_value()) {
        std::fprintf(stderr,
                     "run report %s has no profile section (pre-v5 run, or "
                     "observability was disabled)\n",
                     report_path.c_str());
        return 1;
      }
      std::vector<Event> events;
      if (!LoadAllEvents(source, &events)) {
        std::fprintf(stderr, "cannot read %s\n", events_path.c_str());
        return 1;
      }
      return ProfileView(*report.profile(), events);
    }
    if (report.forensics().has_value()) {
      const auto& forensics = *report.forensics();
      std::printf(
          "run report: %llu events (%llu dropped), %llu decisions, %llu "
          "violations (%llu linked to a decision)\n",
          static_cast<unsigned long long>(forensics.events),
          static_cast<unsigned long long>(forensics.events_dropped),
          static_cast<unsigned long long>(forensics.decisions),
          static_cast<unsigned long long>(forensics.violations),
          static_cast<unsigned long long>(forensics.violations_linked));
    } else {
      std::printf("run report %s has no forensics section\n",
                  report_path.c_str());
    }
  }

  if (window) {
    return WindowView(source, window_server, window_tick, window_span);
  }

  std::vector<Event> events;
  if (!LoadAllEvents(source, &events)) {
    std::fprintf(stderr, "cannot read %s\n", events_path.c_str());
    return 1;
  }

  std::size_t by_kind[gaugur::obs::kNumEventKinds] = {};
  for (const Event& event : events) {
    ++by_kind[static_cast<std::size_t>(event.kind)];
  }
  std::printf("%zu events", events.size());
  bool first = true;
  for (std::size_t k = 0; k < gaugur::obs::kNumEventKinds; ++k) {
    if (by_kind[k] == 0) continue;
    std::printf("%s %zu %s", first ? ":" : ",", by_kind[k],
                EventKindName(static_cast<EventKind>(k)));
    first = false;
  }
  std::printf("\n");

  if (alerts) return AlertsView(events);
  if (explain) return ExplainViolation(events, violation_index);

  PrintTimeline(events);
  std::printf(
      "\nhint: re-run with --violation N to trace a QoS violation back to "
      "its placement decision, or --window SERVER TICK to plot the\n"
      "realized FPS/pressure around it\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Malformed input fails a GAUGUR_CHECK (std::logic_error) or the JSON
  // parser deep inside a loader; report it instead of aborting.
  try {
    return Run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "trace_explorer: %s\n", error.what());
    return 1;
  }
}
