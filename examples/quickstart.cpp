// Quickstart: the full GAugur pipeline on a small scale.
//
//  1. Build the game catalog and the simulated server.
//  2. Profile a handful of games (sensitivity curves + intensities).
//  3. Measure a small colocation corpus and train the RM and CM.
//  4. Predict the interference of a fresh colocation and compare with
//     what actually happens when the games run together.
//  5. Run a short dynamic fleet under the provenance-aware policy and
//     dump the decision event log (JSONL, for examples/trace_explorer).
//  6. Dump the telemetry run report the pipeline accumulated along the
//     way (metrics table + JSON written next to the binary).
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "gamesim/catalog.h"
#include "gamesim/server_sim.h"
#include "gaugur/corpus.h"
#include "gaugur/lab.h"
#include "gaugur/predictor.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/model_monitor.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/switch.h"
#include "profiling/profiler.h"
#include "sched/dynamic.h"

using namespace gaugur;

int main() {
  // Optional streaming telemetry: with GAUGUR_SINK_DIR set, a background
  // writer drains the event log / metrics / time series to rotating JSONL
  // segments while the run progresses, instead of one dump at the end.
  std::unique_ptr<obs::TelemetrySink> sink = obs::TelemetrySink::FromEnv();
  if (sink != nullptr) {
    std::printf("streaming telemetry to %s\n", sink->directory().c_str());
  }

  // 1. The "machine room": 100 games and one GTX-1060-class server.
  const auto catalog = gamesim::GameCatalog::MakeDefault(/*seed=*/42);
  const gamesim::ServerSim server;
  const core::ColocationLab lab(catalog, server);

  // 2. Offline contention-feature profiling (all 100 games).
  std::printf("Profiling %zu games...\n", catalog.size());
  const profiling::Profiler profiler(server);
  core::FeatureBuilder features(profiler.ProfileCatalog(catalog));

  // 3. Measure a corpus of real colocations and train both models.
  core::CorpusOptions corpus_options;
  corpus_options.num_pairs = 200;
  corpus_options.num_triples = 50;
  corpus_options.num_quads = 50;
  std::printf("Measuring %d training colocations...\n",
              corpus_options.num_pairs + corpus_options.num_triples +
                  corpus_options.num_quads);
  const auto corpus = core::GenerateCorpus(lab, corpus_options);

  core::GAugurPredictor predictor(features);
  predictor.TrainRm(corpus);
  const std::vector<double> qos_grid = {50.0, 60.0};
  predictor.TrainCm(corpus, qos_grid);

  // 4. Predict a fresh colocation, then actually run it.
  const core::Colocation colocation = {
      {catalog.ByName("Dota2").id, resources::k1080p},
      {catalog.ByName("Far Cry 4").id, resources::k1080p},
      {catalog.ByName("Stardew Valley").id, resources::k720p},
  };

  std::printf("\n%-24s %10s %10s %10s %6s\n", "game", "solo FPS",
              "predicted", "actual", "QoS60");
  const auto actual = lab.TrueFps(colocation);
  for (std::size_t v = 0; v < colocation.size(); ++v) {
    std::vector<core::SessionRequest> corunners;
    for (std::size_t j = 0; j < colocation.size(); ++j) {
      if (j != v) corunners.push_back(colocation[j]);
    }
    const auto& victim = colocation[v];
    const auto& profile = features.Profile(victim.game_id);
    const double predicted = predictor.PredictFps(victim, corunners);
    const bool qos_ok = predictor.PredictQosOk(60.0, victim, corunners);
    std::printf("%-24s %10.1f %10.1f %10.1f %6s\n", profile.name.c_str(),
                profile.SoloFps(victim.resolution), predicted, actual[v],
                qos_ok ? "yes" : "no");
  }
  std::printf("\ncolocation judged %s at 60 FPS QoS (ground truth: %s)\n",
              predictor.PredictFeasible(60.0, colocation) ? "FEASIBLE"
                                                          : "infeasible",
              lab.TrulyFeasible(colocation, 60.0) ? "FEASIBLE"
                                                  : "infeasible");

  // Close the loop for the model monitor: report each victim's realized
  // FPS under the same join key the predictor audited its calls with, so
  // the run report's model_monitor section carries joined outcomes.
  if (obs::Enabled()) {
    for (std::size_t v = 0; v < colocation.size(); ++v) {
      std::vector<core::SessionRequest> corunners;
      for (std::size_t j = 0; j < colocation.size(); ++j) {
        if (j != v) corunners.push_back(colocation[j]);
      }
      obs::ModelMonitor::Global().ObserveOutcome(
          core::ModelJoinKey(colocation[v], corunners), actual[v],
          /*qos_fps=*/60.0);
    }
  }

  // 5. A short dynamic-fleet run with the provenance-aware policy: every
  // arrival, placement decision (with per-candidate predictor verdicts),
  // power transition, and QoS violation lands in the event log, and each
  // server's FPS/pressure trajectory in the fleet time series — the raw
  // material for examples/trace_explorer.
  std::vector<int> fleet_games;
  for (std::size_t g = 0; g < 12 && g < catalog.size(); ++g) {
    fleet_games.push_back(static_cast<int>(g));
  }
  const auto trace = sched::GenerateDynamicTrace(
      fleet_games, /*horizon_min=*/240.0, /*arrivals_per_min=*/0.4,
      /*mean_duration_min=*/45.0, /*seed=*/7);
  sched::DynamicOptions fleet_options;
  fleet_options.qos_fps = 60.0;
  // Arm the fleet health engine with the default rule pack: the simulator
  // evaluates it at every 5-minute tick barrier, alert lifecycle
  // transitions land in the event log (and the streamed sink), and the
  // run report gains a `health` section. `trace_explorer alerts <events>`
  // joins the firing windows back to the violations and decisions they
  // overlap.
  if (obs::Enabled()) {
    obs::HealthEngine::Global().Reset();
    obs::HealthEngine::Global().InstallDefaultRules(fleet_options.qos_fps);
  }
  const sched::DynamicResult fleet = sched::SimulateDynamicFleet(
      lab, trace, sched::MakeProvenancePolicy(predictor, 60.0),
      fleet_options);
  std::printf(
      "\nfleet run: %zu sessions, peak %zu servers, %.0f server-minutes, "
      "%zu QoS-violated sessions\n",
      fleet.sessions, fleet.peak_servers, fleet.server_minutes,
      fleet.violated_sessions);
  if (obs::Enabled()) {
    const obs::HealthSummary health = obs::HealthEngine::Global().Summary();
    std::printf(
        "health: %llu evaluations, %llu alerts fired, %llu resolved, "
        "%llu firing at end\n",
        static_cast<unsigned long long>(health.evaluations),
        static_cast<unsigned long long>(health.alerts_fired),
        static_cast<unsigned long long>(health.alerts_resolved),
        static_cast<unsigned long long>(health.firing));
  }
  if (sink != nullptr) {
    // The sink drained the rings as the run went; seal the segments and
    // finalize the manifest instead of dumping a monolithic file.
    sink->Stop();
    const obs::Manifest manifest = sink->CurrentManifest();
    std::size_t segments = 0;
    for (const auto& [name, stream] : manifest.streams) {
      segments += stream.segments.size();
    }
    std::printf(
        "streamed telemetry: %zu segments across %zu streams in %s "
        "(explore with trace_explorer %s)\n",
        segments, manifest.streams.size(), sink->directory().c_str(),
        sink->directory().c_str());
  } else if (obs::Enabled() && !obs::EventLog::Global().Empty()) {
    const char* events_path = "bench_results/quickstart_events.jsonl";
    if (!obs::EventLog::Global().WriteJsonl(events_path)) {
      events_path = "quickstart_events.jsonl";
      obs::EventLog::Global().WriteJsonl(events_path);
    }
    std::printf("event log written to %s (explore with trace_explorer)\n",
                events_path);
  }

  // 6. Everything above was instrumented; capture the registry as a
  // structured run report.
  obs::RunReport report = obs::RunReport::Capture("quickstart");
  report.SetMeta("games_profiled", std::to_string(catalog.size()));
  std::printf("\n");
  report.Print(std::cout);
  // bench_results/ only exists when run from the repo root; fall back to
  // the current directory otherwise.
  const char* report_path = "bench_results/quickstart_report.json";
  if (!report.WriteJson(report_path)) {
    report_path = "quickstart_report.json";
    report.WriteJson(report_path);
  }
  std::printf("\nrun report written to %s\n", report_path);
  return 0;
}
