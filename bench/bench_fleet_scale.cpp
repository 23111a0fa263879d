// Fleet-scale stress bench for the sharded fleet service: drives the
// admission pipeline to ~1M concurrent sessions with a cheap packing
// policy (phase A, measuring arrivals/sec, p99 decision latency, and the
// multi-shard vs single-shard speedup on this machine), then compares the
// shared striped prediction cache's hit rate between a single-shard and a
// multi-shard run of the full predictor-backed policy (phase B — one
// shard's miss must warm every shard, so the sharded hit rate must not be
// worse).
//
// Phase A runs with observability disabled: at 10^6 live sessions the
// event log and fleet time series would dominate memory and runtime, and
// the kill switch is exactly the production posture for a latency bench.
//
// --smoke shrinks phase A to a few thousand sessions and skips phase B
// (which needs the profiled BenchWorld); the JSON schema is identical, so
// CI validates the same keys either way. Output:
// bench_results/BENCH_fleet_scale.json, schema gaugur.bench.result/v1,
// counters: arrivals_per_sec, decision_latency_p99_us, shards,
// speedup_multi_vs_single, peak_concurrent_sessions,
// hardware_concurrency (+ cache_hit_rate_single / cache_hit_rate_sharded
// in full mode).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_world.h"
#include "gamesim/catalog.h"
#include "gamesim/server_sim.h"
#include "gaugur/lab.h"
#include "gaugur/predictor.h"
#include "gaugur/training.h"
#include "obs/json.h"
#include "obs/switch.h"
#include "sched/dynamic.h"
#include "sched/study.h"

using namespace gaugur;

namespace {

/// A ramp of `n` arrivals over `ramp_min`, every one still live at the
/// end of the ramp (duration runs to ramp_min + 5): peak concurrency ==
/// n, by construction, sampled exactly at a tick barrier.
std::vector<sched::DynamicRequest> RampTrace(std::size_t n,
                                             double ramp_min) {
  std::vector<sched::DynamicRequest> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double arrival =
        ramp_min * static_cast<double>(i) / static_cast<double>(n);
    sched::DynamicRequest request;
    request.arrival_min = arrival;
    request.duration_min = (ramp_min + 5.0) - arrival;
    request.session = {0, resources::k1080p};
    trace.push_back(request);
  }
  return trace;
}

struct ScaleRun {
  double arrivals_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t peak_concurrent = 0;
  double wall_s = 0.0;
};

ScaleRun RunScale(const core::ColocationLab& lab,
                  std::span<const sched::DynamicRequest> trace,
                  std::size_t shards) {
  sched::ShardedFleetOptions options;
  options.num_shards = shards;
  options.tick_window_min = 5.0;
  options.dynamic.max_policy_candidates = 64;
  // First open candidate: pure packing pressure, O(1) per decision.
  const auto factory = [](std::size_t) -> sched::PlacementPolicy {
    return [](std::span<const core::Colocation> open_servers,
              const core::SessionRequest&) -> int {
      return open_servers.empty() ? -1 : 0;
    };
  };
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      sched::SimulateShardedFleet(lab, trace, factory, options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ScaleRun run;
  run.wall_s = wall_s;
  run.arrivals_per_sec =
      wall_s > 0.0 ? static_cast<double>(trace.size()) / wall_s : 0.0;
  run.p50_us = result.decision_latency_p50_us;
  run.p99_us = result.decision_latency_p99_us;
  run.peak_concurrent = result.peak_concurrent_sessions;
  return run;
}

/// Trains a fresh predictor identical to the previous one (same config,
/// seed, and data), so the single-shard and sharded cache measurements
/// both start cold on the same models.
core::GAugurPredictor TrainScheduler(const bench::BenchWorld& world) {
  core::PredictorConfig config;
  config.cm_decision_threshold = 0.8;
  core::GAugurPredictor predictor(world.features(), config);
  const auto rm_full =
      core::BuildRmDataset(world.features(), world.train_colocations());
  predictor.TrainRmOnDataset(
      bench::BenchWorld::ShuffledSubset(rm_full, 1000, 7));
  const std::vector<double> qos_grid{50.0, 60.0, 70.0};
  predictor.TrainCm(world.train_colocations(), qos_grid);
  return predictor;
}

double HitRate(const core::PredictionCache::Stats& stats) {
  const double traffic = static_cast<double>(stats.hits + stats.misses);
  return traffic > 0.0 ? static_cast<double>(stats.hits) / traffic : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  const std::size_t multi_shards = std::max<std::size_t>(2, hw);
  const std::size_t target_sessions = smoke ? 20'000 : 1'050'000;

  // ----- Phase A: admission throughput at scale (obs off, see header).
  obs::EnabledScope obs_off(false);
  const gamesim::GameCatalog catalog = gamesim::GameCatalog::MakeDefault(42);
  const gamesim::ServerSim server;
  const core::ColocationLab lab(catalog, server);
  const auto trace = RampTrace(target_sessions, 100.0);
  std::printf("phase A: %zu arrivals, shards 1 vs %zu (hw=%zu)\n",
              trace.size(), multi_shards, hw);

  const ScaleRun single = RunScale(lab, trace, 1);
  std::printf("  single-shard: %.0f arrivals/s, p99 %.2f us, peak %zu\n",
              single.arrivals_per_sec, single.p99_us,
              single.peak_concurrent);
  const ScaleRun multi = RunScale(lab, trace, multi_shards);
  std::printf("  %zu shards:    %.0f arrivals/s, p99 %.2f us, peak %zu\n",
              multi_shards, multi.arrivals_per_sec, multi.p99_us,
              multi.peak_concurrent);
  const double speedup =
      multi.wall_s > 0.0 ? single.wall_s / multi.wall_s : 0.0;
  std::printf("  speedup multi vs single: %.2fx (1 means none; needs >1 "
              "hardware thread)\n", speedup);

  // ----- Phase B: shared-cache hit rate (full only). Three arms on the
  // same trace, each from a cold, identically trained predictor:
  //   single          — 1 shard (one worker, no cross-shard reuse),
  //   sharded shared  — N shards, one cache (the service default), and
  //   sharded private — N shards, one cold cache per replica (control:
  //                     what the shared cache's cross-shard warming buys;
  //                     shared >= private holds structurally, since every
  //                     private hit would also hit in the shared cache).
  double hit_rate_single = 0.0;
  double hit_rate_sharded = 0.0;
  double hit_rate_private = 0.0;
  if (!smoke) {
    const auto& world = bench::BenchWorld::Get();
    const auto setup = sched::SelectStudyGames(world.lab(), 10, 60.0, 5);
    // Long enough that most colocation contents are repeats (steady
    // state), so rates measure caching rather than cold-start churn.
    const auto policy_trace = sched::GenerateDynamicTrace(
        setup.game_ids, 1440.0, /*arrivals_per_min=*/2.5,
        /*mean_duration_min=*/30.0, 21);
    sched::ShardedFleetOptions options;
    options.tick_window_min = 5.0;

    const core::GAugurPredictor cold_single = TrainScheduler(world);
    options.num_shards = 1;
    (void)sched::SimulateShardedFleet(
        world.lab(), policy_trace,
        sched::MakeReplicatedProvenanceFactory(cold_single, 60.0), options);
    hit_rate_single = HitRate(cold_single.PredictionCacheStats());

    const core::GAugurPredictor cold_shared = TrainScheduler(world);
    options.num_shards = multi_shards;
    (void)sched::SimulateShardedFleet(
        world.lab(), policy_trace,
        sched::MakeReplicatedProvenanceFactory(cold_shared, 60.0), options);
    hit_rate_sharded = HitRate(cold_shared.PredictionCacheStats());

    const core::GAugurPredictor cold_private = TrainScheduler(world);
    std::vector<std::shared_ptr<core::GAugurPredictor>> private_replicas;
    (void)sched::SimulateShardedFleet(
        world.lab(), policy_trace,
        [&](std::size_t) -> sched::PlacementPolicy {
          auto replica = std::make_shared<core::GAugurPredictor>(
              cold_private.MakeReplica(/*share_cache=*/false));
          private_replicas.push_back(replica);
          return sched::MakeProvenancePolicy(*replica, 60.0);
        },
        options);
    core::PredictionCache::Stats private_stats;
    for (const auto& replica : private_replicas) {
      const auto stats = replica->PredictionCacheStats();
      private_stats.hits += stats.hits;
      private_stats.misses += stats.misses;
    }
    hit_rate_private = HitRate(private_stats);

    std::printf("phase B (%zu arrivals): cache hit rate single %.3f | "
                "%zu shards shared %.3f | %zu shards private %.3f\n",
                policy_trace.size(), hit_rate_single, multi_shards,
                hit_rate_sharded, multi_shards, hit_rate_private);
  }

  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  obs::JsonObject config;
  config["smoke"] = smoke;
  config["target_sessions"] =
      static_cast<unsigned long long>(target_sessions);
  config["multi_shards"] = static_cast<unsigned long long>(multi_shards);
  config["max_policy_candidates"] = 64;
  obs::JsonObject counters;
  counters["arrivals_per_sec"] = multi.arrivals_per_sec;
  counters["arrivals_per_sec_single"] = single.arrivals_per_sec;
  counters["decision_latency_p99_us"] = multi.p99_us;
  counters["decision_latency_p50_us"] = multi.p50_us;
  counters["shards"] = static_cast<unsigned long long>(multi_shards);
  counters["speedup_multi_vs_single"] = speedup;
  counters["peak_concurrent_sessions"] =
      static_cast<unsigned long long>(multi.peak_concurrent);
  counters["hardware_concurrency"] = static_cast<unsigned long long>(hw);
  if (!smoke) {
    counters["cache_hit_rate_single"] = hit_rate_single;
    counters["cache_hit_rate_sharded"] = hit_rate_sharded;
    counters["cache_hit_rate_private_shards"] = hit_rate_private;
  }
  bench::WriteBenchJson("fleet_scale", wall_ms, std::move(config),
                        std::move(counters));
  return 0;
}
