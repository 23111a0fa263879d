#include "profiling/profiler.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "microbench/pressure_bench.h"
#include "obs/metrics.h"

namespace gaugur::profiling {

namespace {

/// Offline-profiling telemetry: the §3.6 O(N) cost claim as live counters.
struct ProfilerMetrics {
  obs::Counter& games_profiled =
      obs::Registry::Global().GetCounter("profile.games_profiled");
  obs::Counter& curve_points =
      obs::Registry::Global().GetCounter("profile.curve_points");
  obs::Counter& solo_measurements =
      obs::Registry::Global().GetCounter("profile.solo_measurements");
  obs::Histogram& game_us =
      obs::Registry::Global().GetHistogram("profile.game_us");

  static ProfilerMetrics& Get() {
    static ProfilerMetrics metrics;
    return metrics;
  }
};

}  // namespace

using gamesim::WorkloadProfile;
using resources::Resolution;
using resources::Resource;

Profiler::Profiler(const gamesim::ServerSim& server, ProfilerOptions options)
    : server_(server), options_(options) {
  GAUGUR_CHECK(options_.pressure_granularity >= 1);
  GAUGUR_CHECK(options_.primary_res.NumPixels() !=
               options_.secondary_res.NumPixels());
}

namespace {

/// One solo measurement of a workload's rate.
double MeasureSoloRate(const gamesim::ServerSim& server,
                       const WorkloadProfile& w, common::Rng& rng,
                       double noise_sigma) {
  const std::array<WorkloadProfile, 1> solo = {w};
  return server.Measure(solo, rng.Next(), noise_sigma)[0].rate;
}

}  // namespace

GameProfile Profiler::ProfileGame(const gamesim::Game& game) const {
  obs::ScopedTimer game_timer(ProfilerMetrics::Get().game_us);
  common::Rng rng(options_.seed ^
                  (0x517cc1b727220a95ULL * static_cast<std::uint64_t>(
                                               game.id + 1)));
  GameProfile profile;
  profile.game_id = game.id;
  profile.name = game.name;
  profile.cpu_memory = game.cpu_memory;
  profile.gpu_memory = game.gpu_memory;

  const Resolution res_a = options_.primary_res;
  const Resolution res_b = options_.secondary_res;
  const WorkloadProfile game_a = game.AtResolution(res_a);
  const WorkloadProfile game_b = game.AtResolution(res_b);

  // Solo FPS at both resolutions -> Eq. 2 model, plus a third anchor for
  // the piecewise interpolation across the bottleneck kink.
  const double solo_a =
      MeasureSoloRate(server_, game_a, rng, options_.noise_sigma);
  const double solo_b =
      MeasureSoloRate(server_, game_b, rng, options_.noise_sigma);
  profile.solo_fps_ref = solo_a;
  profile.solo_fps_model =
      resources::PixelLinearModel::FromTwoPoints(res_a, solo_a, res_b, solo_b);
  const Resolution res_c = options_.tertiary_res;
  const double solo_c = MeasureSoloRate(
      server_, game.AtResolution(res_c), rng, options_.noise_sigma);
  ProfilerMetrics::Get().solo_measurements.Add(3);
  profile.solo_fps_points = {{res_a.Megapixels(), solo_a},
                             {res_b.Megapixels(), solo_b},
                             {res_c.Megapixels(), solo_c}};
  std::sort(profile.solo_fps_points.begin(), profile.solo_fps_points.end());

  // Solo utilization counters (what a real deployment reads from
  // perf counters / nvidia-smi while the game runs alone).
  profile.solo_utilization = game_a.occupancy;
  for (auto& u : profile.solo_utilization) {
    u = std::max(0.0, u * std::exp(rng.Gaussian(0.0, 0.01)));
  }

  const auto grid =
      microbench::PressureGrid(options_.pressure_granularity);

  // Sensitivity curves + intensity at the primary resolution; intensity
  // again at the secondary resolution for the Observation 7/8 fit.
  for (Resource r : resources::kAllResources) {
    SensitivityCurve curve;
    curve.degradation.reserve(grid.size());
    std::vector<double> slowdown_a, slowdown_b;
    slowdown_a.reserve(grid.size());
    slowdown_b.reserve(grid.size());

    for (double x : grid) {
      const WorkloadProfile bench = microbench::MakePressureBench(r, x);
      const double bench_solo =
          MeasureSoloRate(server_, bench, rng, options_.noise_sigma);

      {
        const std::array<WorkloadProfile, 2> pair = {game_a, bench};
        const auto res =
            server_.Measure(pair, rng.Next(), options_.noise_sigma);
        curve.degradation.push_back(std::min(1.0, res[0].rate / solo_a));
        slowdown_a.push_back(
            microbench::BenchSlowdown(bench_solo, res[1].rate));
      }
      {
        const std::array<WorkloadProfile, 2> pair = {game_b, bench};
        const auto res =
            server_.Measure(pair, rng.Next(), options_.noise_sigma);
        slowdown_b.push_back(
            microbench::BenchSlowdown(bench_solo, res[1].rate));
      }
    }
    profile.sensitivity[resources::Index(r)] = std::move(curve);

    const double intensity_a =
        std::max(0.0, common::Mean(slowdown_a) - 1.0);
    const double intensity_b =
        std::max(0.0, common::Mean(slowdown_b) - 1.0);
    profile.intensity_ref[r] = intensity_a;
    profile.intensity_model[r] = resources::PixelLinearModel::FromTwoPoints(
        res_a, intensity_a, res_b, intensity_b);
  }
  if (obs::Enabled()) {
    ProfilerMetrics& metrics = ProfilerMetrics::Get();
    metrics.games_profiled.Add(1);
    metrics.curve_points.Add(
        static_cast<std::uint64_t>(resources::kNumResources) * grid.size());
  }
  return profile;
}

std::vector<GameProfile> Profiler::ProfileCatalog(
    const gamesim::GameCatalog& catalog, common::ThreadPool* pool) const {
  std::vector<GameProfile> profiles(catalog.size());
  auto profile_one = [&](std::size_t i) {
    profiles[i] = ProfileGame(catalog[i]);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, catalog.size(), profile_one);
  } else {
    for (std::size_t i = 0; i < catalog.size(); ++i) profile_one(i);
  }
  return profiles;
}

std::size_t Profiler::MeasurementsPerGame() const {
  const std::size_t grid_points =
      static_cast<std::size_t>(options_.pressure_granularity) + 1;
  // 3 solo runs + per resource per grid point: 1 bench solo + 2 colocated
  // measurements (primary + secondary resolution).
  return 3 + resources::kNumResources * grid_points * 3;
}

}  // namespace gaugur::profiling
