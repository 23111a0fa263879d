// Dynamic fleet study: sessions arrive and depart over a 12-hour horizon;
// each arrival is admitted immediately and never migrated. Compares
// admission policies on server-minutes (cost), peak fleet size
// (provisioning) and realized QoS violations:
//   * GAugur(CM) first-feasible admission,
//   * GAugur(RM) thresholded,
//   * Sigmoid / SMiTe thresholded,
//   * VBP capacity admission,
//   * ground-truth oracle and dedicated-server bounds.
//
// This extends the paper's static §5.1 study to the arrival/departure
// dynamics its motivation describes.

#include <chrono>
#include <iostream>
#include <memory>

#include "bench/bench_world.h"
#include "bench/trained_stack.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "sched/dynamic.h"
#include "sched/methodology.h"
#include "sched/study.h"

using namespace gaugur;

int main() {
  constexpr double kQos = 60.0;
  constexpr double kHorizonMin = 720.0;  // a 12-hour service day
  const auto& world = bench::BenchWorld::Get();
  const auto& stack = bench::TrainedStack::Get();
  const auto wall_start = std::chrono::steady_clock::now();

  const auto setup = sched::SelectStudyGames(world.lab(), 10, kQos, 5);
  const auto trace = sched::GenerateDynamicTrace(
      setup.game_ids, kHorizonMin, /*arrivals_per_min=*/1.5,
      /*mean_duration_min=*/35.0, 21);
  std::printf("trace: %zu sessions over %.0f minutes\n", trace.size(),
              kHorizonMin);

  std::vector<std::unique_ptr<sched::Methodology>> methods;
  methods.push_back(sched::MakeGAugurCmMethod(stack.gaugur));
  methods.push_back(sched::MakeGAugurRmMethod(stack.gaugur));
  methods.push_back(sched::MakeSigmoidMethod(world.features(), stack.sigmoid));
  methods.push_back(sched::MakeSmiteMethod(world.features(), stack.smite));
  methods.push_back(sched::MakeVbpMethod(stack.vbp));

  common::Table table({"policy", "server-minutes", "mean servers",
                       "peak servers", "violated sessions %"},
                      1);
  obs::JsonObject policy_counters;
  auto run = [&](const std::string& name,
                 const sched::PlacementPolicy& policy) {
    const auto result =
        sched::SimulateDynamicFleet(world.lab(), trace, policy);
    table.AddRow({name, result.server_minutes,
                  result.MeanServersInUse(kHorizonMin),
                  static_cast<long long>(result.peak_servers),
                  100.0 * static_cast<double>(result.violated_sessions) /
                      static_cast<double>(result.sessions)});
    policy_counters[name + ".server_minutes"] = result.server_minutes;
    policy_counters[name + ".violated_sessions"] =
        static_cast<unsigned long long>(result.violated_sessions);
  };

  for (const auto& method : methods) {
    // One batched feasibility call per arrival (all open servers scored
    // together); GAugur methods answer it with a single model evaluation.
    run(method->Name(),
        sched::MakeBatchFeasiblePolicy(
            [&](std::span<const core::Colocation> candidates) {
              return method->FeasibleBatch(kQos, candidates);
            }));
  }
  run("Oracle", sched::MakeFirstFeasiblePolicy(
                    [&](const core::Colocation& c) {
                      return world.lab().TrulyFeasible(c, kQos);
                    }));
  run("Dedicated", sched::MakeDedicatedPolicy());

  table.Print(std::cout,
              "Dynamic fleet: admission policies over a 12-hour trace");
  bench::WriteResultCsv("dynamic_fleet", table);

  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  obs::JsonObject config;
  config["qos_fps"] = kQos;
  config["horizon_min"] = kHorizonMin;
  config["sessions"] = static_cast<unsigned long long>(trace.size());
  config["fast_mode"] = world.fast_mode();
  policy_counters["sched.placements"] = static_cast<unsigned long long>(
      obs::Registry::Global().GetCounter("sched.placements").Value());
  policy_counters["model_monitor.outcomes_joined"] =
      static_cast<unsigned long long>(
          obs::Registry::Global()
              .GetCounter("model_monitor.outcomes_joined")
              .Value());
  bench::WriteBenchJson("dynamic", wall_ms, std::move(config),
                        std::move(policy_counters));

  std::printf(
      "\nColocation admission should approach the oracle's server-minutes "
      "at near-zero violations;\npermissive baselines trade violations "
      "for cost, conservative ones waste servers.\n");
  return 0;
}
