// Sharded fleet service tests on a cheap world (default catalog + server
// sim, no profiling pass): placements must not depend on the tick-window
// length and stay pinned to their recorded digest, multi-shard runs must
// reconcile event counts / monitor totals / sched.* metrics across
// shards, per-shard event streams must stay tick-monotonic, policy
// provenance must survive the hop onto the shard worker, and the
// candidate cap must bound what policies see without breaking admission.
//
// This suite is its own binary (tests_sched) so the TSan CI job can build
// and run just it: the multi-shard tests genuinely race shard workers
// against the shared registry, event log, and fleet time series.

#include "sched/dynamic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "gamesim/catalog.h"
#include "gamesim/server_sim.h"
#include "gaugur/lab.h"
#include "obs/event_log.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/switch.h"

namespace gaugur::sched {
namespace {

using core::Colocation;

/// Shared cheap world: catalog + server sim + lab, no profiling.
const core::ColocationLab& Lab() {
  static const gamesim::GameCatalog catalog =
      gamesim::GameCatalog::MakeDefault(42);
  static const gamesim::ServerSim server;
  static const core::ColocationLab lab(catalog, server);
  return lab;
}

std::vector<DynamicRequest> Trace(std::size_t n, std::uint64_t seed,
                                  double horizon_min = 300.0) {
  const std::vector<int> ids{0, 1, 2, 3};
  auto trace = GenerateDynamicTrace(
      ids, horizon_min, static_cast<double>(n) / horizon_min, 25.0, seed);
  if (trace.size() > n) trace.resize(n);
  return trace;
}

PlacementPolicy AlwaysColocate() {
  return MakeFirstFeasiblePolicy([](const Colocation&) { return true; });
}

/// FNV-1a over every placement's eight bytes.
std::uint64_t PlacementDigest(const std::vector<long long>& placements) {
  std::uint64_t h = 1469598103934665603ull;
  for (const long long p : placements) {
    const auto v = static_cast<std::uint64_t>(p);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(ShardedFleet, SingleShardPlacementsIgnoreTickWindow) {
  // Window-end departure drains are placement-neutral: the same one-shard
  // run with 5-minute barriers and with one window spanning the whole
  // trace must admit every request identically.
  const auto trace = Trace(250, 21);
  const auto factory = [](std::size_t) { return AlwaysColocate(); };
  ShardedFleetOptions options;
  options.num_shards = 1;
  options.tick_window_min = 5.0;
  const auto windowed = SimulateShardedFleet(Lab(), trace, factory, options);
  options.tick_window_min = std::numeric_limits<double>::max();
  const auto whole = SimulateShardedFleet(Lab(), trace, factory, options);

  EXPECT_GT(windowed.ticks, whole.ticks);
  ASSERT_EQ(windowed.total.placements.size(), trace.size());
  EXPECT_EQ(windowed.total.placements, whole.total.placements);
  EXPECT_EQ(windowed.total.violated_sessions, whole.total.violated_sessions);
  EXPECT_EQ(windowed.total.peak_servers, whole.total.peak_servers);
  EXPECT_EQ(windowed.total.powerons, whole.total.powerons);
  EXPECT_DOUBLE_EQ(windowed.total.server_minutes,
                   whole.total.server_minutes);
}

TEST(ShardedFleet, AlwaysColocatePlacementsArePinned) {
  // Recorded from the two-mode simulator this one replaced; any change in
  // arrival order, departure order, server reuse or billing moves them.
  const auto trace = Trace(250, 21);
  const DynamicResult result =
      SimulateDynamicFleet(Lab(), trace, AlwaysColocate());
  ASSERT_EQ(result.placements.size(), trace.size());
  EXPECT_EQ(PlacementDigest(result.placements), 0xea906e39bd63ecc4ull);
  EXPECT_DOUBLE_EQ(result.server_minutes, 2006.3657732525287);
}

TEST(ShardedFleet, DecisionDetailSurvivesTheWorkerHop) {
  // The policy runs on the shard's pool worker, and PendingDecisionDetail
  // is thread-local: a wrapped policy that publishes one judgement per
  // candidate (as a timing harness around a provenance policy does) must
  // land that detail on every decision event.
  obs::EnabledScope on(true);
  obs::EventLog::Global().Clear();
  const PlacementPolicy inner =
      [](std::span<const Colocation> open_servers,
         const core::SessionRequest&) -> int {
    DecisionDetail& detail = PendingDecisionDetail();
    detail.Clear();
    detail.has_detail = true;
    for (std::size_t s = 0; s < open_servers.size(); ++s) {
      detail.candidates.push_back(
          {.feasible = s == 0, .memory_ok = true, .queries = 1});
    }
    return open_servers.empty() ? -1 : 0;
  };
  std::atomic<std::size_t> calls{0};
  const PlacementPolicy wrapped =
      [inner, &calls](std::span<const Colocation> open_servers,
                      const core::SessionRequest& arrival) {
        calls.fetch_add(1);
        return inner(open_servers, arrival);
      };

  const auto trace = Trace(120, 47);
  (void)SimulateDynamicFleet(Lab(), trace, wrapped);
  EXPECT_EQ(calls.load(), trace.size());

  std::size_t decisions = 0;
  std::size_t with_candidates = 0;
  for (const obs::Event& event : obs::EventLog::Global().Snapshot()) {
    if (event.kind != obs::EventKind::kDecision) continue;
    ++decisions;
    const auto num = event.fields.find("num_candidates");
    ASSERT_NE(num, event.fields.end());
    ASSERT_TRUE(event.candidates.has_value())
        << "decision " << event.decision_id << " lost its detail";
    EXPECT_EQ(event.candidates->size(),
              static_cast<std::size_t>(num->second.AsNumber()));
    with_candidates += event.candidates->empty() ? 0 : 1;
  }
  EXPECT_EQ(decisions, trace.size());
  EXPECT_GT(with_candidates, 0u);
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, EveryRequestIsPlacedOnItsOwnShard) {
  const std::size_t shards = 3;
  const auto trace = Trace(200, 33);
  ShardedFleetOptions options;
  options.num_shards = shards;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  // Arrivals route round-robin over the time-sorted order; recompute that
  // routing and check each placement's server id decodes to the routed
  // shard (the id scheme interleaves: local * num_shards + shard).
  std::vector<std::size_t> order(trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trace[a].arrival_min < trace[b].arrival_min;
                   });
  ASSERT_EQ(result.total.placements.size(), trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const long long placed = result.total.placements[order[i]];
    ASSERT_GE(placed, 0) << "request " << order[i] << " never placed";
    EXPECT_EQ(ShardOfServer(static_cast<std::uint64_t>(placed), shards),
              i % shards);
  }
  // Per-shard results partition the workload exactly.
  std::size_t sessions = 0;
  for (const auto& shard : result.per_shard) sessions += shard.sessions;
  EXPECT_EQ(sessions, trace.size());
  EXPECT_EQ(result.total.sessions, trace.size());
}

TEST(ShardedFleet, MultiShardRunsReconcileEventsAndMetrics) {
  obs::EnabledScope on(true);
  obs::EventLog::Global().Clear();
  auto& registry = obs::Registry::Global();
  const obs::Snapshot before = registry.Snap();

  const std::size_t shards = 4;
  const auto trace = Trace(300, 55);
  ShardedFleetOptions options;
  options.num_shards = shards;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  const obs::Snapshot after = registry.Snap();
  const auto counter_delta = [&](const std::string& name) -> std::uint64_t {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    return after.counters.at(name) - base;
  };

  // sched.placements sums exactly across shards...
  EXPECT_EQ(counter_delta("sched.placements"), trace.size());
  // ...and the per-shard counters partition it.
  std::uint64_t per_shard_total = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::uint64_t shard_count = counter_delta(
        "sched.shard." + std::to_string(k) + ".placements");
    EXPECT_GT(shard_count, 0u);
    per_shard_total += shard_count;
  }
  EXPECT_EQ(per_shard_total, trace.size());
  EXPECT_EQ(counter_delta("sched.powerons"), result.total.powerons);

  // The run's gauges returned to rest: no shards in flight, no backlog.
  EXPECT_EQ(after.gauges.at("sched.shards"),
            before.gauges.count("sched.shards")
                ? before.gauges.at("sched.shards")
                : 0);
  EXPECT_EQ(after.gauges.at("sched.shard_backlog"),
            before.gauges.count("sched.shard_backlog")
                ? before.gauges.at("sched.shard_backlog")
                : 0);

  // Event-log decision count reconciles with admissions, and every
  // sharded event carries its shard tag.
  std::size_t decisions = 0;
  for (const obs::Event& event : obs::EventLog::Global().Snapshot()) {
    if (event.kind == obs::EventKind::kDecision) {
      ++decisions;
      const auto shard_field = event.fields.find("shard");
      ASSERT_NE(shard_field, event.fields.end());
      const auto shard = static_cast<std::size_t>(
          shard_field->second.AsNumber());
      EXPECT_LT(shard, shards);
    }
  }
  EXPECT_EQ(decisions, trace.size());
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, PerShardEventStreamsAreTickMonotonic) {
  obs::EnabledScope on(true);
  obs::EventLog::Global().Clear();

  ShardedFleetOptions options;
  options.num_shards = 3;
  const auto trace = Trace(200, 77);
  (void)SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  // Within one shard, events ordered by seq must have non-decreasing
  // ticks — the invariant that makes per-shard segments globally
  // mergeable by sorted merge (trace_explorer enforces the same check on
  // manifest reads).
  std::vector<obs::Event> events = obs::EventLog::Global().Snapshot();
  std::sort(events.begin(), events.end(),
            [](const obs::Event& a, const obs::Event& b) {
              return a.seq < b.seq;
            });
  std::map<std::size_t, double> last_tick;
  std::map<std::size_t, std::uint64_t> last_seq;
  for (const obs::Event& event : events) {
    const auto shard_field = event.fields.find("shard");
    if (shard_field == event.fields.end()) continue;
    const auto shard =
        static_cast<std::size_t>(shard_field->second.AsNumber());
    if (last_tick.count(shard)) {
      EXPECT_GE(event.tick, last_tick[shard])
          << "shard " << shard << " ticks regressed at seq " << event.seq;
      EXPECT_GT(event.seq, last_seq[shard]);
    }
    last_tick[shard] = event.tick;
    last_seq[shard] = event.seq;
  }
  EXPECT_GE(last_tick.size(), 2u) << "expected events from several shards";
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, ArmedProfilerAttributesEveryShardAndWindow) {
  // Races the decision flight recorder's shared slabs, exemplar ring, and
  // window-imbalance accounting across four genuinely concurrent shard
  // workers — the TSan target for obs/latency_profiler.h.
  obs::EnabledScope on(true);
  obs::LatencyProfiler& profiler = obs::LatencyProfiler::Global();
  profiler.Reset();

  const std::size_t shards = 4;
  const auto trace = Trace(300, 63);
  ShardedFleetOptions options;
  options.num_shards = shards;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  const obs::LatencyProfileSummary summary = profiler.Summary();
  // Every arrival was attributed exactly once, spread over all shards.
  EXPECT_EQ(summary.decisions, trace.size());
  ASSERT_EQ(summary.shards.size(), shards);
  for (const obs::ShardProfile& shard : summary.shards) {
    EXPECT_LT(shard.shard, shards);
    EXPECT_GT(shard.decisions, 0u);
    // One barrier wait per tick window per shard.
    EXPECT_EQ(shard.barrier_waits, result.ticks);
    EXPECT_GE(shard.barrier_wait_us, 0.0);
  }
  // The policy invocation is timed once per decision; candidate
  // enumeration and event emission bracket it outside the policy span.
  EXPECT_EQ(
      summary.fleet[static_cast<std::size_t>(obs::Phase::kPolicySelect)]
          .count,
      trace.size());
  EXPECT_EQ(
      summary.fleet[static_cast<std::size_t>(obs::Phase::kCandidateEnum)]
          .count,
      trace.size());
  // One imbalance sample per tick window.
  EXPECT_EQ(summary.imbalance.windows, result.ticks);
  EXPECT_GE(summary.imbalance.spread_max_us,
            summary.imbalance.windows > 0
                ? summary.imbalance.spread_total_us /
                      static_cast<double>(summary.imbalance.windows)
                : 0.0);
  // The tail ring filled and sorted slowest-first.
  EXPECT_EQ(summary.exemplars.size(),
            obs::LatencyProfiler::kTailExemplars);
  profiler.Reset();
}

TEST(ShardedFleet, DeterministicAcrossRunsForFixedSeed) {
  const auto trace = Trace(150, 91);
  ShardedFleetOptions options;
  options.num_shards = 2;
  options.seed = 1234;
  options.dynamic.max_policy_candidates = 4;  // exercises the seeded sampler
  const auto factory = [](std::size_t) { return AlwaysColocate(); };
  const auto a = SimulateShardedFleet(Lab(), trace, factory, options);
  const auto b = SimulateShardedFleet(Lab(), trace, factory, options);
  EXPECT_EQ(a.total.placements, b.total.placements);
  EXPECT_EQ(a.total.powerons, b.total.powerons);
  EXPECT_DOUBLE_EQ(a.total.server_minutes, b.total.server_minutes);
}

TEST(ShardedFleet, CandidateCapBoundsWhatPoliciesSee) {
  // A policy that always declines makes every server a 1-session open
  // server, so the open set grows far past the cap — the simulator must
  // still never offer more than the cap.
  std::atomic<std::size_t> max_seen{0};
  std::atomic<std::size_t> calls{0};
  const auto counting = [&max_seen, &calls]() -> PlacementPolicy {
    return [&max_seen, &calls](std::span<const Colocation> open_servers,
                               const core::SessionRequest&) -> int {
      std::size_t prev = max_seen.load();
      while (open_servers.size() > prev &&
             !max_seen.compare_exchange_weak(prev, open_servers.size())) {
      }
      calls.fetch_add(1);
      return -1;
    };
  };

  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 120; ++i) {
    burst.push_back({0.1 * i, 500.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 1;
  options.dynamic.max_policy_candidates = 8;
  const auto result = SimulateShardedFleet(
      Lab(), burst, [&](std::size_t) { return counting(); }, options);
  EXPECT_EQ(calls.load(), burst.size());
  EXPECT_LE(max_seen.load(), 8u);
  EXPECT_EQ(result.total.sessions, burst.size());
  // Everyone declined, so the fleet is one server per session.
  EXPECT_EQ(result.total.peak_servers, burst.size());
}

TEST(ShardedFleet, UncappedSingleShardOffersEveryOpenServer) {
  std::atomic<std::size_t> max_seen{0};
  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 40; ++i) {
    burst.push_back({0.1 * i, 500.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 1;
  const auto result = SimulateShardedFleet(
      Lab(), burst,
      [&](std::size_t) -> PlacementPolicy {
        return [&max_seen](std::span<const Colocation> open_servers,
                           const core::SessionRequest&) -> int {
          std::size_t prev = max_seen.load();
          while (open_servers.size() > prev &&
                 !max_seen.compare_exchange_weak(prev,
                                                 open_servers.size())) {
          }
          return -1;
        };
      },
      options);
  EXPECT_EQ(result.total.sessions, burst.size());
  EXPECT_EQ(max_seen.load(), burst.size() - 1);  // all prior servers open
}

TEST(ShardedFleet, PeakServersIsTheExactFleetPeak) {
  // Four back-to-back dedicated sessions, routed alternately to two
  // shards: each shard peaks at one server, but the fleet never runs two
  // at once — a departure powers off before an arrival at the same
  // instant powers on.
  std::vector<DynamicRequest> sequential;
  for (int i = 0; i < 4; ++i) {
    sequential.push_back({10.0 * i, 10.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 2;
  const auto result = SimulateShardedFleet(
      Lab(), sequential, [](std::size_t) { return MakeDedicatedPolicy(); },
      options);
  ASSERT_EQ(result.per_shard.size(), 2u);
  EXPECT_EQ(result.per_shard[0].peak_servers, 1u);
  EXPECT_EQ(result.per_shard[1].peak_servers, 1u);
  EXPECT_EQ(result.total.peak_servers, 1u);
  EXPECT_EQ(result.total.powerons, 4u);
}

TEST(ShardedFleet, ShardOfServerInvertsTheIdScheme) {
  for (const std::size_t shards : {1u, 2u, 5u, 8u}) {
    for (std::uint64_t local = 0; local < 20; ++local) {
      for (std::size_t shard = 0; shard < shards; ++shard) {
        const std::uint64_t global = local * shards + shard;
        EXPECT_EQ(ShardOfServer(global, shards), shard);
      }
    }
  }
}

TEST(ShardedFleet, ZeroShardOptionClampsToOne) {
  const auto trace = Trace(40, 5);
  ShardedFleetOptions options;
  options.num_shards = 0;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);
  EXPECT_EQ(result.num_shards, 1u);
  EXPECT_EQ(result.total.sessions, trace.size());
}

TEST(ShardedFleet, PeakConcurrentSessionsSampledAtBarriers) {
  // A block of long overlapping sessions: at some barrier all of them are
  // live, so the sampled peak must reach the full count.
  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 60; ++i) {
    burst.push_back({0.05 * i, 400.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 2;
  options.tick_window_min = 10.0;
  const auto result = SimulateShardedFleet(
      Lab(), burst, [](std::size_t) { return AlwaysColocate(); }, options);
  EXPECT_EQ(result.peak_concurrent_sessions, burst.size());
  EXPECT_GT(result.ticks, 0u);
}

}  // namespace
}  // namespace gaugur::sched
