// Dynamic session scheduling: the online reality behind the paper's
// static packing study. Players arrive over the day, play for a while,
// and leave; each arrival must be admitted onto a server immediately, and
// migrating a running game later is off the table (the paper's first
// challenge — "it is hard to readjust by migrating games among servers").
//
// This module provides an event-driven fleet simulation plus pluggable
// placement policies, and scores each policy by:
//   * server-minutes (the cost integral: how many machines were powered,
//     for how long),
//   * peak concurrent servers (the provisioning requirement), and
//   * QoS violations (sessions whose frame rate dipped below the floor at
//     any point in their lifetime, measured on the ground-truth
//     simulator).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gaugur/lab.h"
#include "gaugur/predictor.h"

namespace gaugur::sched {

/// One session arrival in the workload trace.
struct DynamicRequest {
  double arrival_min = 0.0;
  double duration_min = 30.0;
  core::SessionRequest session;
};

/// Chooses a server for an arrival: an index into `open_servers` (each
/// entry is the colocation currently running there), or -1 to power a
/// fresh server. Returning an index of a full server is a contract
/// violation (CHECK).
using PlacementPolicy = std::function<int(
    std::span<const core::Colocation> open_servers,
    const core::SessionRequest& arrival)>;

struct DynamicOptions {
  std::size_t max_sessions_per_server = 4;
  double qos_fps = 60.0;
  /// Upper bound on the open servers offered to the policy per arrival;
  /// 0 = offer all. With a positive cap and more open servers than the
  /// cap, the policy sees the lowest-indexed half of the cap (preserving
  /// first-feasible packing pressure) plus a seeded random sample of the
  /// rest (spreading exploration) — bounding per-decision cost at fleet
  /// scale.
  std::size_t max_policy_candidates = 0;
};

struct DynamicResult {
  double server_minutes = 0.0;
  std::size_t peak_servers = 0;
  std::size_t sessions = 0;
  /// Sessions whose ground-truth FPS fell below qos_fps during any
  /// interval of their lifetime.
  std::size_t violated_sessions = 0;
  /// Power-on transitions (each starts one billed server trajectory).
  /// Always >= peak_servers; mirrored as the "sched.powerons" counter.
  std::size_t powerons = 0;
  /// Server chosen for each request index (fleet-global server id; see
  /// ShardOfServer for the sharded id scheme). -1 = request not placed
  /// (never happens for completed runs). Placement equivalence tests
  /// compare these vectors directly.
  std::vector<long long> placements;

  double MeanServersInUse(double horizon_min) const {
    return horizon_min > 0.0 ? server_minutes / horizon_min : 0.0;
  }
};

/// Runs the fleet simulation on one shard: SimulateShardedFleet with
/// `num_shards = 1` and default tick windows, returning its total.
/// `requests` need not be sorted. The policy only sees servers with a
/// free slot, and runs on the shard's pool worker, not the caller's
/// thread.
///
/// With observability enabled, every 5-minute tick barrier (and the end
/// of the run) runs one obs::HealthEngine::Global().Evaluate pass — arm
/// it with rules (e.g. InstallDefaultRules) before the run to get live
/// SLO burn-rate / deficit / drift alerts in the event stream. A demo
/// subscriber acknowledges PSI-drift firings into the provenance log for
/// the run's duration.
DynamicResult SimulateDynamicFleet(const core::ColocationLab& lab,
                                   std::span<const DynamicRequest> requests,
                                   const PlacementPolicy& policy,
                                   const DynamicOptions& options = {});

/// Poisson arrivals with log-normal-ish play durations, uniform over the
/// study games. Deterministic in `seed`.
std::vector<DynamicRequest> GenerateDynamicTrace(
    std::span<const int> game_ids, double horizon_min,
    double arrivals_per_min, double mean_duration_min, std::uint64_t seed,
    resources::Resolution resolution = resources::kReferenceResolution);

/// First-feasible admission guided by a QoS oracle: place on the first
/// open server where `feasible(colocation + arrival)` holds, else a new
/// server. Wrap a GAugurPredictor, a baseline, or the ground truth.
PlacementPolicy MakeFirstFeasiblePolicy(
    std::function<bool(const core::Colocation&)> feasible);

/// Judges a span of candidate colocations at once (one element per open
/// server, each already extended with the arrival). Wire to a
/// Methodology's FeasibleBatch at a fixed QoS, or straight to
/// GAugurPredictor::ScoreCandidates (GAugur(CM)'s FeasibleBatch).
using BatchFeasibility = std::function<std::vector<char>(
    std::span<const core::Colocation> candidates)>;

/// First-feasible admission with one batched feasibility call per
/// arrival: all extended candidates are scored together, and the first
/// feasible index wins. Placement decisions are identical to
/// MakeFirstFeasiblePolicy over the same judgement.
PlacementPolicy MakeBatchFeasiblePolicy(BatchFeasibility feasible);

/// The no-colocation policy: every session gets its own server.
PlacementPolicy MakeDedicatedPolicy();

/// Side channel between a provenance-aware policy and the fleet
/// simulator: the policy fills this during its call, and the shard folds
/// it into the decision event it appends to obs::EventLog right after.
/// Thread-local (policy and shard share the shard's worker), cleared
/// before every policy invocation; plain policies simply leave it empty.
/// `candidates` holds how each open server fared in the policy's scoring
/// pass, one entry per candidate.
struct DecisionDetail {
  bool has_detail = false;
  std::vector<core::CandidateScore> candidates;
  void Clear() {
    has_detail = false;
    candidates.clear();
  }
};
DecisionDetail& PendingDecisionDetail();

/// First-feasible admission over GAugurPredictor::ScoreCandidatesDetailed:
/// placements are identical to MakeBatchFeasiblePolicy wired to
/// ScoreCandidates, but every decision also publishes per-candidate
/// provenance (memory screen, query/cache-hit counts, worst margin)
/// through PendingDecisionDetail for the event log. `predictor` must
/// outlive the policy.
PlacementPolicy MakeProvenancePolicy(const core::GAugurPredictor& predictor,
                                     double qos_fps);

// ---------------------------------------------------------------------------
// Sharded fleet service: the fleet partitioned into N shards, each driven
// by a common::ThreadPool worker that owns its shard's server state, RNG
// stream, and (for predictor-backed policies) a read-only GAugurPredictor
// replica sharing one striped PredictionCache. See DESIGN.md "Sharded
// fleet service".

/// Reverse of the sharded server-id scheme: shard s's k-th local server
/// has fleet-global id `k * num_shards + s`, so ownership is recoverable
/// from the id alone (arrival routing, event forensics).
inline std::size_t ShardOfServer(std::uint64_t server_id,
                                 std::size_t num_shards) {
  return static_cast<std::size_t>(server_id % num_shards);
}

struct ShardedFleetOptions {
  /// Per-shard simulation contract (QoS floor, server capacity,
  /// candidate cap).
  DynamicOptions dynamic;
  /// Shards == dedicated workers. 1 is SimulateDynamicFleet.
  std::size_t num_shards = 1;
  /// Tick-barrier cadence in sim minutes: all shards synchronize at every
  /// window boundary, where exactly one thread runs the fleet-wide health
  /// evaluation and telemetry-sink tick while every shard is quiescent.
  double tick_window_min = 5.0;
  /// Seeds the per-shard RNG streams (candidate subsampling).
  std::uint64_t seed = 0;
};

struct ShardedFleetResult {
  /// Cross-shard aggregate. `placements` covers every request (each shard
  /// writes its own disjoint request indices); `peak_servers` is the
  /// exact instantaneous fleet peak, from the shards' power transitions
  /// merged in time order (power-offs first at equal times) at every
  /// tick barrier.
  DynamicResult total;
  std::vector<DynamicResult> per_shard;
  std::size_t num_shards = 1;
  /// Fleet-wide concurrent sessions, sampled at every tick barrier while
  /// all shards are quiescent (exact at barrier instants).
  std::size_t peak_concurrent_sessions = 0;
  /// Merged decision-latency quantiles over every decision.
  double decision_latency_p50_us = 0.0;
  double decision_latency_p99_us = 0.0;
  /// Tick barriers crossed.
  std::size_t ticks = 0;
};

/// Builds one placement policy per shard. Policies run concurrently (one
/// shard each), so stateful policies must not share mutable state unless
/// it is thread-safe (predictor replicas sharing the striped cache are).
using ShardPolicyFactory = std::function<PlacementPolicy(std::size_t shard)>;

/// Runs the sharded fleet simulation: arrivals are routed round-robin
/// over the time-sorted order (arrival i -> shard i % num_shards), each
/// shard simulates its sub-fleet on a dedicated pool worker (pinned via
/// ThreadPool::SubmitNamed), and shards synchronize at tick-window
/// barriers. Event-log decision counts, monitor totals, and `sched.*`
/// metrics aggregate exactly across shards; every event a shard emits
/// carries a "shard" field.
ShardedFleetResult SimulateShardedFleet(
    const core::ColocationLab& lab, std::span<const DynamicRequest> requests,
    const ShardPolicyFactory& policy_factory,
    const ShardedFleetOptions& options = {});

/// ShardPolicyFactory for the sharded service: each shard receives its
/// own read-only replica of `predictor` (shared models, shared striped
/// prediction cache — one shard's miss warms every shard) wrapped in a
/// provenance-publishing first-feasible policy identical in behavior to
/// MakeProvenancePolicy. `predictor` must be trained before the call and
/// outlive the returned factory's policies.
ShardPolicyFactory MakeReplicatedProvenanceFactory(
    const core::GAugurPredictor& predictor, double qos_fps);

}  // namespace gaugur::sched
