#include "sched/dynamic.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gaugur/predictor.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/sink.h"
#include "obs/timeseries.h"
#include "resources/resource.h"

namespace gaugur::sched {

using core::Colocation;
using core::SessionRequest;

namespace {

/// Fleet-scheduler telemetry: admission throughput, fleet growth, and the
/// per-decision latency that bounds request-arrival-time scheduling.
struct SchedMetrics {
  obs::Counter& placements =
      obs::Registry::Global().GetCounter("sched.placements");
  obs::Counter& powerons =
      obs::Registry::Global().GetCounter("sched.powerons");
  obs::Counter& candidates_rejected =
      obs::Registry::Global().GetCounter("sched.candidates_rejected");
  /// Log-scale buckets: decision latency spans sub-µs (dedicated policy)
  /// to tens of ms (predictor-backed policies over a large fleet), which
  /// the default linear layout cannot resolve at both ends.
  obs::Histogram& decision_us = obs::Registry::Global().GetHistogram(
      "sched.decision_us", obs::Histogram::ExponentialBounds(1.0, 2.0, 16));
  /// Sharded service: worker count of the run in flight, and arrivals not
  /// yet admitted (drains to zero as shards process their queues — the
  /// default health rules watch it for stalls).
  obs::Gauge& shards = obs::Registry::Global().GetGauge("sched.shards");
  obs::Gauge& shard_backlog =
      obs::Registry::Global().GetGauge("sched.shard_backlog");

  static SchedMetrics& Get() {
    static SchedMetrics metrics;
    return metrics;
  }
};

struct LiveSession {
  SessionRequest session;
  std::size_t request_index = 0;
  double end_min = 0.0;
};

struct LiveServer {
  std::vector<LiveSession> sessions;
  /// When this server last became non-empty (for server-minute billing).
  double powered_since = 0.0;
  bool powered = false;
  /// Decision that most recently placed a session here; violation events
  /// link back to it ("why was this colocation formed?"). 0 = none.
  std::uint64_t last_decision_id = 0;
};

/// Memoized ground truth per colocation multiset, keyed by
/// core::ColocationHash. `fps` and `pressures` are parallel to `content`,
/// the session order of the first server that formed the multiset; a
/// server holding it in another order reads them through the slot map
/// core::MatchColocation builds. Pressures are filled lazily (first
/// obs-enabled access) — they are only needed for the fleet time series,
/// and computing them costs one equilibrium solve per slot.
struct GroundTruth {
  Colocation content;
  std::vector<double> fps;
  std::vector<resources::PerResource<double>> pressures;
  bool has_pressures = false;
};

/// One shard's part of the fleet simulation: owns its servers, departure
/// queue, ground-truth memo, RNG stream, and per-shard tallies.
/// SimulateShardedFleet runs N of these on pinned pool workers with tick
/// barriers between windows; SimulateDynamicFleet is the N = 1 case.
///
/// Fleet-global server ids interleave shards: shard s's k-th local server
/// is id `k * num_shards + s`, so ShardOfServer(id) recovers ownership.
class ShardSim {
 public:
  struct Config {
    const core::ColocationLab* lab = nullptr;
    std::span<const DynamicRequest> requests;
    /// This shard's arrivals: indices into `requests`, time-sorted.
    std::vector<std::size_t> order;
    DynamicOptions options;
    std::size_t shard = 0;
    std::size_t num_shards = 1;
    std::uint64_t seed = 0;
    /// Full-size (requests.size()) array; each shard writes only its own
    /// request indices, so concurrent shards never touch the same slot.
    long long* placements_out = nullptr;
  };

  explicit ShardSim(Config config)
      : lab_(*config.lab),
        requests_(config.requests),
        order_(std::move(config.order)),
        options_(config.options),
        shard_(config.shard),
        num_shards_(std::max<std::size_t>(config.num_shards, 1)),
        rng_(config.seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(config.shard) + 1))),
        placements_out_(config.placements_out),
        violated_(config.requests.size(), 0),
        shard_placements_(obs::Registry::Global().GetCounter(
            "sched.shard." + std::to_string(config.shard) + ".placements")) {
    GAUGUR_CHECK(options_.max_sessions_per_server >= 1);
    result_.sessions = order_.size();
  }

  /// Admits every arrival with arrival_min < window_end (departures due
  /// by each arrival are processed first).
  void RunWindow(const PlacementPolicy& policy, double window_end) {
    while (next_arrival_ < order_.size() &&
           requests_[order_[next_arrival_]].arrival_min < window_end) {
      ProcessArrival(policy, order_[next_arrival_]);
      ++next_arrival_;
    }
  }

  /// Processes departures due by `until`. Runs at every window boundary
  /// so monitor totals and the time series never lag a whole shard
  /// behind the barrier clock; +infinity drains everything (end of run).
  void DrainUpTo(double until) {
    while (!departures_.empty() && departures_.begin()->first <= until) {
      PopDeparture();
    }
  }

  std::size_t LiveSessions() const { return live_sessions_; }
  double LastEventTime() const { return last_event_time_; }
  std::vector<double>& Latencies() { return latencies_; }
  /// Appends this shard's power transitions since the last call to
  /// `out` and forgets them.
  void TakePowerLog(std::vector<std::pair<double, int>>& out) {
    out.insert(out.end(), power_log_.begin(), power_log_.end());
    power_log_.clear();
  }

  DynamicResult TakeResult() {
    for (char v : violated_) result_.violated_sessions += v != 0 ? 1 : 0;
    return std::move(result_);
  }

 private:
  std::uint64_t GlobalId(std::size_t local) const {
    return static_cast<std::uint64_t>(local) * num_shards_ + shard_;
  }

  void TagShard(obs::JsonObject& fields) const {
    fields["shard"] = obs::JsonValue(static_cast<unsigned long long>(shard_));
  }

  /// Moves server `s` between the idle/open index sets after its session
  /// count changed (erase on a set the server is not in is a no-op, which
  /// also covers freshly created servers).
  void Reclassify(std::size_t s, std::size_t old_n, std::size_t new_n) {
    if (old_n == new_n) return;
    if (old_n == 0) {
      idle_.erase(s);
    } else if (old_n < options_.max_sessions_per_server) {
      open_.erase(s);
    }
    if (new_n == 0) {
      idle_.insert(s);
    } else if (new_n < options_.max_sessions_per_server) {
      open_.insert(s);
    }
  }

  void MarkViolations(std::size_t server_idx, double now) {
    LiveServer& server = servers_[server_idx];
    if (server.sessions.empty()) return;
    Colocation content;
    for (const auto& s : server.sessions) content.push_back(s.session);
    const std::uint64_t key = core::ColocationHash(content);
    auto it = fps_cache_.find(key);
    if (it == fps_cache_.end()) {
      it = fps_cache_
               .emplace(key,
                        GroundTruth{content, lab_.TrueFps(content), {}, false})
               .first;
      if (obs::Enabled()) {
        // First time this colocation content actually runs: feed each
        // session's realized FPS back to the model monitor, joining any
        // audit records the policy's predictor left under the same key.
        // Cache hits are skipped so one colocation content is one outcome
        // — the same gating makes the qos_violation events below
        // reconcile 1:1 with the monitor's qos_violations_observed tally.
        std::vector<SessionRequest> corunners;
        corunners.reserve(content.size());
        for (std::size_t i = 0; i < content.size(); ++i) {
          corunners.clear();
          for (std::size_t j = 0; j < content.size(); ++j) {
            if (j != i) corunners.push_back(content[j]);
          }
          const double realized = it->second.fps[i];
          obs::OutcomeContext context;
          if (realized < options_.qos_fps) {
            // QoS dip: ask the ground-truth lab which resource's
            // contention curve drove it and which co-runner's removal
            // would buy back the most FPS, then link the violation event
            // to the decision that formed this colocation.
            const core::InterferenceAttribution attr =
                lab_.AttributeInterference(content, i);
            context.dominant_resource =
                std::string(resources::Name(attr.dominant_resource));
            context.offender_game_id = attr.offender_game_id;
            obs::JsonObject fields;
            fields["server"] = obs::JsonValue(
                static_cast<unsigned long long>(GlobalId(server_idx)));
            fields["victim_game"] = obs::JsonValue(content[i].game_id);
            fields["realized_fps"] = obs::JsonValue(realized);
            fields["qos_fps"] = obs::JsonValue(options_.qos_fps);
            fields["dominant_resource"] =
                obs::JsonValue(context.dominant_resource);
            fields["dominant_damage"] = obs::JsonValue(attr.dominant_damage);
            fields["offender_game"] = obs::JsonValue(attr.offender_game_id);
            fields["offender_fps_gain"] =
                obs::JsonValue(attr.offender_fps_gain);
            TagShard(fields);
            obs::EventLog::Global().Append(obs::EventKind::kQosViolation,
                                           now, server.last_decision_id,
                                           std::move(fields));
          }
          obs::ModelMonitor::Global().ObserveOutcome(
              core::ModelJoinKey(content[i], corunners), realized,
              options_.qos_fps, context);
        }
      }
    }
    GroundTruth& truth = it->second;
    GAUGUR_CHECK_MSG(core::MatchColocation(content, truth.content, slot_of_),
                     "ColocationHash collision in the ground-truth memo");
    for (std::size_t i = 0; i < server.sessions.size(); ++i) {
      if (truth.fps[slot_of_[i]] < options_.qos_fps) {
        violated_[server.sessions[i].request_index] = 1;
      }
    }
    if (obs::Enabled()) {
      // Sample this server's state into the fleet time series. Pressures
      // are solved once per distinct multiset and reused from the cache.
      if (!truth.has_pressures) {
        truth.pressures = lab_.TruePressures(truth.content);
        truth.has_pressures = true;
      }
      obs::ServerSample sample;
      sample.tick = now;
      sample.slots.reserve(server.sessions.size());
      for (std::size_t i = 0; i < server.sessions.size(); ++i) {
        obs::SlotSample slot;
        slot.game_id = content[i].game_id;
        slot.fps = truth.fps[slot_of_[i]];
        slot.pressure.reserve(resources::kNumResources);
        for (resources::Resource r : resources::kAllResources) {
          slot.pressure.push_back(truth.pressures[slot_of_[i]][r]);
        }
        sample.slots.push_back(std::move(slot));
      }
      obs::FleetTimeSeries::Global().Record(GlobalId(server_idx),
                                            std::move(sample));
    }
  }

  void BillAndUpdate(std::size_t server_idx, double now, bool now_empty) {
    LiveServer& server = servers_[server_idx];
    if (server.powered && now_empty) {
      result_.server_minutes += now - server.powered_since;
      server.powered = false;
      --live_servers_;
      power_log_.emplace_back(now, -1);
      if (obs::Enabled()) {
        obs::JsonObject fields;
        fields["server"] = obs::JsonValue(
            static_cast<unsigned long long>(GlobalId(server_idx)));
        TagShard(fields);
        obs::EventLog::Global().Append(obs::EventKind::kPowerOff, now,
                                       /*decision_id=*/0, std::move(fields));
        // A drained server carries no FPS deficit: record an empty sample
        // so the health engine's per-server signal resolves instead of
        // firing forever on the last occupied state.
        obs::FleetTimeSeries::Global().Record(GlobalId(server_idx),
                                              obs::ServerSample{now, {}});
      }
    } else if (!server.powered && !now_empty) {
      server.powered = true;
      server.powered_since = now;
      ++live_servers_;
      ++result_.powerons;
      power_log_.emplace_back(now, +1);
      SchedMetrics::Get().powerons.Add(1);
      if (obs::Enabled()) {
        obs::JsonObject fields;
        fields["server"] = obs::JsonValue(
            static_cast<unsigned long long>(GlobalId(server_idx)));
        TagShard(fields);
        obs::EventLog::Global().Append(obs::EventKind::kPowerOn, now,
                                       /*decision_id=*/0, std::move(fields));
      }
    }
    result_.peak_servers = std::max(result_.peak_servers, live_servers_);
  }

  void PopDeparture() {
    const auto [server_idx, request_idx] = departures_.begin()->second;
    const double when = departures_.begin()->first;
    departures_.erase(departures_.begin());
    LiveServer& server = servers_[server_idx];
    auto it = std::find_if(server.sessions.begin(), server.sessions.end(),
                           [&](const LiveSession& s) {
                             return s.request_index == request_idx;
                           });
    GAUGUR_CHECK(it != server.sessions.end());
    const std::size_t old_n = server.sessions.size();
    server.sessions.erase(it);
    --live_sessions_;
    Reclassify(server_idx, old_n, old_n - 1);
    last_event_time_ = std::max(last_event_time_, when);
    if (obs::Enabled()) {
      obs::JsonObject fields;
      fields["server"] = obs::JsonValue(
          static_cast<unsigned long long>(GlobalId(server_idx)));
      fields["request_index"] =
          obs::JsonValue(static_cast<unsigned long long>(request_idx));
      TagShard(fields);
      obs::EventLog::Global().Append(obs::EventKind::kDeparture, when,
                                     /*decision_id=*/0, std::move(fields));
    }
    MarkViolations(server_idx, when);  // survivors' smaller colocation
    BillAndUpdate(server_idx, when, server.sessions.empty());
  }

  /// Picks the open-server candidates for one arrival: every open server
  /// (ascending index) when uncapped or under the cap, else the
  /// lowest-index half of the cap plus a seeded random sample of the
  /// remaining open servers (Floyd's algorithm on this shard's RNG
  /// stream), re-sorted so the view stays ascending.
  void SelectCandidates() {
    candidate_locals_.clear();
    const std::size_t cap = options_.max_policy_candidates;
    if (cap == 0 || open_.size() <= cap) {
      candidate_locals_.assign(open_.begin(), open_.end());
      return;
    }
    scratch_.assign(open_.begin(), open_.end());
    const std::size_t prefix = cap / 2;
    candidate_locals_.assign(scratch_.begin(), scratch_.begin() + prefix);
    const std::size_t tail_n = scratch_.size() - prefix;
    const std::size_t want = cap - prefix;
    sample_.clear();
    for (std::size_t j = tail_n - want; j < tail_n; ++j) {
      const std::size_t t = rng_.UniformInt(j + 1);
      if (sample_.insert(scratch_[prefix + t]).second) continue;
      sample_.insert(scratch_[prefix + j]);
    }
    candidate_locals_.insert(candidate_locals_.end(), sample_.begin(),
                             sample_.end());
    // sample_ is an ordered set and the prefix precedes every tail
    // element, so candidate_locals_ is already ascending.
  }

  void ProcessArrival(const PlacementPolicy& policy, std::size_t oi) {
    const DynamicRequest& request = requests_[oi];
    const double now = request.arrival_min;
    last_event_time_ = std::max(last_event_time_, now);

    DrainUpTo(now);

    // Flight recorder: everything from here to EndDecision below is
    // attributed to a phase (or falls into policy_select's exclusive
    // remainder). No-op unless the profiler is armed and obs is on.
    obs::LatencyProfiler::Global().BeginDecision(shard_);

    // Policy sees only servers with a free slot.
    {
      obs::PhaseTimer phase(obs::Phase::kCandidateEnum);
      SelectCandidates();
      open_view_.clear();
      for (std::size_t s : candidate_locals_) {
        Colocation content;
        for (const auto& live : servers_[s].sessions) {
          content.push_back(live.session);
        }
        open_view_.push_back(std::move(content));
      }
    }

    if (obs::Enabled()) {
      obs::PhaseTimer phase(obs::Phase::kEventEmit);
      obs::JsonObject fields;
      fields["request_index"] =
          obs::JsonValue(static_cast<unsigned long long>(oi));
      fields["game_id"] = obs::JsonValue(request.session.game_id);
      fields["pixels"] = obs::JsonValue(request.session.resolution.NumPixels());
      fields["duration_min"] = obs::JsonValue(request.duration_min);
      TagShard(fields);
      obs::EventLog::Global().Append(obs::EventKind::kArrival, now,
                                     /*decision_id=*/0, std::move(fields));
    }

    int choice;
    PendingDecisionDetail().Clear();
    {
      const auto t0 = std::chrono::steady_clock::now();
      {
        // Nested inside the decision_us span, so the phases the policy
        // records internally subtract out of policy_select's exclusive
        // time and the per-phase sum reconciles with sched.decision_us.
        obs::PhaseTimer phase(obs::Phase::kPolicySelect);
        choice = policy(open_view_, request.session);
      }
      const double us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count();
      SchedMetrics::Get().decision_us.Record(us);
      latencies_.push_back(us);
    }
    if (obs::Enabled()) {
      SchedMetrics& metrics = SchedMetrics::Get();
      metrics.placements.Add(1);
      shard_placements_.Add(1);
      metrics.shard_backlog.Sub(1);
      // Open servers the policy was offered but did not pick.
      metrics.candidates_rejected.Add(open_view_.size() -
                                      (choice >= 0 ? 1 : 0));
    }
    std::size_t target;
    if (choice < 0) {
      // Reuse the lowest-index powered-off slot if one exists, else grow
      // the fleet.
      if (idle_.empty()) {
        servers_.emplace_back();
        target = servers_.size() - 1;
      } else {
        target = *idle_.begin();
      }
    } else {
      GAUGUR_CHECK_MSG(static_cast<std::size_t>(choice) < open_view_.size(),
                       "policy returned an invalid server index");
      target = candidate_locals_[static_cast<std::size_t>(choice)];
    }
    LiveServer& server = servers_[target];
    GAUGUR_CHECK(server.sessions.size() < options_.max_sessions_per_server);
    std::uint64_t decision_id = 0;
    if (obs::Enabled()) {
      obs::PhaseTimer phase(obs::Phase::kEventEmit);
      // One decision event per arrival, carrying the policy's judgement of
      // every open candidate (when the policy published one) so a later
      // violation can be traced back to "what did the predictor believe".
      decision_id = obs::EventLog::Global().NextDecisionId();
      server.last_decision_id = decision_id;
      obs::JsonObject fields;
      fields["request_index"] =
          obs::JsonValue(static_cast<unsigned long long>(oi));
      fields["game_id"] = obs::JsonValue(request.session.game_id);
      fields["num_candidates"] =
          obs::JsonValue(static_cast<unsigned long long>(open_view_.size()));
      fields["choice"] = obs::JsonValue(choice);
      fields["target_server"] = obs::JsonValue(
          static_cast<unsigned long long>(GlobalId(target)));
      TagShard(fields);
      const DecisionDetail& detail = PendingDecisionDetail();
      std::optional<std::vector<obs::DecisionCandidate>> candidates;
      if (detail.has_detail) {
        // Typed, beside the header: the sink writer renders the array.
        candidates.emplace();
        candidates->reserve(detail.candidates.size());
        unsigned long long queries_total = 0, cache_hits_total = 0;
        for (const core::CandidateScore& score : detail.candidates) {
          candidates->push_back({score.feasible, score.memory_ok,
                                 score.queries, score.cache_hits,
                                 score.min_margin});
          queries_total += score.queries;
          cache_hits_total += score.cache_hits;
        }
        fields["queries_total"] = obs::JsonValue(queries_total);
        fields["cache_hits_total"] = obs::JsonValue(cache_hits_total);
      }
      obs::EventLog::Global().Append(obs::EventKind::kDecision, now,
                                     decision_id, std::move(fields),
                                     std::move(candidates));
    }
    obs::LatencyProfiler::Global().EndDecision(decision_id, now);
    const std::size_t old_n = server.sessions.size();
    server.sessions.push_back(
        {request.session, oi, now + request.duration_min});
    ++live_sessions_;
    peak_live_sessions_ = std::max(peak_live_sessions_, live_sessions_);
    Reclassify(target, old_n, old_n + 1);
    placements_out_[oi] = static_cast<long long>(GlobalId(target));
    if (old_n == 0) BillAndUpdate(target, now, /*now_empty=*/false);
    MarkViolations(target, now);
    departures_.emplace(now + request.duration_min,
                        std::make_pair(target, oi));
  }

  const core::ColocationLab& lab_;
  std::span<const DynamicRequest> requests_;
  std::vector<std::size_t> order_;
  std::size_t next_arrival_ = 0;
  DynamicOptions options_;
  std::size_t shard_;
  std::size_t num_shards_;
  common::Rng rng_;
  long long* placements_out_;

  std::vector<LiveServer> servers_;
  /// Local indices of partially filled servers (0 < n < max), ordered so
  /// the per-arrival candidate view stays ascending.
  std::set<std::size_t> open_;
  /// Local indices of empty (powered-off) servers; begin() is the reuse
  /// choice.
  std::set<std::size_t> idle_;
  std::multimap<double, std::pair<std::size_t, std::size_t>> departures_;
  std::unordered_map<std::uint64_t, GroundTruth> fps_cache_;
  /// MarkViolations scratch: the current server's slot map into the
  /// memoized GroundTruth::content.
  std::vector<std::size_t> slot_of_;
  std::vector<char> violated_;
  DynamicResult result_;
  std::size_t live_servers_ = 0;
  /// (time, +1 power-on / -1 power-off) since the last tick barrier, in
  /// processing order, which is (time, delta) order.
  std::vector<std::pair<double, int>> power_log_;
  std::size_t live_sessions_ = 0;
  std::size_t peak_live_sessions_ = 0;
  double last_event_time_ = 0.0;
  std::vector<double> latencies_;
  obs::Counter& shard_placements_;

  // Per-arrival scratch (kept across arrivals to avoid reallocation).
  std::vector<Colocation> open_view_;
  std::vector<std::size_t> candidate_locals_;
  std::vector<std::size_t> scratch_;
  std::set<std::size_t> sample_;
};

/// Sorts request indices by arrival time (stable on ties).
std::vector<std::size_t> TimeOrder(std::span<const DynamicRequest> requests) {
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return requests[a].arrival_min < requests[b].arrival_min;
                   });
  return order;
}

/// Demo health subscriber: the future drift -> retrain loop will consume
/// firing alerts exactly like this. A PSI-drift alert entering `firing`
/// is acknowledged into the provenance log, so the closed-loop substrate
/// (alert -> subscriber -> event) exists end to end.
void InstallDriftAck(std::optional<obs::SubscriptionScope>& drift_ack) {
  if (obs::Enabled() && obs::HealthEngine::Global().Armed()) {
    drift_ack.emplace(
        obs::HealthEngine::Global(), [](const obs::AlertTransition& t) {
          if (t.to != obs::AlertState::kFiring ||
              t.signal != obs::SignalKind::kMonitorPsi) {
            return;
          }
          obs::JsonObject fields;
          fields["action"] = obs::JsonValue("ack_drift");
          fields["rule"] = obs::JsonValue(t.rule);
          fields["label"] = obs::JsonValue(t.label);
          fields["value"] = obs::JsonValue(t.value);
          obs::EventLog::Global().Append(obs::EventKind::kAlert, t.tick,
                                         /*decision_id=*/0,
                                         std::move(fields));
        });
  }
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

}  // namespace

DynamicResult SimulateDynamicFleet(const core::ColocationLab& lab,
                                   std::span<const DynamicRequest> requests,
                                   const PlacementPolicy& policy,
                                   const DynamicOptions& options) {
  return SimulateShardedFleet(
             lab, requests, [&](std::size_t) { return policy; },
             {.dynamic = options})
      .total;
}

ShardedFleetResult SimulateShardedFleet(
    const core::ColocationLab& lab, std::span<const DynamicRequest> requests,
    const ShardPolicyFactory& policy_factory,
    const ShardedFleetOptions& options) {
  GAUGUR_CHECK(options.dynamic.max_sessions_per_server >= 1);
  GAUGUR_CHECK(options.tick_window_min > 0.0);
  const std::size_t num_shards = std::max<std::size_t>(options.num_shards, 1);
  std::optional<obs::SubscriptionScope> drift_ack;
  InstallDriftAck(drift_ack);

  // Route arrivals round-robin over the time-sorted order: shard i % N
  // takes the i-th arrival, so every shard sees an even slice of the
  // arrival process (same rate, same time span).
  const std::vector<std::size_t> order = TimeOrder(requests);
  std::vector<std::vector<std::size_t>> shard_orders(num_shards);
  for (std::size_t i = 0; i < order.size(); ++i) {
    shard_orders[i % num_shards].push_back(order[i]);
  }
  const double last_arrival =
      order.empty() ? 0.0 : requests[order.back()].arrival_min;

  // Barrier schedule: identical on every shard, ending strictly after the
  // last arrival so the final RunWindow admits everything.
  std::vector<double> window_ends;
  for (double t = options.tick_window_min;; t += options.tick_window_min) {
    window_ends.push_back(t);
    if (t > last_arrival) break;
  }

  std::vector<long long> placements(requests.size(), -1);
  std::vector<std::unique_ptr<ShardSim>> sims;
  std::vector<PlacementPolicy> policies;
  sims.reserve(num_shards);
  policies.reserve(num_shards);
  for (std::size_t k = 0; k < num_shards; ++k) {
    sims.push_back(std::make_unique<ShardSim>(
        ShardSim::Config{.lab = &lab,
                         .requests = requests,
                         .order = std::move(shard_orders[k]),
                         .options = options.dynamic,
                         .shard = k,
                         .num_shards = num_shards,
                         .seed = options.seed,
                         .placements_out = placements.data()}));
    policies.push_back(policy_factory(k));
  }

  if (obs::Enabled()) {
    SchedMetrics::Get().shards.Add(static_cast<std::int64_t>(num_shards));
    SchedMetrics::Get().shard_backlog.Add(
        static_cast<std::int64_t>(requests.size()));
  }

  // Tick barrier: when every shard has admitted its window and gone
  // quiescent, exactly one thread samples fleet-wide concurrency and runs
  // the health + telemetry-sink tick.
  std::size_t ticks = 0;
  std::size_t peak_live = 0;
  // Exact fleet peak of powered servers: every barrier merges the shards'
  // power transitions of its window in (time, delta) order — power-offs
  // first at equal times, as DrainUpTo(now) runs them — into a running
  // sum. The drain after the last barrier only powers off.
  long long live_servers = 0;
  long long peak_servers = 0;
  std::vector<std::pair<double, int>> power_window;
  // Per-window in-window work time, one slot per shard: each shard
  // writes its own slot before arriving at the barrier, and the
  // completion step below reads + resets all slots while every shard is
  // quiescent (the barrier's completion phase orders both directions).
  std::vector<double> window_busy_us(num_shards, 0.0);
  auto on_tick = [&]() noexcept {
    const double window_end =
        window_ends[std::min(ticks, window_ends.size() - 1)];
    std::size_t live = 0;
    for (const auto& sim : sims) live += sim->LiveSessions();
    peak_live = std::max(peak_live, live);
    power_window.clear();
    for (const auto& sim : sims) sim->TakePowerLog(power_window);
    std::sort(power_window.begin(), power_window.end());
    for (const auto& [time, delta] : power_window) {
      live_servers += delta;
      peak_servers = std::max(peak_servers, live_servers);
    }
    ++ticks;
    auto& profiler = obs::LatencyProfiler::Global();
    if (profiler.Active()) {
      profiler.RecordWindow(window_busy_us);
      std::fill(window_busy_us.begin(), window_busy_us.end(), 0.0);
    }
    if (obs::Enabled()) {
      try {
        if (obs::TelemetrySink* sink = obs::TelemetrySink::Active()) {
          sink->NoteTick(window_end);
        }
        obs::HealthEngine::Global().Evaluate(window_end);
      } catch (...) {
        // A throwing health pass must not take down the barrier; the
        // run's final Evaluate will surface persistent problems.
      }
    }
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(num_shards), on_tick);

  // One dedicated worker per shard, pinned by name so every task of shard
  // k runs on worker k (the shard's state needs no locking). The pool is
  // private to this call: pinning to the global pool would deadlock the
  // barrier whenever it has fewer workers than shards.
  common::ThreadPool pool(num_shards);
  std::vector<std::exception_ptr> errors(num_shards);
  std::vector<std::future<void>> futures;
  futures.reserve(num_shards);
  for (std::size_t k = 0; k < num_shards; ++k) {
    futures.push_back(pool.SubmitNamed(
        "fleet-shard-" + std::to_string(k), [&, k] {
          auto& profiler = obs::LatencyProfiler::Global();
          for (const double window_end : window_ends) {
            const bool profiled = profiler.Active();
            if (!errors[k]) {
              try {
                const auto busy_start = profiled
                                            ? std::chrono::steady_clock::now()
                                            : std::chrono::steady_clock::
                                                  time_point{};
                sims[k]->RunWindow(policies[k], window_end);
                sims[k]->DrainUpTo(window_end);
                if (profiled) {
                  window_busy_us[k] +=
                      std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - busy_start)
                          .count();
                }
              } catch (...) {
                // Keep arriving at the barrier so no sibling deadlocks;
                // the error is rethrown on the caller's thread below.
                errors[k] = std::current_exception();
              }
            }
            if (profiled) {
              const auto wait_start = std::chrono::steady_clock::now();
              barrier.arrive_and_wait();
              profiler.RecordBarrierWait(
                  k, std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - wait_start)
                         .count());
            } else {
              barrier.arrive_and_wait();
            }
          }
          if (!errors[k]) {
            try {
              sims[k]->DrainUpTo(std::numeric_limits<double>::infinity());
            } catch (...) {
              errors[k] = std::current_exception();
            }
          }
        }));
  }
  for (auto& f : futures) f.wait();

  if (obs::Enabled()) {
    SchedMetrics::Get().shards.Sub(static_cast<std::int64_t>(num_shards));
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  ShardedFleetResult out;
  out.num_shards = num_shards;
  out.ticks = ticks;
  out.peak_concurrent_sessions = peak_live;
  out.per_shard.reserve(num_shards);
  std::vector<double> all_latencies;
  double last_event = 0.0;
  for (std::size_t k = 0; k < num_shards; ++k) {
    last_event = std::max(last_event, sims[k]->LastEventTime());
    all_latencies.insert(all_latencies.end(), sims[k]->Latencies().begin(),
                         sims[k]->Latencies().end());
    out.per_shard.push_back(sims[k]->TakeResult());
    const DynamicResult& shard = out.per_shard.back();
    out.total.server_minutes += shard.server_minutes;
    out.total.sessions += shard.sessions;
    out.total.violated_sessions += shard.violated_sessions;
    out.total.powerons += shard.powerons;
  }
  out.total.peak_servers = static_cast<std::size_t>(peak_servers);
  out.total.placements = std::move(placements);
  out.decision_latency_p50_us = Quantile(all_latencies, 0.50);
  out.decision_latency_p99_us = Quantile(all_latencies, 0.99);
  if (obs::Enabled()) {
    // One final pass after the drain.
    obs::HealthEngine::Global().Evaluate(
        std::max(last_event, window_ends.back()));
  }
  return out;
}

std::vector<DynamicRequest> GenerateDynamicTrace(
    std::span<const int> game_ids, double horizon_min,
    double arrivals_per_min, double mean_duration_min, std::uint64_t seed,
    resources::Resolution resolution) {
  GAUGUR_CHECK(!game_ids.empty());
  GAUGUR_CHECK(arrivals_per_min > 0.0 && mean_duration_min > 0.0);
  common::Rng rng(seed);
  std::vector<DynamicRequest> trace;
  double now = 0.0;
  for (;;) {
    // Exponential inter-arrival gap.
    now += -std::log(1.0 - rng.Uniform()) / arrivals_per_min;
    if (now >= horizon_min) break;
    DynamicRequest request;
    request.arrival_min = now;
    // Log-normal-ish duration: median ~ mean/1.3, heavy right tail.
    request.duration_min = std::max(
        2.0, mean_duration_min * std::exp(rng.Gaussian(-0.25, 0.7)));
    request.session = {game_ids[rng.UniformInt(game_ids.size())],
                       resolution};
    trace.push_back(request);
  }
  return trace;
}

PlacementPolicy MakeFirstFeasiblePolicy(
    std::function<bool(const core::Colocation&)> feasible) {
  return [feasible = std::move(feasible)](
             std::span<const Colocation> open_servers,
             const SessionRequest& arrival) -> int {
    for (std::size_t s = 0; s < open_servers.size(); ++s) {
      Colocation extended = open_servers[s];
      extended.push_back(arrival);
      if (feasible(extended)) return static_cast<int>(s);
    }
    return -1;
  };
}

PlacementPolicy MakeBatchFeasiblePolicy(BatchFeasibility feasible) {
  return [feasible = std::move(feasible)](
             std::span<const Colocation> open_servers,
             const SessionRequest& arrival) -> int {
    if (open_servers.empty()) return -1;
    std::vector<Colocation> candidates;
    candidates.reserve(open_servers.size());
    for (const Colocation& content : open_servers) {
      Colocation extended = content;
      extended.push_back(arrival);
      candidates.push_back(std::move(extended));
    }
    const std::vector<char> verdict = feasible(candidates);
    for (std::size_t s = 0; s < verdict.size(); ++s) {
      if (verdict[s] != 0) return static_cast<int>(s);
    }
    return -1;
  };
}

PlacementPolicy MakeDedicatedPolicy() {
  return [](std::span<const Colocation>, const SessionRequest&) -> int {
    return -1;
  };
}

DecisionDetail& PendingDecisionDetail() {
  thread_local DecisionDetail detail;
  return detail;
}

namespace {

/// Shared core of MakeProvenancePolicy / MakeReplicatedProvenanceFactory:
/// first-feasible over ScoreCandidatesDetailed, publishing per-candidate
/// provenance.
int ProvenancePlacement(const core::GAugurPredictor& predictor,
                        double qos_fps,
                        std::span<const Colocation> open_servers,
                        const SessionRequest& arrival) {
  if (open_servers.empty()) return -1;
  std::vector<Colocation> candidates;
  {
    obs::PhaseTimer phase(obs::Phase::kColocationHash);
    candidates.reserve(open_servers.size());
    for (const Colocation& content : open_servers) {
      Colocation extended = content;
      extended.push_back(arrival);
      candidates.push_back(std::move(extended));
    }
  }
  std::vector<core::CandidateScore> scores =
      predictor.ScoreCandidatesDetailed(qos_fps, candidates);
  int choice = -1;
  for (std::size_t s = 0; s < scores.size(); ++s) {
    if (scores[s].feasible) {
      choice = static_cast<int>(s);
      break;
    }
  }
  // The shard cleared the detail before calling the policy.
  if (obs::Enabled()) {
    DecisionDetail& detail = PendingDecisionDetail();
    detail.has_detail = true;
    detail.candidates = std::move(scores);
  }
  return choice;
}

}  // namespace

PlacementPolicy MakeProvenancePolicy(const core::GAugurPredictor& predictor,
                                     double qos_fps) {
  return [&predictor, qos_fps](std::span<const Colocation> open_servers,
                               const SessionRequest& arrival) -> int {
    return ProvenancePlacement(predictor, qos_fps, open_servers, arrival);
  };
}

ShardPolicyFactory MakeReplicatedProvenanceFactory(
    const core::GAugurPredictor& predictor, double qos_fps) {
  return [&predictor, qos_fps](std::size_t) -> PlacementPolicy {
    // Each shard's policy owns its replica (shared models, shared striped
    // cache); the shared_ptr keeps it alive inside the copyable lambda.
    auto replica =
        std::make_shared<core::GAugurPredictor>(predictor.MakeReplica());
    return [replica = std::move(replica), qos_fps](
               std::span<const Colocation> open_servers,
               const SessionRequest& arrival) -> int {
      return ProvenancePlacement(*replica, qos_fps, open_servers, arrival);
    };
  };
}

}  // namespace gaugur::sched
