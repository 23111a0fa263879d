// Fleet health engine: rule-driven SLO alerting over the live telemetry.
//
// The passive layers (metrics registry, model monitor, fleet time series,
// streaming sinks) record what happened; nothing watched them until now.
// HealthEngine evaluates a set of AlertRules on the simulation-tick
// cadence (the fleet simulator calls Evaluate(tick) at every tick barrier
// and once after the final drain, behind GAUGUR_OBS_ENABLED) against
// four live sources:
//
//   * Registry counters / gauges (levels, and windowed counter ratios
//     such as cache hit rate),
//   * ModelMonitor (per-feature PSI drift),
//   * FleetTimeSeries latest per-server samples (min realized FPS vs the
//     QoS floor — the per-server deficit signal),
//   * sink health (obs.sink.dropped / obs.sink.write_errors, which are
//     ordinary registry counters).
//
// Conditions come in two kinds:
//
//   * threshold   — compare the signal's current value (for counter
//     ratios: the windowed fraction over `window_ticks`),
//   * burn_rate   — classic multi-window SLO burn: with error budget
//     b = 1 - slo, the rule is true when the bad fraction over BOTH the
//     fast and the slow window exceeds `burn_threshold * b`. The fast
//     window catches the spike, the slow window keeps one-tick blips
//     from paging anyone.
//
// Labeled signals (per-server FPS, per-feature PSI) fan out into one
// lifecycle state machine per label:
//
//   inactive -> pending (condition true) -> firing (true for `for_ticks`
//   consecutive evaluations) -> resolved (false for `resolve_ticks`) ->
//   inactive (false for another `resolve_ticks`)
//
// Every emitted transition appends a structured `alert` event to the
// EventLog (so it streams through TelemetrySink like any other event),
// bumps the obs.health.* metrics, and fans out to Subscribe() callbacks
// in subscription order — the hook the future drift -> retrain loop
// consumes. An instance that re-fires more than `max_flaps` times within
// `flap_window_ticks` is flap-suppressed: its state machine keeps
// stepping, but transitions are tallied in obs.health.flaps_suppressed
// instead of being emitted, until it settles back to inactive and the
// flap window drains. Emitted alert events therefore reconcile 1:1 with
// the obs.health.* counters (pinned in tests/pipeline).
//
// The engine state serializes as the `health` section of the
// gaugur.obs.run_report/v5 schema. Nothing parses it back: the section
// is written for people and for the CI report checks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/json.h"

namespace gaugur::obs {

class Registry;
class ModelMonitor;
class FleetTimeSeries;
struct ModelMonitorSummary;

// ---------------------------------------------------------------------------
// Rule grammar

enum class AlertState : std::uint8_t {
  kInactive = 0,
  kPending,
  kFiring,
  kResolved,
};

const char* AlertStateName(AlertState state);

enum class SignalKind : std::uint8_t {
  /// Registry counter level (monotonic; threshold on "ever happened"
  /// signals like obs.sink.write_errors).
  kCounter = 0,
  /// Registry gauge level (queue depth, live servers, ...).
  kGauge,
  /// Windowed ratio of two counters: delta(name) / delta(denominator)
  /// over the condition's window. `denominator` may sum several counters
  /// with '+' ("cache_hits+cache_misses"). This is the bad-fraction
  /// signal burn_rate rules consume.
  kCounterRatio,
  /// Labeled: per-feature PSI of both models; labels are
  /// "cm:<feature>" / "rm:<feature>".
  kMonitorPsi,
  /// Labeled: per-server minimum realized FPS from the latest
  /// FleetTimeSeries sample; labels are the decimal server id. Servers
  /// whose latest sample has no occupied slots drop out of the label set
  /// (a drained server carries no deficit).
  kServerMinFps,
};

const char* SignalKindName(SignalKind kind);

enum class ConditionKind : std::uint8_t {
  kThreshold = 0,
  kBurnRate,
};

const char* ConditionKindName(ConditionKind kind);

enum class Comparison : std::uint8_t { kAbove = 0, kBelow };

const char* ComparisonName(Comparison cmp);

struct SignalSpec {
  SignalKind kind = SignalKind::kCounter;
  /// Metric name (unused for kMonitorPsi, kServerMinFps).
  std::string name;
  /// kCounterRatio only: denominator counter(s), '+'-joined.
  std::string denominator;

  JsonValue ToJson() const;
};

struct AlertRule {
  std::string name;
  std::string severity = "warning";  // "info" | "warning" | "critical"
  SignalSpec signal;
  ConditionKind condition = ConditionKind::kThreshold;
  /// Direction for threshold (burn_rate is always "too much burn").
  Comparison comparison = Comparison::kAbove;
  double threshold = 0.0;
  /// Sliding window (sim ticks) for the windowed fraction of
  /// kCounterRatio threshold rules.
  double window_ticks = 30.0;
  /// burn_rate only: the fast/slow window pair.
  double fast_window_ticks = 10.0;
  double slow_window_ticks = 60.0;
  /// burn_rate only: objective on the good fraction; error budget is
  /// 1 - slo.
  double slo = 0.99;
  /// burn_rate only: fires when bad_fraction > burn_threshold * budget
  /// in both windows.
  double burn_threshold = 1.0;
  /// Consecutive true evaluations before pending becomes firing
  /// (<= 1 fires immediately).
  int for_ticks = 2;
  /// Consecutive false evaluations before firing resolves (and again
  /// before resolved returns to inactive).
  int resolve_ticks = 2;
  /// Flap suppression: more than this many firings within
  /// `flap_window_ticks` mutes the instance's emissions.
  int max_flaps = 3;
  double flap_window_ticks = 120.0;

  JsonValue ToJson() const;
};

// ---------------------------------------------------------------------------
// Transitions & summaries

/// One emitted lifecycle transition, as delivered to subscribers and
/// mirrored into the EventLog as an `alert` event.
struct AlertTransition {
  /// Engine-wide monotonic emission id (subscribers can assert total
  /// order on it).
  std::uint64_t id = 0;
  double tick = 0.0;
  std::string rule;
  std::string label;  // "" for scalar signals
  std::string severity;
  SignalKind signal = SignalKind::kCounter;
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  /// Signal value at the transition and the rule threshold (for
  /// burn_rate: the fast-window burn multiple and `burn_threshold`).
  double value = 0.0;
  double threshold = 0.0;

  friend bool operator==(const AlertTransition&,
                         const AlertTransition&) = default;
};

/// Serialized state of one labeled state machine (health report section).
struct AlertInstanceStatus {
  std::string label;
  AlertState state = AlertState::kInactive;
  double last_value = 0.0;
  double last_eval_tick = 0.0;
  /// Tick of the last emitted or suppressed transition (-1 = never).
  double last_change_tick = -1.0;
  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
  std::uint64_t suppressed = 0;
  bool flap_suppressed = false;
  /// Mean / max of every value this instance evaluated (common::RunningStats).
  double value_mean = 0.0;
  double value_max = 0.0;

  JsonValue ToJson() const;
};

struct AlertRuleStatus {
  AlertRule rule;
  std::uint64_t evaluations = 0;
  std::vector<AlertInstanceStatus> instances;  // sorted by label

  JsonValue ToJson() const;
};

/// The `health` section of gaugur.obs.run_report/v5.
struct HealthSummary {
  std::uint64_t evaluations = 0;       // Evaluate() passes that ran
  std::uint64_t transitions = 0;       // emitted transitions (all kinds)
  std::uint64_t alerts_fired = 0;      // emitted to=firing
  std::uint64_t alerts_resolved = 0;   // emitted to=resolved
  std::uint64_t flaps_suppressed = 0;  // muted transitions
  std::uint64_t firing = 0;            // instances currently firing (emitted)
  std::vector<AlertRuleStatus> rules;

  bool Empty() const { return rules.empty(); }

  JsonValue ToJson() const;
};

// ---------------------------------------------------------------------------
// Engine

/// The monitor-sourced signal (monitor_psi) reads
/// ModelMonitor::Summary() — a full rolling-window + per-feature PSI
/// scan, far too heavy for every tick — and model quality / drift are
/// slow-moving aggregates anyway. Monitor rules therefore evaluate only
/// on passes at least this many ticks after the previous monitor refresh
/// (the first pass always refreshes); between refreshes they are skipped
/// entirely, so a monitor rule's for_ticks / resolve_ticks hysteresis
/// counts refresh passes. All other signal kinds evaluate every pass.
inline constexpr double kMonitorRefreshTicks = 10.0;

struct HealthEngineConfig {
  /// Source / destination injection for tests; null means the process
  /// globals. `registry` serves both signal reads and the obs.health.*
  /// metrics the engine writes.
  Registry* registry = nullptr;
  ModelMonitor* monitor = nullptr;
  FleetTimeSeries* timeseries = nullptr;
  EventLog* event_log = nullptr;
};

class HealthEngine {
 public:
  explicit HealthEngine(HealthEngineConfig config = {});
  ~HealthEngine();

  /// Process-wide instance the fleet simulator evaluates.
  static HealthEngine& Global();

  /// Replaces the configuration and drops all rules, instance state,
  /// tallies, and subscribers.
  void Configure(HealthEngineConfig config);
  /// Drops rules, instance state, tallies, and subscribers (config kept).
  void Reset();

  void AddRule(AlertRule rule);

  /// Installs the default rule pack against the stock metric names:
  /// fleet QoS-violation burn rate, sustained per-server FPS deficit
  /// (vs `qos_fps`), PSI drift, prediction-cache hit-rate collapse,
  /// sink drops / write errors, and thread-pool queue backlog.
  void InstallDefaultRules(double qos_fps = 60.0);

  /// True when at least one rule is installed.
  bool Armed() const;
  std::vector<AlertRule> Rules() const;

  /// Called on every emitted transition, in subscription order, from
  /// inside Evaluate(). Callbacks may append events / bump metrics but
  /// must not call back into this engine.
  using Subscriber = std::function<void(const AlertTransition&)>;
  std::uint64_t Subscribe(Subscriber fn);
  void Unsubscribe(std::uint64_t id);

  /// Runs one evaluation pass at sim tick `tick`. No-op while
  /// obs::Enabled() is false or no rules are installed.
  void Evaluate(double tick);

  HealthSummary Summary() const;

 private:
  struct Instance;
  struct RuleState;
  struct Sample;

  /// `monitor` is the pass-shared ModelMonitorSummary, or null on passes
  /// that skip the monitor refresh (monitor-sourced rules then no-op).
  void EvaluateRuleLocked(RuleState& rs, double tick,
                          const ModelMonitorSummary* monitor);
  void StepInstanceLocked(RuleState& rs, Instance& inst,
                          const std::string& label, double tick,
                          bool condition_true, double value);
  void EmitLocked(RuleState& rs, Instance& inst, const std::string& label,
                  double tick, AlertState from, AlertState to, double value);
  void ResetLocked();
  Registry& Reg() const;
  EventLog& Log() const;

  HealthEngineConfig config_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<RuleState>> rules_;
  std::vector<std::pair<std::uint64_t, Subscriber>> subscribers_;
  std::uint64_t next_subscriber_id_ = 0;
  std::uint64_t next_transition_id_ = 0;
  bool monitor_refreshed_once_ = false;
  double monitor_last_refresh_tick_ = 0.0;

  // Whole-run tallies (mirrored as obs.health.* metrics).
  std::uint64_t evaluations_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t alerts_fired_ = 0;
  std::uint64_t alerts_resolved_ = 0;
  std::uint64_t flaps_suppressed_ = 0;
  std::int64_t firing_ = 0;
};

/// RAII subscription on an engine (the fleet simulator's demo drift-ack
/// subscriber uses this; unsubscribes on scope exit).
class SubscriptionScope {
 public:
  SubscriptionScope(HealthEngine& engine, HealthEngine::Subscriber fn)
      : engine_(&engine), id_(engine.Subscribe(std::move(fn))) {}
  ~SubscriptionScope() { engine_->Unsubscribe(id_); }
  SubscriptionScope(const SubscriptionScope&) = delete;
  SubscriptionScope& operator=(const SubscriptionScope&) = delete;

 private:
  HealthEngine* engine_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Offline alert-timeline analysis (trace_explorer + tests)

/// One [fired, resolved] episode of a rule instance, reconstructed from
/// `alert` events. An episode still firing at the end of the log has
/// `resolved == false` and `resolved_tick` = the last event tick seen.
struct FiringWindow {
  std::string rule;
  std::string label;
  std::string severity;
  /// Parsed from the label when the signal is server_min_fps; -1 else.
  long long server = -1;
  std::uint64_t fired_seq = 0;
  std::uint64_t resolved_seq = 0;  // 0 while unresolved
  double fired_tick = 0.0;
  double resolved_tick = 0.0;
  bool resolved = false;
  /// Signal value at the firing transition and the rule threshold.
  double value = 0.0;
  double threshold = 0.0;

  friend bool operator==(const FiringWindow&, const FiringWindow&) = default;
};

/// Scans events (any order) for alert transitions and reconstructs the
/// firing episodes, ordered by fired_seq.
std::vector<FiringWindow> ExtractFiringWindows(std::span<const Event> events);

/// qos_violation events overlapping one firing window, with the decision
/// ids they trace back to (deduplicated, ascending). A window with a
/// server label only matches violations on that server.
struct FiringWindowJoin {
  std::vector<std::uint64_t> violation_seqs;
  std::vector<std::uint64_t> decision_ids;
};
FiringWindowJoin JoinFiringWindow(const FiringWindow& window,
                                  std::span<const Event> events);

}  // namespace gaugur::obs
