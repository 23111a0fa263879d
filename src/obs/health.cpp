#include "obs/health.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/switch.h"
#include "obs/timeseries.h"

namespace gaugur::obs {

namespace {

constexpr const char* kStateNames[] = {"inactive", "pending", "firing",
                                       "resolved"};
constexpr const char* kSignalNames[] = {"counter", "gauge", "counter_ratio",
                                        "monitor_psi", "server_min_fps"};
constexpr const char* kConditionNames[] = {"threshold", "burn_rate"};
constexpr const char* kComparisonNames[] = {"above", "below"};

}  // namespace

const char* AlertStateName(AlertState state) {
  const auto index = static_cast<std::size_t>(state);
  GAUGUR_CHECK_MSG(index < std::size(kStateNames), "unknown AlertState");
  return kStateNames[index];
}

const char* SignalKindName(SignalKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  GAUGUR_CHECK_MSG(index < std::size(kSignalNames), "unknown SignalKind");
  return kSignalNames[index];
}

const char* ConditionKindName(ConditionKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  GAUGUR_CHECK_MSG(index < std::size(kConditionNames),
                   "unknown ConditionKind");
  return kConditionNames[index];
}

const char* ComparisonName(Comparison cmp) {
  const auto index = static_cast<std::size_t>(cmp);
  GAUGUR_CHECK_MSG(index < std::size(kComparisonNames), "unknown Comparison");
  return kComparisonNames[index];
}

// ---------------------------------------------------------------------------
// JSON writers

JsonValue SignalSpec::ToJson() const {
  JsonObject object;
  object["kind"] = SignalKindName(kind);
  object["name"] = name;
  object["denominator"] = denominator;
  return JsonValue(std::move(object));
}

JsonValue AlertRule::ToJson() const {
  JsonObject object;
  object["name"] = name;
  object["severity"] = severity;
  object["signal"] = signal.ToJson();
  object["condition"] = ConditionKindName(condition);
  object["comparison"] = ComparisonName(comparison);
  object["threshold"] = threshold;
  object["window_ticks"] = window_ticks;
  object["fast_window_ticks"] = fast_window_ticks;
  object["slow_window_ticks"] = slow_window_ticks;
  object["slo"] = slo;
  object["burn_threshold"] = burn_threshold;
  object["for_ticks"] = static_cast<long long>(for_ticks);
  object["resolve_ticks"] = static_cast<long long>(resolve_ticks);
  object["max_flaps"] = static_cast<long long>(max_flaps);
  object["flap_window_ticks"] = flap_window_ticks;
  return JsonValue(std::move(object));
}

JsonValue AlertInstanceStatus::ToJson() const {
  JsonObject object;
  object["label"] = label;
  object["state"] = AlertStateName(state);
  object["last_value"] = last_value;
  object["last_eval_tick"] = last_eval_tick;
  object["last_change_tick"] = last_change_tick;
  object["fired"] = static_cast<unsigned long long>(fired);
  object["resolved"] = static_cast<unsigned long long>(resolved);
  object["suppressed"] = static_cast<unsigned long long>(suppressed);
  object["flap_suppressed"] = flap_suppressed;
  object["value_mean"] = value_mean;
  object["value_max"] = value_max;
  return JsonValue(std::move(object));
}

JsonValue AlertRuleStatus::ToJson() const {
  JsonObject object;
  object["rule"] = rule.ToJson();
  object["evaluations"] = static_cast<unsigned long long>(evaluations);
  JsonArray array;
  array.reserve(instances.size());
  for (const AlertInstanceStatus& instance : instances) {
    array.push_back(instance.ToJson());
  }
  object["instances"] = JsonValue(std::move(array));
  return JsonValue(std::move(object));
}

JsonValue HealthSummary::ToJson() const {
  JsonObject object;
  object["evaluations"] = static_cast<unsigned long long>(evaluations);
  object["transitions"] = static_cast<unsigned long long>(transitions);
  object["alerts_fired"] = static_cast<unsigned long long>(alerts_fired);
  object["alerts_resolved"] = static_cast<unsigned long long>(alerts_resolved);
  object["flaps_suppressed"] =
      static_cast<unsigned long long>(flaps_suppressed);
  object["firing"] = static_cast<unsigned long long>(firing);
  JsonArray array;
  array.reserve(rules.size());
  for (const AlertRuleStatus& rule : rules) array.push_back(rule.ToJson());
  object["rules"] = JsonValue(std::move(array));
  return JsonValue(std::move(object));
}

// ---------------------------------------------------------------------------
// Engine internals

/// One windowed observation of a signal: the tick plus the numerator /
/// denominator levels (denominator fixed at 1 for plain signals).
struct HealthEngine::Sample {
  double tick = 0.0;
  double num = 0.0;
  double den = 1.0;
};

/// One labeled lifecycle state machine plus, when its rule reads one
/// (ReadsRing), a sliding sample ring.
struct HealthEngine::Instance {
  AlertState state = AlertState::kInactive;
  std::deque<Sample> ring;
  int true_streak = 0;
  int false_streak = 0;
  double last_value = 0.0;
  double last_eval_tick = 0.0;
  double last_change_tick = -1.0;
  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
  std::uint64_t suppressed = 0;
  /// Recent emitted-or-suppressed firing ticks (flap detection window).
  std::deque<double> fire_ticks;
  /// While set, every transition of this instance is muted. Engages on a
  /// firing entry that exceeds max_flaps, clears once the instance is
  /// back to inactive and the flap window has drained — so an emitted
  /// firing is never followed by a muted resolve, and vice versa.
  bool flap_suppressed = false;
  /// The last firing entry was emitted (drives the obs.health.firing
  /// gauge balance).
  bool fire_emitted = false;
  /// Scratch: label appeared in this evaluation's sample set.
  bool seen = false;
  common::RunningStats values;
};

struct HealthEngine::RuleState {
  AlertRule rule;
  std::uint64_t evaluations = 0;
  std::map<std::string, Instance> instances;
};

namespace {

/// Whether a rule's condition reads its instances' sample rings: a
/// windowed counter-ratio threshold or a burn rate. Every other
/// threshold compares the latest observation alone.
bool ReadsRing(const AlertRule& rule) {
  return rule.condition == ConditionKind::kBurnRate ||
         rule.signal.kind == SignalKind::kCounterRatio;
}

/// Longest lookback a rule's condition needs from its sample ring.
double RingHorizon(const AlertRule& rule) {
  return rule.condition == ConditionKind::kBurnRate
             ? std::max(rule.fast_window_ticks, rule.slow_window_ticks)
             : rule.window_ticks;
}

/// Bad fraction delta(num)/delta(den) from the newest sample with tick <=
/// cutoff (the oldest sample when none is that old) to the ring's newest
/// sample; false when the denominator did not advance. (Templated so the
/// file-local helpers never have to name the private HealthEngine::Sample
/// type.)
template <typename Ring>
bool WindowFraction(const Ring& ring, double cutoff, double* out) {
  const auto* from = &ring.front();
  for (const auto& sample : ring) {
    if (sample.tick > cutoff) break;
    from = &sample;
  }
  const auto& now = ring.back();
  const double den = now.den - from->den;
  if (den <= 0.0) return false;
  *out = (now.num - from->num) / den;
  return true;
}

bool Compare(Comparison cmp, double value, double threshold) {
  return cmp == Comparison::kAbove ? value > threshold : value < threshold;
}

}  // namespace

HealthEngine::HealthEngine(HealthEngineConfig config) { Configure(config); }

HealthEngine::~HealthEngine() = default;

HealthEngine& HealthEngine::Global() {
  static HealthEngine* engine = new HealthEngine();
  return *engine;
}

void HealthEngine::Configure(HealthEngineConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  ResetLocked();
}

void HealthEngine::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ResetLocked();
}

void HealthEngine::ResetLocked() {
  rules_.clear();
  subscribers_.clear();
  monitor_refreshed_once_ = false;
  monitor_last_refresh_tick_ = 0.0;
  evaluations_ = transitions_ = alerts_fired_ = alerts_resolved_ =
      flaps_suppressed_ = 0;
  firing_ = 0;
}

Registry& HealthEngine::Reg() const {
  return config_.registry != nullptr ? *config_.registry : Registry::Global();
}

EventLog& HealthEngine::Log() const {
  return config_.event_log != nullptr ? *config_.event_log
                                      : EventLog::Global();
}

void HealthEngine::AddRule(AlertRule rule) {
  GAUGUR_CHECK_MSG(!rule.name.empty(), "alert rule needs a name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto state = std::make_unique<RuleState>();
  state->rule = std::move(rule);
  rules_.push_back(std::move(state));
}

void HealthEngine::InstallDefaultRules(double qos_fps) {
  {
    // Fleet-level SLO: fraction of placements that realize a QoS
    // violation, multi-window so a single bad tick does not page.
    AlertRule rule;
    rule.name = "fleet_qos_burn";
    rule.severity = "critical";
    rule.signal.kind = SignalKind::kCounterRatio;
    rule.signal.name = "model_monitor.qos_violations_observed";
    rule.signal.denominator = "sched.placements";
    rule.condition = ConditionKind::kBurnRate;
    rule.slo = 0.95;
    rule.burn_threshold = 1.0;
    rule.fast_window_ticks = 15.0;
    rule.slow_window_ticks = 60.0;
    rule.for_ticks = 2;
    rule.resolve_ticks = 3;
    AddRule(std::move(rule));
  }
  {
    AlertRule rule;
    rule.name = "server_fps_deficit";
    rule.severity = "warning";
    rule.signal.kind = SignalKind::kServerMinFps;
    rule.condition = ConditionKind::kThreshold;
    rule.comparison = Comparison::kBelow;
    rule.threshold = qos_fps;
    rule.for_ticks = 3;
    rule.resolve_ticks = 3;
    AddRule(std::move(rule));
  }
  {
    AlertRule rule;
    rule.name = "psi_drift";
    rule.severity = "warning";
    rule.signal.kind = SignalKind::kMonitorPsi;
    rule.condition = ConditionKind::kThreshold;
    rule.threshold = kPsiAlertThreshold;
    rule.for_ticks = 2;
    AddRule(std::move(rule));
  }
  {
    AlertRule rule;
    rule.name = "cache_hit_collapse";
    rule.severity = "warning";
    rule.signal.kind = SignalKind::kCounterRatio;
    rule.signal.name = "gaugur.predictor.cache_misses";
    rule.signal.denominator =
        "gaugur.predictor.cache_hits+gaugur.predictor.cache_misses";
    rule.condition = ConditionKind::kThreshold;
    rule.threshold = 0.9;
    rule.window_ticks = 30.0;
    rule.for_ticks = 2;
    AddRule(std::move(rule));
  }
  {
    AlertRule rule;
    rule.name = "sink_drops";
    rule.severity = "critical";
    rule.signal.kind = SignalKind::kCounter;
    rule.signal.name = "obs.sink.dropped";
    rule.condition = ConditionKind::kThreshold;
    rule.threshold = 0.0;
    rule.for_ticks = 1;
    AddRule(std::move(rule));
  }
  {
    AlertRule rule;
    rule.name = "sink_write_errors";
    rule.severity = "critical";
    rule.signal.kind = SignalKind::kCounter;
    rule.signal.name = "obs.sink.write_errors";
    rule.condition = ConditionKind::kThreshold;
    rule.threshold = 0.0;
    rule.for_ticks = 1;
    AddRule(std::move(rule));
  }
  {
    AlertRule rule;
    rule.name = "pool_queue_backlog";
    rule.severity = "warning";
    rule.signal.kind = SignalKind::kGauge;
    rule.signal.name = "pool.queue_depth";
    rule.condition = ConditionKind::kThreshold;
    rule.threshold = 512.0;
    rule.for_ticks = 2;
    AddRule(std::move(rule));
  }
  {
    // Sharded fleet service: arrivals enqueued for shard workers but not
    // yet admitted. The gauge drains to zero within a run; a large level
    // sustained across tick barriers means shards have stalled (stuck
    // worker, pathological policy) while players wait for admission.
    AlertRule rule;
    rule.name = "fleet_shard_backlog";
    rule.severity = "warning";
    rule.signal.kind = SignalKind::kGauge;
    rule.signal.name = "sched.shard_backlog";
    rule.condition = ConditionKind::kThreshold;
    rule.threshold = 100000.0;
    rule.for_ticks = 3;
    rule.resolve_ticks = 2;
    AddRule(std::move(rule));
  }
}

bool HealthEngine::Armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !rules_.empty();
}

std::vector<AlertRule> HealthEngine::Rules() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertRule> rules;
  rules.reserve(rules_.size());
  for (const auto& state : rules_) rules.push_back(state->rule);
  return rules;
}

std::uint64_t HealthEngine::Subscribe(Subscriber fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = ++next_subscriber_id_;
  subscribers_.emplace_back(id, std::move(fn));
  return id;
}

void HealthEngine::Unsubscribe(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(subscribers_, [id](const auto& entry) {
    return entry.first == id;
  });
}

void HealthEngine::EmitLocked(RuleState& rs, Instance& inst,
                              const std::string& label, double tick,
                              AlertState from, AlertState to, double value) {
  inst.last_change_tick = tick;
  const bool entering_firing = to == AlertState::kFiring;
  if (entering_firing) {
    // Flap detection counts every firing entry, muted or not.
    inst.fire_ticks.push_back(tick);
    while (!inst.fire_ticks.empty() &&
           inst.fire_ticks.front() < tick - rs.rule.flap_window_ticks) {
      inst.fire_ticks.pop_front();
    }
    if (!inst.flap_suppressed &&
        inst.fire_ticks.size() > static_cast<std::size_t>(rs.rule.max_flaps)) {
      inst.flap_suppressed = true;
    }
  }
  if (inst.flap_suppressed) {
    ++inst.suppressed;
    ++flaps_suppressed_;
    Reg().GetCounter("obs.health.flaps_suppressed").Add();
    if (from == AlertState::kFiring && inst.fire_emitted) {
      // Defensive: cannot happen (suppression only engages at a firing
      // entry), but never leave the gauge unbalanced.
      inst.fire_emitted = false;
      --firing_;
      Reg().GetGauge("obs.health.firing").Sub();
    }
    return;
  }

  AlertTransition transition;
  transition.id = ++next_transition_id_;
  transition.tick = tick;
  transition.rule = rs.rule.name;
  transition.label = label;
  transition.severity = rs.rule.severity;
  transition.signal = rs.rule.signal.kind;
  transition.from = from;
  transition.to = to;
  transition.value = value;
  transition.threshold = rs.rule.condition == ConditionKind::kBurnRate
                             ? rs.rule.burn_threshold
                             : rs.rule.threshold;

  ++transitions_;
  Reg().GetCounter("obs.health.transitions").Add();
  if (entering_firing) {
    ++inst.fired;
    ++alerts_fired_;
    ++firing_;
    inst.fire_emitted = true;
    Reg().GetCounter("obs.health.alerts_fired").Add();
    Reg().GetGauge("obs.health.firing").Add();
  }
  if (from == AlertState::kFiring && !entering_firing && inst.fire_emitted) {
    inst.fire_emitted = false;
    --firing_;
    Reg().GetGauge("obs.health.firing").Sub();
  }
  if (to == AlertState::kResolved) {
    ++inst.resolved;
    ++alerts_resolved_;
    Reg().GetCounter("obs.health.alerts_resolved").Add();
  }

  JsonObject fields;
  fields["rule"] = transition.rule;
  fields["label"] = transition.label;
  fields["severity"] = transition.severity;
  fields["signal"] = SignalKindName(transition.signal);
  fields["from"] = AlertStateName(transition.from);
  fields["to"] = AlertStateName(transition.to);
  fields["value"] = transition.value;
  fields["threshold"] = transition.threshold;
  fields["transition"] = static_cast<unsigned long long>(transition.id);
  Log().Append(EventKind::kAlert, tick, /*decision_id=*/0, std::move(fields));

  for (const auto& [id, fn] : subscribers_) {
    if (fn) fn(transition);
  }
}

void HealthEngine::StepInstanceLocked(RuleState& rs, Instance& inst,
                                      const std::string& label, double tick,
                                      bool condition_true, double value) {
  inst.last_value = value;
  inst.last_eval_tick = tick;
  inst.values.Add(value);

  const AlertState from = inst.state;
  AlertState to = from;
  if (condition_true) {
    inst.false_streak = 0;
    ++inst.true_streak;
    switch (from) {
      case AlertState::kInactive:
      case AlertState::kResolved:
        to = inst.true_streak >= rs.rule.for_ticks ? AlertState::kFiring
                                                   : AlertState::kPending;
        break;
      case AlertState::kPending:
        if (inst.true_streak >= rs.rule.for_ticks) to = AlertState::kFiring;
        break;
      case AlertState::kFiring:
        break;
    }
  } else {
    inst.true_streak = 0;
    ++inst.false_streak;
    switch (from) {
      case AlertState::kInactive:
        break;
      case AlertState::kPending:
        to = AlertState::kInactive;
        break;
      case AlertState::kFiring:
        if (inst.false_streak >= rs.rule.resolve_ticks) {
          to = AlertState::kResolved;
        }
        break;
      case AlertState::kResolved:
        // resolve_ticks more quiet evaluations and the episode closes.
        if (inst.false_streak >= 2 * rs.rule.resolve_ticks) {
          to = AlertState::kInactive;
        }
        break;
    }
  }

  if (to != from) {
    inst.state = to;
    if (to == AlertState::kFiring) inst.true_streak = 0;
    if (to == AlertState::kResolved) {
      // Keep counting quiet evals toward the resolved->inactive cooldown.
    } else if (to == AlertState::kInactive) {
      inst.false_streak = 0;
    }
    EmitLocked(rs, inst, label, tick, from, to, value);
  }

  // A settled instance with a drained flap window may speak again.
  if (inst.flap_suppressed && inst.state == AlertState::kInactive &&
      (inst.fire_ticks.empty() ||
       inst.fire_ticks.back() < tick - rs.rule.flap_window_ticks)) {
    inst.flap_suppressed = false;
    inst.fire_ticks.clear();
  }
}

void HealthEngine::EvaluateRuleLocked(RuleState& rs, double tick,
                                      const ModelMonitorSummary* monitor) {
  const AlertRule& rule = rs.rule;
  // Monitor-sourced rules only evaluate on monitor-refresh passes; in
  // between they are skipped outright (no evaluation, no false-step).
  if (rule.signal.kind == SignalKind::kMonitorPsi && monitor == nullptr) {
    return;
  }
  ++rs.evaluations;

  // 1. Sample the signal into (label, num, den) observations.
  struct Observation {
    std::string label;
    double num = 0.0;
    double den = 1.0;
  };
  std::vector<Observation> observations;
  switch (rule.signal.kind) {
    case SignalKind::kCounter:
      observations.push_back(
          {"", static_cast<double>(Reg().GetCounter(rule.signal.name).Value()),
           1.0});
      break;
    case SignalKind::kGauge:
      observations.push_back(
          {"", static_cast<double>(Reg().GetGauge(rule.signal.name).Value()),
           1.0});
      break;
    case SignalKind::kCounterRatio: {
      double den = 0.0;
      std::string_view rest = rule.signal.denominator;
      while (!rest.empty()) {
        const std::size_t plus = rest.find('+');
        const std::string_view part = rest.substr(0, plus);
        if (!part.empty()) {
          den += static_cast<double>(
              Reg().GetCounter(std::string(part)).Value());
        }
        rest = plus == std::string_view::npos ? std::string_view{}
                                              : rest.substr(plus + 1);
      }
      observations.push_back(
          {"", static_cast<double>(Reg().GetCounter(rule.signal.name).Value()),
           den});
      break;
    }
    case SignalKind::kMonitorPsi: {
      for (const PsiEntry& entry : monitor->cm_drift.features) {
        observations.push_back({"cm:" + entry.feature, entry.psi, 1.0});
      }
      for (const PsiEntry& entry : monitor->rm_drift.features) {
        observations.push_back({"rm:" + entry.feature, entry.psi, 1.0});
      }
      break;
    }
    case SignalKind::kServerMinFps: {
      FleetTimeSeries& series = config_.timeseries != nullptr
                                    ? *config_.timeseries
                                    : FleetTimeSeries::Global();
      for (const auto& [server, min_fps] : series.LatestMinFps()) {
        observations.push_back({std::to_string(server), min_fps, 1.0});
      }
      break;
    }
  }

  // 2. Feed each observation into its labeled instance and evaluate the
  //    condition, over the instance's sliding ring where it reads one.
  for (auto& [label, inst] : rs.instances) inst.seen = false;
  const bool reads_ring = ReadsRing(rule);
  const double horizon = RingHorizon(rule);
  for (Observation& obs : observations) {
    Instance& inst = rs.instances[obs.label];
    inst.seen = true;
    if (reads_ring) {
      inst.ring.push_back({tick, obs.num, obs.den});
      // Keep one sample at or beyond the horizon so "value at t - w"
      // always has a witness.
      while (inst.ring.size() >= 2 && inst.ring[1].tick <= tick - horizon) {
        inst.ring.pop_front();
      }
    }

    bool condition_true = false;
    double value = 0.0;
    switch (rule.condition) {
      case ConditionKind::kThreshold:
        if (rule.signal.kind == SignalKind::kCounterRatio) {
          condition_true =
              WindowFraction(inst.ring, tick - rule.window_ticks, &value) &&
              Compare(rule.comparison, value, rule.threshold);
        } else {
          value = obs.num;
          condition_true = Compare(rule.comparison, value, rule.threshold);
        }
        break;
      case ConditionKind::kBurnRate: {
        // burn_w = bad_fraction_w / error_budget; fires only when both
        // the fast and the slow window burn past the threshold.
        const double budget = std::max(1.0 - rule.slo, 1e-9);
        double frac_fast = 0.0, frac_slow = 0.0;
        const bool have_fast = WindowFraction(
            inst.ring, tick - rule.fast_window_ticks, &frac_fast);
        const bool have_slow = WindowFraction(
            inst.ring, tick - rule.slow_window_ticks, &frac_slow);
        value = have_fast ? frac_fast / budget : 0.0;
        condition_true = have_fast && have_slow &&
                         frac_fast / budget > rule.burn_threshold &&
                         frac_slow / budget > rule.burn_threshold;
        break;
      }
    }
    StepInstanceLocked(rs, inst, obs.label, tick, condition_true, value);
  }

  // 3. Labels that vanished from the sample set (a drained server, a
  //    reference swap) step with a false condition so they resolve
  //    instead of firing forever on stale data.
  for (auto& [label, inst] : rs.instances) {
    if (inst.seen || inst.state == AlertState::kInactive) continue;
    StepInstanceLocked(rs, inst, label, tick, /*condition_true=*/false,
                       inst.last_value);
  }
}

void HealthEngine::Evaluate(double tick) {
  if (!Enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (rules_.empty()) return;
  ++evaluations_;
  Reg().GetCounter("obs.health.evaluations").Add();

  // One summary scan shared by every monitor-sourced rule, refreshed on
  // its own cadence (see kMonitorRefreshTicks).
  const bool want_monitor =
      std::any_of(rules_.begin(), rules_.end(), [](const auto& state) {
        return state->rule.signal.kind == SignalKind::kMonitorPsi;
      });
  ModelMonitorSummary monitor_summary;
  const ModelMonitorSummary* monitor = nullptr;
  if (want_monitor &&
      (!monitor_refreshed_once_ ||
       tick - monitor_last_refresh_tick_ >= kMonitorRefreshTicks)) {
    ModelMonitor& source = config_.monitor != nullptr ? *config_.monitor
                                                      : ModelMonitor::Global();
    monitor_summary = source.Summary();
    monitor = &monitor_summary;
    monitor_refreshed_once_ = true;
    monitor_last_refresh_tick_ = tick;
  }

  for (auto& state : rules_) EvaluateRuleLocked(*state, tick, monitor);
}

HealthSummary HealthEngine::Summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthSummary summary;
  summary.evaluations = evaluations_;
  summary.transitions = transitions_;
  summary.alerts_fired = alerts_fired_;
  summary.alerts_resolved = alerts_resolved_;
  summary.flaps_suppressed = flaps_suppressed_;
  summary.firing = static_cast<std::uint64_t>(std::max<std::int64_t>(
      firing_, 0));
  summary.rules.reserve(rules_.size());
  for (const auto& state : rules_) {
    AlertRuleStatus status;
    status.rule = state->rule;
    status.evaluations = state->evaluations;
    for (const auto& [label, inst] : state->instances) {
      AlertInstanceStatus instance;
      instance.label = label;
      instance.state = inst.state;
      instance.last_value = inst.last_value;
      instance.last_eval_tick = inst.last_eval_tick;
      instance.last_change_tick = inst.last_change_tick;
      instance.fired = inst.fired;
      instance.resolved = inst.resolved;
      instance.suppressed = inst.suppressed;
      instance.flap_suppressed = inst.flap_suppressed;
      instance.value_mean = inst.values.Mean();
      instance.value_max = inst.values.Count() > 0 ? inst.values.Max() : 0.0;
      status.instances.push_back(std::move(instance));
    }
    summary.rules.push_back(std::move(status));
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Offline alert-timeline analysis

std::vector<FiringWindow> ExtractFiringWindows(std::span<const Event> events) {
  std::vector<const Event*> alerts;
  for (const Event& event : events) {
    if (event.kind == EventKind::kAlert) alerts.push_back(&event);
  }
  std::sort(alerts.begin(), alerts.end(),
            [](const Event* a, const Event* b) { return a->seq < b->seq; });

  std::vector<FiringWindow> windows;
  std::map<std::pair<std::string, std::string>, std::size_t> open;
  double last_tick = 0.0;
  for (const Event* event : alerts) {
    last_tick = std::max(last_tick, event->tick);
    const JsonValue* rule = event->fields.count("rule")
                                ? &event->fields.at("rule")
                                : nullptr;
    const JsonValue* label = event->fields.count("label")
                                 ? &event->fields.at("label")
                                 : nullptr;
    const JsonValue* to = event->fields.count("to") ? &event->fields.at("to")
                                                    : nullptr;
    if (rule == nullptr || label == nullptr || to == nullptr ||
        !rule->IsString() || !label->IsString() || !to->IsString()) {
      continue;  // ack / free-form alert events carry no lifecycle edge
    }
    const auto key = std::make_pair(rule->AsString(), label->AsString());
    if (to->AsString() == "firing") {
      FiringWindow window;
      window.rule = key.first;
      window.label = key.second;
      window.fired_seq = event->seq;
      window.fired_tick = event->tick;
      if (auto it = event->fields.find("severity");
          it != event->fields.end() && it->second.IsString()) {
        window.severity = it->second.AsString();
      }
      if (auto it = event->fields.find("value");
          it != event->fields.end() && it->second.IsNumber()) {
        window.value = it->second.AsNumber();
      }
      if (auto it = event->fields.find("threshold");
          it != event->fields.end() && it->second.IsNumber()) {
        window.threshold = it->second.AsNumber();
      }
      if (auto it = event->fields.find("signal");
          it != event->fields.end() && it->second.IsString() &&
          it->second.AsString() == SignalKindName(SignalKind::kServerMinFps)) {
        char* end = nullptr;
        const long long server =
            std::strtoll(window.label.c_str(), &end, 10);
        if (end != window.label.c_str() && *end == '\0') {
          window.server = server;
        }
      }
      open[key] = windows.size();
      windows.push_back(std::move(window));
    } else if (to->AsString() == "resolved") {
      auto it = open.find(key);
      if (it != open.end()) {
        FiringWindow& window = windows[it->second];
        window.resolved = true;
        window.resolved_seq = event->seq;
        window.resolved_tick = event->tick;
        open.erase(it);
      }
    }
  }
  for (auto& [key, index] : open) {
    windows[index].resolved_tick = last_tick;  // still firing at log end
  }
  std::sort(windows.begin(), windows.end(),
            [](const FiringWindow& a, const FiringWindow& b) {
              return a.fired_seq < b.fired_seq;
            });
  return windows;
}

FiringWindowJoin JoinFiringWindow(const FiringWindow& window,
                                  std::span<const Event> events) {
  FiringWindowJoin join;
  for (const Event& event : events) {
    if (event.kind != EventKind::kQosViolation) continue;
    if (event.tick < window.fired_tick || event.tick > window.resolved_tick) {
      continue;
    }
    if (window.server >= 0) {
      auto it = event.fields.find("server");
      if (it == event.fields.end() || !it->second.IsNumber() ||
          JsonInteger<long long>(&it->second, "event 'server'") !=
              window.server) {
        continue;
      }
    }
    join.violation_seqs.push_back(event.seq);
    if (event.decision_id != 0) join.decision_ids.push_back(event.decision_id);
  }
  std::sort(join.violation_seqs.begin(), join.violation_seqs.end());
  std::sort(join.decision_ids.begin(), join.decision_ids.end());
  join.decision_ids.erase(
      std::unique(join.decision_ids.begin(), join.decision_ids.end()),
      join.decision_ids.end());
  return join;
}

}  // namespace gaugur::obs
