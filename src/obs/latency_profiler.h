// Decision latency attribution: an always-on flight recorder that splits
// every scheduler decision into fixed phases and accounts for where
// shard time goes when the fleet is sharded.
//
// `sched.decision_us` says how long a decision took; this module says
// *why*. Each decision is bracketed by BeginDecision/EndDecision on the
// deciding thread, and the code paths it crosses drop PhaseTimer RAII
// guards with one of seven fixed phase IDs:
//
//   candidate_enum   — open-server candidate selection + view build
//                      (ShardSim, outside the policy call)
//   colocation_hash  — extended-candidate assembly and additive
//                      colocation-hash / cache-key derivation
//   feature_build    — FeatureBuilder row appends for cache misses
//   cache_lookup     — PredictionCache lookups and re-inserts
//   kernel_eval      — the batched tree-kernel PredictBatch call
//   policy_select    — the placement policy invocation itself (the span
//                      SchedMetrics times as sched.decision_us)
//   event_emit       — EventLog appends for the decision (outside the
//                      policy call)
//
// Timers nest (policy_select contains colocation_hash, feature_build,
// cache_lookup, kernel_eval) and each timer records *exclusive* time —
// elapsed minus time spent in nested timers — so phase totals partition
// the decision instead of double counting it. The reconciliation
// contract, pinned by a pipeline test: the sum of the five in-decision
// phase totals (colocation_hash + feature_build + cache_lookup +
// kernel_eval + policy_select) tracks the sched.decision_us histogram
// sum within a small tolerance (timer/clock overhead and std::function
// dispatch are the only unattributed remainder). candidate_enum and
// event_emit run outside the timed policy span and are excluded.
//
// Storage is TSan-clean by construction: each decision accumulates into
// a thread-local scratch (zero contention), and EndDecision flushes it
// into (a) a fixed static array of per-shard slabs of relaxed atomics —
// no locks, no allocation on the decision path — and (b) global
// Registry histograms `sched.phase.<name>_us`, which stream through the
// TelemetrySink metrics-delta mechanism like every other metric.
//
// Contention accounting rides along:
//   * barrier waits — time each shard spends in the tick-window barrier
//     (SimulateShardedFleet), per shard;
//   * window imbalance — per tick window, the spread between the
//     busiest and idlest shard's in-window work time;
//   * cache lock waits — time spent blocked on striped PredictionCache
//     stripe mutexes (try_lock fast path: the uncontended case costs no
//     clock read).
//
// A slowest-K tail-exemplar ring keeps the full phase breakdown of the
// K slowest decisions seen, keyed by decision_id so each exemplar joins
// 1:1 back to its decision event in the EventLog (`trace_explorer
// profile` renders the join).
//
// The recorder is active only while obs::Enabled() && Armed(); Armed()
// defaults to true ("always on"), and SetArmed exists so
// bench_overhead can isolate the profiler's own cost (armed vs
// disarmed, obs on in both arms) behind the <2% gate
// (`profiler_overhead_pct` in BENCH_overhead.json). Everything here is
// a no-op — one relaxed load, no clock reads — while inactive.
//
// Summary() serializes as the `profile` section of
// gaugur.obs.run_report/v5 with an exact JSON round-trip
// (LatencyProfileSummary::ToJson / FromJson).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/switch.h"

namespace gaugur::obs {

// ---------------------------------------------------------------------------
// Phase taxonomy

enum class Phase : std::uint8_t {
  kCandidateEnum = 0,
  kColocationHash,
  kFeatureBuild,
  kCacheLookup,
  kKernelEval,
  kPolicySelect,
  kEventEmit,
};
inline constexpr std::size_t kNumPhases = 7;

/// Stable wire name ("candidate_enum", ...). Used in JSON and metric
/// names (`sched.phase.<name>_us`).
std::string_view PhaseName(Phase phase);
/// Inverse of PhaseName; returns false on an unknown name.
bool PhaseFromName(std::string_view name, Phase* out);

// ---------------------------------------------------------------------------
// Summary (the run report `profile` section; exact JSON round-trip)

/// One phase's accumulated exclusive time.
struct PhaseStats {
  std::uint64_t count = 0;  // timer activations
  double total_us = 0.0;    // exclusive microseconds
  double max_us = 0.0;      // largest single activation

  JsonValue ToJson() const;
  static PhaseStats FromJson(const JsonValue& value);
  friend bool operator==(const PhaseStats&, const PhaseStats&) = default;
};

/// One shard's attribution slice (one-shard runs are shard 0).
struct ShardProfile {
  std::uint64_t shard = 0;
  std::uint64_t decisions = 0;
  std::array<PhaseStats, kNumPhases> phases{};
  /// Tick-window barrier waits (sharded runs only).
  std::uint64_t barrier_waits = 0;
  double barrier_wait_us = 0.0;
  /// In-window work time accumulated across windows (RecordWindow).
  double window_busy_us = 0.0;

  JsonValue ToJson() const;
  static ShardProfile FromJson(const JsonValue& value);
  friend bool operator==(const ShardProfile&, const ShardProfile&) = default;
};

/// Per-tick-window shard imbalance: spread = busiest minus idlest
/// shard's in-window work time, accumulated over windows.
struct WindowImbalance {
  std::uint64_t windows = 0;
  double spread_total_us = 0.0;
  double spread_max_us = 0.0;

  JsonValue ToJson() const;
  static WindowImbalance FromJson(const JsonValue& value);
  friend bool operator==(const WindowImbalance&,
                         const WindowImbalance&) = default;
};

/// Striped prediction-cache lock acquisition accounting (fleet-wide).
struct CacheContention {
  std::uint64_t acquisitions = 0;  // stripe locks taken while armed
  std::uint64_t contended = 0;     // of those, blocked on a holder
  double wait_us = 0.0;            // total blocked time
  double wait_max_us = 0.0;        // worst single wait

  JsonValue ToJson() const;
  static CacheContention FromJson(const JsonValue& value);
  friend bool operator==(const CacheContention&,
                         const CacheContention&) = default;
};

/// One of the K slowest decisions, with its full phase breakdown.
/// `decision_id` joins 1:1 to the decision event in the EventLog.
struct TailExemplar {
  std::uint64_t decision_id = 0;
  double tick = 0.0;
  std::uint64_t shard = 0;
  double total_us = 0.0;  // sum of phase_us
  std::array<double, kNumPhases> phase_us{};

  JsonValue ToJson() const;
  static TailExemplar FromJson(const JsonValue& value);
  friend bool operator==(const TailExemplar&, const TailExemplar&) = default;
};

/// The `profile` section of gaugur.obs.run_report/v5. All tallies are
/// stored, not recomputed — a written summary parses back bit-exactly.
struct LatencyProfileSummary {
  std::uint64_t decisions = 0;
  /// Merged across shards, indexed by Phase.
  std::array<PhaseStats, kNumPhases> fleet{};
  /// Only shards that recorded anything, sorted by shard index.
  std::vector<ShardProfile> shards;
  WindowImbalance imbalance;
  CacheContention cache;
  /// Slowest decisions first.
  std::vector<TailExemplar> exemplars;

  bool Empty() const { return decisions == 0 && exemplars.empty(); }

  JsonValue ToJson() const;
  static LatencyProfileSummary FromJson(const JsonValue& value);
  friend bool operator==(const LatencyProfileSummary&,
                         const LatencyProfileSummary&) = default;
};

// ---------------------------------------------------------------------------
// Recorder

namespace detail {

inline std::uint64_t ProfilerNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deepest meaningful nesting today is 2 (policy_select > cache_lookup);
/// deeper timers silently stop nesting rather than corrupting state.
inline constexpr int kMaxPhaseNesting = 6;

/// Per-thread accumulation for the decision in flight. `active` is the
/// one-branch gate every PhaseTimer checks; it is only true between
/// BeginDecision and EndDecision on a thread where the recorder is on.
struct DecisionScratch {
  bool active = false;
  std::uint32_t shard_slot = 0;
  int depth = 0;
  /// child_ns[d]: nanoseconds consumed by timers nested directly under
  /// the timer currently open at depth d.
  std::array<std::uint64_t, kMaxPhaseNesting> child_ns{};
  std::array<double, kNumPhases> exclusive_us{};
  std::array<std::uint32_t, kNumPhases> activations{};
};

DecisionScratch& TlsScratch();

}  // namespace detail

/// RAII phase guard. Construction/destruction cost one branch while no
/// decision is being recorded on this thread; two steady_clock reads
/// otherwise. Safe (and free) on any thread, any time.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase) : phase_(phase) {
    auto& scratch = detail::TlsScratch();
    if (!scratch.active || scratch.depth >= detail::kMaxPhaseNesting) return;
    depth_ = scratch.depth++;
    scratch.child_ns[depth_] = 0;
    start_ns_ = detail::ProfilerNowNs();
  }
  ~PhaseTimer() {
    if (depth_ < 0) return;
    auto& scratch = detail::TlsScratch();
    const std::uint64_t elapsed = detail::ProfilerNowNs() - start_ns_;
    const std::uint64_t child = scratch.child_ns[depth_];
    const double exclusive_us =
        static_cast<double>(elapsed > child ? elapsed - child : 0) / 1000.0;
    const auto index = static_cast<std::size_t>(phase_);
    scratch.exclusive_us[index] += exclusive_us;
    scratch.activations[index] += 1;
    scratch.depth = depth_;
    if (depth_ > 0) scratch.child_ns[depth_ - 1] += elapsed;
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_;
  int depth_ = -1;
  std::uint64_t start_ns_ = 0;
};

class LatencyProfiler {
 public:
  /// Per-shard accumulation slots; shard indices fold modulo this (the
  /// fleet bench tops out well below it on any current machine).
  static constexpr std::size_t kMaxShardSlots = 64;
  /// Tail-exemplar ring capacity (slowest-K decisions).
  static constexpr std::size_t kTailExemplars = 16;

  /// Process-wide instance every call site uses.
  static LatencyProfiler& Global();

  /// Recording is on iff obs::Enabled() && Armed(). Armed defaults to
  /// true; bench_overhead flips it to measure the recorder's own cost.
  bool Armed() const { return armed_.load(std::memory_order_relaxed); }
  void SetArmed(bool armed) {
    armed_.store(armed, std::memory_order_relaxed);
  }
  bool Active() const { return Enabled() && Armed(); }

  /// RAII arm/disarm for benches and tests.
  class ArmedScope {
   public:
    explicit ArmedScope(bool armed)
        : previous_(Global().Armed()) {
      Global().SetArmed(armed);
    }
    ~ArmedScope() { Global().SetArmed(previous_); }
    ArmedScope(const ArmedScope&) = delete;
    ArmedScope& operator=(const ArmedScope&) = delete;

   private:
    bool previous_;
  };

  // --- decision lifecycle (ShardSim's loop; one thread per shard) ---

  /// Opens a decision on this thread (no-op while inactive). `shard` is
  /// the deciding shard's index.
  void BeginDecision(std::size_t shard);
  /// Flushes the scratch into the shard slab, the `sched.phase.*_us`
  /// histograms, and (if slow enough) the tail-exemplar ring.
  /// `decision_id` is the EventLog decision id the breakdown joins to.
  void EndDecision(std::uint64_t decision_id, double tick);

  // --- contention accounting ---

  /// One shard's time inside the tick-window barrier.
  void RecordBarrierWait(std::size_t shard, double wait_us);
  /// One tick window's per-shard in-window work time (index == shard).
  /// Called from the barrier completion step while all shards are
  /// quiescent.
  void RecordWindow(std::span<const double> shard_busy_us);
  /// One striped-cache stripe-lock acquisition; `wait_us` > 0 only when
  /// the lock was contended (`contended` true).
  void RecordCacheAcquisition(double wait_us, bool contended);

  /// Drops all accumulated state (slabs, contention, exemplars). Does
  /// not touch the Registry histograms.
  void Reset();

  LatencyProfileSummary Summary() const;

 private:
  LatencyProfiler();

  struct alignas(64) ShardSlab {
    std::atomic<std::uint64_t> decisions{0};
    std::array<std::atomic<std::uint64_t>, kNumPhases> phase_count{};
    std::array<std::atomic<double>, kNumPhases> phase_total_us{};
    std::array<std::atomic<double>, kNumPhases> phase_max_us{};
    std::atomic<std::uint64_t> barrier_waits{0};
    std::atomic<double> barrier_wait_us{0.0};
    std::atomic<double> window_busy_us{0.0};
  };

  void ConsiderExemplar(const TailExemplar& exemplar);

  std::atomic<bool> armed_{true};
  std::array<ShardSlab, kMaxShardSlots> slabs_{};

  // Cache contention (lock-free; stripes already serialize the hot path).
  std::atomic<std::uint64_t> cache_acquisitions_{0};
  std::atomic<std::uint64_t> cache_contended_{0};
  std::atomic<double> cache_wait_us_{0.0};
  std::atomic<double> cache_wait_max_us_{0.0};

  // Window imbalance (written from the barrier completion step only).
  mutable std::mutex window_mutex_;
  WindowImbalance imbalance_;

  // Tail exemplars: the relaxed floor makes the common case (decision
  // faster than the K-th slowest) lock-free.
  std::atomic<double> exemplar_floor_{-1.0};
  mutable std::mutex exemplar_mutex_;
  std::vector<TailExemplar> exemplars_;
};

}  // namespace gaugur::obs
