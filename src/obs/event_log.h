// Structured decision-provenance event log.
//
// Every scheduler-visible state change in a fleet run — arrivals,
// placement decisions (with the candidate set, batch predictions, and
// cache hit/miss flags), departures, power transitions, retrains, and
// QoS violations — is appended as one Event. Events carry a process-wide
// monotonic sequence number (total order across threads) and the
// simulation-tick timestamp, so an offline tool can replay the exact
// causal chain: violation -> decision id -> candidate scores.
//
// Storage is a fixed number of shards, each a mutex-guarded bounded ring
// (drop-oldest on overflow, drops counted), selected by the same
// thread-shard hint the metrics registry uses — appends from different
// threads rarely contend and the whole structure is TSan-clean.
// Append() is a no-op (one relaxed load + branch) when the
// GAUGUR_OBS_ENABLED kill switch is off.
//
// Flush format is JSON Lines, one event per line, each line carrying
// schema "gaugur.obs.event/v1":
//
//   {"schema": "gaugur.obs.event/v1", "seq": <uint>, "tick": <double>,
//    "kind": "<decision|arrival|departure|power_on|power_off|
//             qos_violation|retrain|alert>",
//    "decision_id": <uint>,          // 0 when not tied to a decision
//    "fields": {...}}                // kind-specific payload
//
// A decision's per-candidate judgements travel typed beside `fields`
// (Event::candidates), not as a JSON tree: the writer renders them
// straight into the line (Event::AppendJson) as the `candidates` member
// of `fields`, the same bytes ToJson().Dump() gives. Doubles round-trip
// exactly through obs::JsonValue, so ParseJsonl(ToJsonl()) reproduces
// the snapshot bit-for-bit (tests/obs/event_log_test.cpp pins this).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace gaugur::obs {

inline constexpr const char* kEventSchema = "gaugur.obs.event/v1";

/// What Append() does when a shard ring is full while a streaming sink
/// is attached (without a sink, the ring always drops its oldest entry —
/// that is the bounded-memory exit-dump mode).
enum class OverflowPolicy : std::uint8_t {
  /// Evict the oldest event in the shard; the loss is counted in
  /// StreamDropped() and the `obs.sink.dropped` counter.
  kDropOldest = 0,
  /// Block the appending thread until the sink drains the shard (or
  /// streaming detaches). Lossless, at the price of backpressure on the
  /// simulation thread when the writer falls behind.
  kBlock,
};

enum class EventKind : std::uint8_t {
  kDecision = 0,
  kArrival,
  kDeparture,
  kPowerOn,
  kPowerOff,
  kQosViolation,
  kRetrain,
  kAlert,
};

inline constexpr std::size_t kNumEventKinds = 8;

/// Stable wire name for a kind ("decision", "qos_violation", ...).
const char* EventKindName(EventKind kind);
/// Inverse of EventKindName; returns false on an unknown name.
bool EventKindFromName(std::string_view name, EventKind* out);

/// The policy's judgement of one open server in a decision event
/// (core::CandidateScore, without the dependency on gaugur).
struct DecisionCandidate {
  bool feasible = false;
  bool memory_ok = false;
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  double min_margin = 0.0;

  bool operator==(const DecisionCandidate&) const = default;
};

struct Event {
  std::uint64_t seq = 0;
  double tick = 0.0;
  EventKind kind = EventKind::kDecision;
  /// Links the event to the scheduler decision that caused it; 0 means
  /// "not tied to a decision" (e.g. an arrival or a retrain).
  std::uint64_t decision_id = 0;
  JsonObject fields;
  /// Serialized as the `candidates` member of `fields`: an array of
  /// objects with the keys cache_hits, feasible, memory_ok, min_margin
  /// and queries. Empty: no such member (it takes the place of one in
  /// `fields`, if any).
  std::optional<std::vector<DecisionCandidate>> candidates;

  bool operator==(const Event&) const = default;

  JsonValue ToJson() const&;
  /// Same document; moves `fields` into it instead of copying.
  JsonValue ToJson() &&;
  /// Appends ToJson().Dump() to `out` without building the tree.
  void AppendJson(std::string& out) const;
  /// Inverse of ToJson. A `fields.candidates` array of exactly
  /// DecisionCandidate's shape (counts integral and below 2^64) is read
  /// into `candidates`; any other value stays in `fields`.
  static Event FromJson(const JsonValue& value);
};

struct EventLogConfig {
  /// Events kept per shard; the oldest event in a shard is dropped when
  /// its ring is full. Total capacity = shard_capacity * num_shards.
  std::size_t shard_capacity = 4096;
  std::size_t num_shards = 8;
};

class EventLog {
 public:
  explicit EventLog(EventLogConfig config = {});

  /// Process-wide instance the scheduler and predictor append to.
  static EventLog& Global();

  /// Replaces the configuration and drops all stored events. Not safe
  /// concurrently with Append(); call during setup or between runs.
  void Configure(EventLogConfig config);

  /// Drops all stored events and resets the appended/dropped tallies
  /// (sequence and decision-id counters keep advancing — they are
  /// process-monotonic so snapshots from successive runs never collide).
  void Clear();

  /// Allocates the next scheduler decision id (monotonic from 1; 0 is
  /// reserved for "no decision").
  std::uint64_t NextDecisionId() {
    return next_decision_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Appends one event, stamping its sequence number; `candidates`
  /// becomes Event::candidates. No-op (and `fields` is discarded) when
  /// the observability switch is off. The sequence
  /// number is allocated under the shard lock, so an event is never
  /// in flight with a published seq a concurrent DrainSince() could
  /// miss — the drain cut is gap-free.
  void Append(EventKind kind, double tick, std::uint64_t decision_id,
              JsonObject fields,
              std::optional<std::vector<DecisionCandidate>> candidates = {});

  /// Attaches (or detaches) a streaming sink. While attached, ring
  /// overflow follows `policy` instead of the default drop-oldest, and
  /// losses are tallied in StreamDropped(). Detaching wakes any
  /// appenders blocked by OverflowPolicy::kBlock.
  void SetStreaming(bool streaming, OverflowPolicy policy);

  /// Removes and returns every stored event with seq > `cursor`, sorted
  /// by seq. Holds all shard locks for the cut, so the result has no
  /// gaps: any event not returned either has seq <= cursor or will get
  /// a later seq. Drained entries are released from the rings (this is
  /// what bounds residency in streaming mode) and blocked appenders are
  /// woken.
  std::vector<Event> DrainSince(std::uint64_t cursor);

  /// Events currently resident in the rings (streaming keeps this
  /// bounded by drain cadence, not run length).
  std::size_t Residency() const;

  /// Events lost to ring overflow while a streaming sink was attached.
  std::uint64_t StreamDropped() const {
    return stream_dropped_.load(std::memory_order_relaxed);
  }

  /// Merged view of all shards, sorted by sequence number.
  std::vector<Event> Snapshot() const;

  std::uint64_t TotalAppended() const {
    return appended_.load(std::memory_order_relaxed);
  }
  std::uint64_t TotalDropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  bool Empty() const { return TotalAppended() == 0; }

  /// One JSON object per line, snapshot order (sorted by seq).
  std::string ToJsonl() const;
  /// Writes ToJsonl() to `path`; returns false on I/O failure, after
  /// logging the errno text and bumping `obs.sink.write_errors`.
  bool WriteJsonl(const std::string& path) const;

  /// Parses a JSONL dump back into events; throws std::logic_error
  /// (GAUGUR_CHECK) on a malformed line or a schema mismatch.
  static std::vector<Event> ParseJsonl(std::string_view text);
  /// Reads and parses `path`; returns false if the file cannot be read.
  static bool ReadJsonl(const std::string& path, std::vector<Event>* out);

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Wakes appenders blocked by OverflowPolicy::kBlock when a drain
    /// (or detach/clear) frees ring space.
    std::condition_variable space_freed;
    std::deque<Event> ring;
  };

  EventLogConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> next_decision_id_{0};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> dropped_{0};
  // Streaming attachment. Written under every shard lock (SetStreaming),
  // read under one shard lock (Append's wait predicate) — atomics so the
  // relaxed reads outside any lock (StreamDropped) stay race-free.
  std::atomic<bool> streaming_{false};
  std::atomic<OverflowPolicy> policy_{OverflowPolicy::kDropOldest};
  std::atomic<std::uint64_t> stream_dropped_{0};
};

}  // namespace gaugur::obs
