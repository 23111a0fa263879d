// Event-log unit tests: JSONL exact round-trip, kind-name wire format,
// ring overflow (drop-oldest, drops counted), the disabled no-op path,
// and a multi-threaded append + concurrent-flush loop the TSan CI job
// runs to pin the sharded log race-free.

#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/switch.h"

namespace gaugur::obs {
namespace {

Event MakeEvent(EventKind kind, double tick, std::uint64_t decision_id,
                JsonObject fields) {
  Event event;
  event.kind = kind;
  event.tick = tick;
  event.decision_id = decision_id;
  event.fields = std::move(fields);
  return event;
}

TEST(EventKindNames, RoundTripAndRejectUnknown) {
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EventKind parsed;
    ASSERT_TRUE(EventKindFromName(EventKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed;
  EXPECT_FALSE(EventKindFromName("not_a_kind", &parsed));
  EXPECT_FALSE(EventKindFromName("", &parsed));
}

TEST(EventLog, AppendStampsMonotonicSequence) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/16, /*num_shards=*/2});
  for (int i = 0; i < 10; ++i) {
    log.Append(EventKind::kArrival, static_cast<double>(i), 0,
               {{"game_id", JsonValue(i)}});
  }
  const std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(log.TotalAppended(), 10u);
  EXPECT_EQ(log.TotalDropped(), 0u);
}

TEST(EventLog, JsonlRoundTripIsExact) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/32, /*num_shards=*/1});
  // Awkward doubles (non-terminating binary fractions, negatives) and a
  // nested payload: the round trip must be bit-exact, not approximate.
  log.Append(EventKind::kDecision, 0.1 + 0.2, 1,
             {{"min_margin", JsonValue(-3.0000000000000004)},
              {"candidates",
               JsonValue(JsonArray{JsonValue(JsonObject{
                   {"feasible", JsonValue(true)},
                   {"queries", JsonValue(4)}})})}});
  log.Append(EventKind::kQosViolation, 17.25, 1,
             {{"dominant_resource", JsonValue("GPU-CE")},
              {"realized_fps", JsonValue(51.4999999999999)}});
  log.Append(EventKind::kRetrain, 0.0, 0, {{"model", JsonValue("rm")}});

  const std::vector<Event> snapshot = log.Snapshot();
  const std::vector<Event> parsed = EventLog::ParseJsonl(log.ToJsonl());
  EXPECT_EQ(parsed, snapshot);

  // And the serialization itself is byte-stable across dumps (sorted
  // keys, compact lines).
  EXPECT_EQ(log.ToJsonl(), log.ToJsonl());
}

/// The writer's line for `event`, checked against the tree path.
void ExpectRendersLikeTree(const Event& event) {
  std::string line = "prefix:";
  event.AppendJson(line);
  EXPECT_EQ(line, "prefix:" + event.ToJson().Dump(/*indent=*/-1));
}

Event DecisionWith(std::vector<DecisionCandidate> candidates) {
  Event event = MakeEvent(EventKind::kDecision, 12.5, 7,
                          {{"cache_hits_total", JsonValue(3)},
                           {"choice", JsonValue(-1)},
                           {"game_id", JsonValue(4)},
                           {"num_candidates", JsonValue(2)},
                           {"shard", JsonValue(0)}});
  event.seq = 99;
  event.candidates = std::move(candidates);
  return event;
}

TEST(EventRender, NoDetailHasNoCandidatesKey) {
  const Event event = DecisionWith({});
  Event bare = event;
  bare.candidates.reset();
  ExpectRendersLikeTree(bare);
  std::string line;
  bare.AppendJson(line);
  EXPECT_EQ(line.find("\"candidates\""), std::string::npos);
  EXPECT_EQ(Event::FromJson(JsonValue::Parse(line)), bare);
  // Every kind, empty fields, extreme header numbers.
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    Event other = MakeEvent(static_cast<EventKind>(k), -0.1, 0, {});
    other.seq = std::numeric_limits<std::uint64_t>::max();
    ExpectRendersLikeTree(other);
  }
}

TEST(EventRender, ZeroCandidatesIsAnEmptyArray) {
  const Event event = DecisionWith({});
  ExpectRendersLikeTree(event);
  std::string line;
  event.AppendJson(line);
  EXPECT_NE(line.find("\"candidates\":[]"), std::string::npos);
  EXPECT_EQ(Event::FromJson(JsonValue::Parse(line)), event);
}

TEST(EventRender, MarginsRenderLikeTheTree) {
  std::vector<DecisionCandidate> candidates;
  for (double margin :
       {-0.35, -1e-300, -0.0, 0.0, 5e-324, 1e-17, 0.1 + 0.2, 0.5, 1.0,
        123456.789, 9.0e15, 1.7976931348623157e308, -4.2e18}) {
    candidates.push_back({margin > 0.0, margin != 0.0, 4, 3, margin});
  }
  const Event event = DecisionWith(candidates);
  ExpectRendersLikeTree(event);
  std::string line;
  event.AppendJson(line);
  EXPECT_EQ(Event::FromJson(JsonValue::Parse(line)), event);
}

TEST(EventRender, HugeCountsRenderLikeTheTree) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Event event =
      DecisionWith({{true, true, kMax, kMax, 0.25},
                    {false, true, (1ull << 53) + 1, 0, -0.5},
                    {false, false, 0, 0, 0.0}});
  ExpectRendersLikeTree(event);
  // UINT64_MAX prints as 2^64, which no uint64 holds: read back, the
  // array keeps its JSON form in `fields`.
  std::string line;
  event.AppendJson(line);
  const Event parsed = Event::FromJson(JsonValue::Parse(line));
  EXPECT_FALSE(parsed.candidates.has_value());
  EXPECT_EQ(parsed.ToJson(), event.ToJson());
}

TEST(EventRender, CandidatesKeepTheirSortedPlaceAmongFields) {
  const std::vector<DecisionCandidate> one = {{true, true, 2, 1, 0.125}};
  // Only keys after "candidates", only keys before, a key that escapes,
  // and no other keys at all.
  for (JsonObject fields :
       {JsonObject{{"choice", JsonValue(0)}, {"z", JsonValue("x")}},
        JsonObject{{"a", JsonValue(true)}, {"cache_hits_total", JsonValue(1)}},
        JsonObject{{"c\"andidates\n", JsonValue(1)},
                   {"candidatesX", JsonValue(2)},
                   {"candidate", JsonValue(3)}},
        JsonObject{}}) {
    Event event = MakeEvent(EventKind::kDecision, 1.0, 2, std::move(fields));
    event.candidates = one;
    ExpectRendersLikeTree(event);
    std::string line;
    event.AppendJson(line);
    EXPECT_EQ(Event::FromJson(JsonValue::Parse(line)), event);
  }
  // A `candidates` member in `fields` gives way to the typed array.
  Event shadowed =
      MakeEvent(EventKind::kDecision, 1.0, 2,
                {{"candidates", JsonValue("stale")}, {"d", JsonValue(1)}});
  shadowed.candidates = one;
  ExpectRendersLikeTree(shadowed);
}

TEST(EventRender, OtherCandidateShapesStayInFields) {
  // Anything but DecisionCandidate's exact shape is left as JSON.
  for (const char* candidates :
       {R"("none")", R"([{"feasible":true}])",
        R"([{"cache_hits":1,"feasible":true,"memory_ok":true,)"
        R"("min_margin":0.5,"queries":-1}])",
        R"([{"cache_hits":1,"feasible":true,"memory_ok":true,)"
        R"("min_margin":null,"queries":1}])",
        R"([{"cache_hits":1,"feasible":true,"memory_ok":true,)"
        R"("min_margin":0.5,"queries":1.5}])",
        R"([{"cache_hits":1,"extra":0,"feasible":true,"memory_ok":true,)"
        R"("min_margin":0.5,"queries":1}])"}) {
    const std::string line =
        std::string(R"({"decision_id":1,"fields":{"candidates":)") +
        candidates +
        R"(},"kind":"decision","schema":"gaugur.obs.event/v1",)"
        R"("seq":1,"tick":0})";
    const Event event = Event::FromJson(JsonValue::Parse(line));
    EXPECT_FALSE(event.candidates.has_value()) << candidates;
    ASSERT_EQ(event.fields.count("candidates"), 1u) << candidates;
    std::string rendered;
    event.AppendJson(rendered);
    EXPECT_EQ(JsonValue::Parse(rendered), JsonValue::Parse(line));
  }
}

TEST(EventLog, ToJsonlRendersTypedCandidates) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/8, /*num_shards=*/2});
  log.Append(EventKind::kDecision, 3.0, 1, {{"choice", JsonValue(0)}},
             std::vector<DecisionCandidate>{{true, true, 3, 2, 0.375},
                                            {false, false, 0, 0, 0.0}});
  log.Append(EventKind::kArrival, 3.0, 0, {{"game_id", JsonValue(1)}});
  std::string expected;
  for (const Event& event : log.Snapshot()) {
    expected += event.ToJson().Dump(/*indent=*/-1) + "\n";
  }
  EXPECT_EQ(log.ToJsonl(), expected);
  EXPECT_EQ(EventLog::ParseJsonl(log.ToJsonl()), log.Snapshot());
}

TEST(EventLog, ParseJsonlRejectsWrongSchema) {
  EXPECT_THROW(
      EventLog::ParseJsonl(
          R"({"schema": "gaugur.obs.event/v999", "seq": 1, "tick": 0,)"
          R"( "kind": "arrival", "decision_id": 0, "fields": {}})"),
      std::logic_error);
}

TEST(EventLog, ParseJsonlSkipsBlankLines) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/8, /*num_shards=*/1});
  log.Append(EventKind::kPowerOn, 1.0, 0, {{"server", JsonValue(0)}});
  const std::string text = "\n" + log.ToJsonl() + "\n\n";
  EXPECT_EQ(EventLog::ParseJsonl(text).size(), 1u);
}

TEST(EventLog, RingOverflowDropsOldestAndCounts) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/4, /*num_shards=*/1});
  for (int i = 0; i < 10; ++i) {
    log.Append(EventKind::kArrival, static_cast<double>(i), 0,
               {{"game_id", JsonValue(i)}});
  }
  const std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(log.TotalAppended(), 10u);
  EXPECT_EQ(log.TotalDropped(), 6u);
  // The survivors are the newest four, still in order.
  EXPECT_EQ(events.front().tick, 6.0);
  EXPECT_EQ(events.back().tick, 9.0);
}

TEST(EventLog, DisabledAppendIsNoOp) {
  EnabledScope off(false);
  EventLog log;
  log.Append(EventKind::kArrival, 1.0, 0, {{"game_id", JsonValue(3)}});
  EXPECT_TRUE(log.Empty());
  EXPECT_EQ(log.TotalAppended(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.ToJsonl(), "");
}

TEST(EventLog, DecisionIdsAreMonotonicAcrossClear) {
  EventLog log;
  const std::uint64_t a = log.NextDecisionId();
  const std::uint64_t b = log.NextDecisionId();
  EXPECT_GT(a, 0u);  // 0 is reserved for "no decision"
  EXPECT_GT(b, a);
  log.Clear();
  EXPECT_GT(log.NextDecisionId(), b);
}

TEST(EventLog, ClearResetsTallies) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/2, /*num_shards=*/1});
  for (int i = 0; i < 5; ++i) {
    log.Append(EventKind::kDeparture, 0.0, 0, {});
  }
  EXPECT_GT(log.TotalDropped(), 0u);
  log.Clear();
  EXPECT_TRUE(log.Empty());
  EXPECT_EQ(log.TotalDropped(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(EventLog, EventJsonRejectsMissingFields) {
  Event event = MakeEvent(EventKind::kDecision, 1.5, 7,
                          {{"choice", JsonValue(0)}});
  event.seq = 3;
  JsonValue doc = event.ToJson();
  EXPECT_EQ(Event::FromJson(doc), event);

  JsonObject broken = doc.AsObject();
  broken.erase("kind");
  EXPECT_THROW(Event::FromJson(JsonValue(broken)), std::logic_error);
}

TEST(EventLog, ConcurrentAppendAndFlushIsSafe) {
  EnabledScope on(true);
  EventLog log({/*shard_capacity=*/256, /*num_shards=*/4});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;

  std::atomic<bool> stop{false};
  // A reader flushing concurrently with the appenders: Snapshot and
  // ToJsonl must see internally consistent (seq-sorted, parseable) views.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<Event> events = log.Snapshot();
      for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LT(events[i - 1].seq, events[i].seq);
      }
      // Every concurrent dump parses cleanly and stays seq-sorted.
      const std::vector<Event> parsed = EventLog::ParseJsonl(log.ToJsonl());
      for (std::size_t i = 1; i < parsed.size(); ++i) {
        EXPECT_LT(parsed[i - 1].seq, parsed[i].seq);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Append(EventKind::kArrival, static_cast<double>(i), 0,
                   {{"thread", JsonValue(t)}, {"i", JsonValue(i)}});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(log.TotalAppended(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const std::vector<Event> events = log.Snapshot();
  EXPECT_EQ(events.size() + log.TotalDropped(), log.TotalAppended());
  // Sequence numbers are unique across shards.
  std::set<std::uint64_t> seqs;
  for (const Event& event : events) seqs.insert(event.seq);
  EXPECT_EQ(seqs.size(), events.size());
}

}  // namespace
}  // namespace gaugur::obs
