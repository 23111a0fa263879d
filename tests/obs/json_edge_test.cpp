// Edge-case coverage for the obs JSON document model: non-finite numbers,
// number formatting (byte-identical to the former snprintf/strtod search
// on random bit patterns, powers of two and decimal grids),
// control-character escaping, deep nesting, the checked integer reader
// (hostile sequence numbers and report integers fail cleanly where they
// are read, and sections that are not read back cannot fail a parse),
// and run-report dump stability (dump → parse → dump is a fixed point).

#include "obs/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/forensics.h"
#include "obs/health.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/report.h"
#include "obs/switch.h"

namespace gaugur::obs {
namespace {

TEST(JsonEdgeTest, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).Dump(),
            "null");

  JsonArray mixed;
  mixed.emplace_back(1.5);
  mixed.emplace_back(std::nan(""));
  mixed.emplace_back(3.0);
  const std::string dumped = JsonValue(std::move(mixed)).Dump();
  EXPECT_EQ(dumped, "[1.5,null,3]");
  // The null parses back as JSON null, not as a number.
  const JsonValue parsed = JsonValue::Parse(dumped);
  EXPECT_TRUE(parsed.AsArray()[1].IsNull());
}

TEST(JsonEdgeTest, NumbersRoundTripExactly) {
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 1e300, 3.141592653589793,
        2.2250738585072014e-308, 9007199254740991.0, 123456.789}) {
    const JsonValue parsed = JsonValue::Parse(JsonValue(value).Dump());
    EXPECT_EQ(parsed.AsNumber(), value) << "value=" << value;
  }
}

/// The number formatter Dump used before it switched to to_chars: try
/// "%.{p}g" for p = 1..16 through snprintf/strtod and keep the first that
/// round-trips, else "%.17g". Dump must print exactly these bytes.
std::string OracleNumber(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[40];
  if (std::abs(d) < 9.0e15 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  for (int precision = 1; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

/// Dumps `values` as one array and checks each element against the
/// oracle; returns the number of mismatches (each one is reported).
int CountOracleMismatches(const std::vector<double>& values) {
  JsonArray array;
  array.reserve(values.size());
  for (double value : values) array.emplace_back(value);
  const std::string dumped = JsonValue(std::move(array)).Dump();
  std::string expected = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) expected += ',';
    expected += OracleNumber(values[i]);
  }
  expected += ']';
  if (dumped == expected) return 0;
  int mismatches = 0;
  for (double value : values) {
    const std::string got = JsonValue(value).Dump();
    const std::string want = OracleNumber(value);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(value) << std::dec
                    << ": Dump " << got << ", oracle " << want;
    }
  }
  return mismatches;
}

/// 2^20 random bit patterns in four shards of 2^18, so ctest can run the
/// (slow) oracle in parallel.
class JsonNumberFormatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(JsonNumberFormatRandomTest, MatchesSnprintfLoopOnRandomBitPatterns) {
  std::uint64_t state =
      0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(GetParam() + 1);
  std::vector<double> values(1u << 18);
  for (double& value : values) {
    // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    value = std::bit_cast<double>(z ^ (z >> 31));
  }
  EXPECT_EQ(CountOracleMismatches(values), 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, JsonNumberFormatRandomTest,
                         ::testing::Range(0, 4));

TEST(JsonNumberFormatTest, MatchesSnprintfLoopAroundEveryPowerOfTwo) {
  std::vector<double> values;
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double power = std::ldexp(1.0, exponent);
    for (double value :
         {power, std::nextafter(power, 0.0),
          std::nextafter(power, std::numeric_limits<double>::infinity())}) {
      values.push_back(value);
      values.push_back(-value);
    }
  }
  // Subnormals and the extremes.
  for (std::uint64_t bits = 1; bits < 4096; bits += 7) {
    values.push_back(std::bit_cast<double>(bits));
    values.push_back(std::bit_cast<double>(bits << 40));
  }
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(-std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(CountOracleMismatches(values), 0);
}

TEST(JsonNumberFormatTest, MatchesSnprintfLoopOnDecimalGrids) {
  std::vector<double> values;
  // Probabilities, ticks and FPS-like values as the obs layer prints them.
  for (int i = 0; i <= 20000; ++i) {
    values.push_back(i / 20000.0);
    values.push_back(i * 0.001);
    values.push_back(-i * 0.1);
    values.push_back(60.0 + i / 7.0);
  }
  for (int exponent = -320; exponent <= 308; ++exponent) {
    for (int mantissa : {1, 2, 3, 5, 7, 9, 11, 123, 4567}) {
      values.push_back(mantissa * std::pow(10.0, exponent));
    }
  }
  EXPECT_EQ(CountOracleMismatches(values), 0);
}

TEST(JsonEdgeTest, ControlCharactersEscapeAndRoundTrip) {
  std::string raw = "a";
  raw.push_back('\x01');
  raw += "b\tc\nd\"e\\f";
  raw.push_back('\x1f');

  std::string escaped;
  AppendJsonEscaped(escaped, raw);
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_NE(escaped.find("\\t"), std::string::npos);
  EXPECT_NE(escaped.find("\\n"), std::string::npos);
  EXPECT_NE(escaped.find("\\\""), std::string::npos);
  EXPECT_NE(escaped.find("\\\\"), std::string::npos);

  const JsonValue parsed = JsonValue::Parse(JsonValue(raw).Dump());
  EXPECT_EQ(parsed.AsString(), raw);

  // Control characters in object keys survive a full round trip too.
  JsonObject object;
  object[raw] = 7;
  const JsonValue reparsed =
      JsonValue::Parse(JsonValue(std::move(object)).Dump(2));
  ASSERT_NE(reparsed.Find(raw), nullptr);
  EXPECT_EQ(reparsed.Find(raw)->AsNumber(), 7.0);
}

TEST(JsonEdgeTest, DeeplyNestedArraysRoundTrip) {
  constexpr int kDepth = 200;
  JsonValue nested = JsonValue(std::string("leaf"));
  for (int i = 0; i < kDepth; ++i) {
    JsonArray wrapper;
    wrapper.push_back(std::move(nested));
    nested = JsonValue(std::move(wrapper));
  }
  const std::string dumped = nested.Dump();
  const JsonValue parsed = JsonValue::Parse(dumped);
  EXPECT_TRUE(parsed == nested);
  // Walk back down to the leaf to make sure depth was preserved.
  const JsonValue* cursor = &parsed;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(cursor->IsArray());
    ASSERT_EQ(cursor->AsArray().size(), 1u);
    cursor = &cursor->AsArray()[0];
  }
  EXPECT_EQ(cursor->AsString(), "leaf");
}

TEST(JsonEdgeTest, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::Parse("{"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("[1, 2,]"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("{} trailing"), JsonParseError);
  EXPECT_THROW(JsonValue::Parse("nul"), JsonParseError);
}

/// Expects `parse` to fail a GAUGUR_CHECK whose message names `needle`.
template <typename Parse>
void ExpectCheckFailure(Parse parse, const std::string& needle) {
  try {
    parse();
    ADD_FAILURE() << "parsed; expected a failure naming " << needle;
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(JsonIntegerTest, AcceptsIntegersUpToEachTypesEdges) {
  const JsonValue zero(0.0);
  const JsonValue two_53(9007199254740992.0);
  const JsonValue min_i64(std::ldexp(-1.0, 63));
  const JsonValue min_int(static_cast<double>(
      std::numeric_limits<int>::min()));
  EXPECT_EQ(JsonInteger<std::uint64_t>(&zero, "zero"), 0u);
  EXPECT_EQ(JsonInteger<std::uint64_t>(&two_53, "2^53"),
            std::uint64_t{1} << 53);
  EXPECT_EQ(JsonInteger<std::int64_t>(&min_i64, "-2^63"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(JsonInteger<int>(&min_int, "INT_MIN"),
            std::numeric_limits<int>::min());

  const JsonValue two_64(std::ldexp(1.0, 64));
  const JsonValue two_31(std::ldexp(1.0, 31));
  const JsonValue inf(std::numeric_limits<double>::infinity());
  const JsonValue nan(std::numeric_limits<double>::quiet_NaN());
  const JsonValue text("7");
  const char* kRange = "must be an integer in range";
  ExpectCheckFailure([&] { JsonInteger<std::uint64_t>(&two_64, "x"); },
                     kRange);
  ExpectCheckFailure([&] { JsonInteger<int>(&two_31, "x"); }, kRange);
  ExpectCheckFailure([&] { JsonInteger<std::int64_t>(&inf, "x"); }, kRange);
  ExpectCheckFailure([&] { JsonInteger<std::int64_t>(&nan, "x"); }, kRange);
  ExpectCheckFailure([&] { JsonInteger<int>(&text, "x"); },
                     "must be a number");
  ExpectCheckFailure([&] { JsonInteger<int>(nullptr, "x"); },
                     "must be a number");
}

// -1, 1e300 and 0.5 used to reach a bare double -> integer cast, which is
// undefined for the first two; all three now fail the check.
TEST(JsonIntegerTest, HostileEventSeqFailsTheCheck) {
  for (const char* bad : {"-1", "1e300", "0.5"}) {
    const std::string line =
        std::string(R"({"schema": "gaugur.obs.event/v1", "seq": )") + bad +
        R"(, "tick": 0, "kind": ")" + EventKindName(EventKind::kArrival) +
        R"(", "decision_id": 0, "fields": {}})";
    ExpectCheckFailure([&] { EventLog::ParseJsonl(line); },
                       "seq must be an integer in range");
  }
}

/// A run report carrying every section quickstart writes, as a document.
JsonValue QuickstartShapedReport() {
  Registry registry;
  registry.GetCounter("sched.placements").Add(3);
  registry.GetGauge("pool.queue_depth").Add(1);
  registry.GetHistogram("sched.decision_us").Record(12.5);
  RunReport report("quickstart", registry.Snap());
  report.SetMeta("seed", "1");
  report.SetModelMonitor(ModelMonitorSummary{});
  Event decision;
  decision.seq = 1;
  decision.kind = EventKind::kDecision;
  decision.decision_id = 1;
  report.SetForensics(BuildForensics({&decision, 1}, 0, {}));
  HealthSummary health;
  health.evaluations = 4;
  report.SetHealth(health);
  LatencyProfileSummary profile;
  profile.decisions = 1;
  report.SetProfile(profile);
  return report.ToJson();
}

/// The member at `path` (object keys, outermost first) of `doc`.
JsonValue& Member(JsonValue& doc, std::initializer_list<const char*> path) {
  JsonValue* value = &doc;
  for (const char* key : path) value = &value->AsObject().at(key);
  return *value;
}

// Only the name, forensics and profile of a report are read back, so an
// out-of-range integer anywhere else cannot fail the parse.
TEST(JsonIntegerTest, HostileValueInAnUnreadReportSectionParses) {
  const JsonValue clean = QuickstartShapedReport();
  const ForensicsSummary forensics =
      *RunReport::FromJson(clean).forensics();
  for (const double bad : {-1.0, 1e300, 0.5}) {
    for (const auto path : {std::initializer_list<const char*>{
                                "counters", "sched.placements"},
                            {"gauges", "pool.queue_depth"},
                            {"histograms", "sched.decision_us", "count"},
                            {"health", "evaluations"},
                            {"model_monitor", "cm", "tp"}}) {
      JsonValue doc = clean;
      Member(doc, path) = JsonValue(bad);
      const RunReport parsed = RunReport::FromJsonString(doc.Dump(2));
      EXPECT_EQ(parsed.name(), "quickstart");
      ASSERT_TRUE(parsed.forensics().has_value());
      EXPECT_EQ(*parsed.forensics(), forensics);
      EXPECT_TRUE(parsed.profile().has_value());
    }
  }
}

TEST(JsonIntegerTest, HostileForensicsOrProfileIntegerFailsTheCheck) {
  for (const double bad : {-1.0, 1e300, 0.5}) {
    JsonValue doc = QuickstartShapedReport();
    Member(doc, {"forensics", "events"}) = JsonValue(bad);
    ExpectCheckFailure([&] { RunReport::FromJsonString(doc.Dump(2)); },
                       "events must be an integer in range");
    doc = QuickstartShapedReport();
    Member(doc, {"profile", "decisions"}) = JsonValue(bad);
    ExpectCheckFailure([&] { RunReport::FromJsonString(doc.Dump(2)); },
                       "decisions must be an integer in range");
  }
}

TEST(JsonEdgeTest, RunReportDumpIsAFixedPoint) {
  EnabledScope on(true);
  ModelMonitor& monitor = ModelMonitor::Global();
  monitor.Reset();
  // Populate the monitor with awkward fractions so the stability check
  // exercises shortest-round-trip number formatting, not just integers.
  const std::vector<double> cm_features = {0.1, 0.2, 0.3};
  monitor.RecordPrediction(ModelKind::kCm, 11, cm_features, 0.6180339887,
                           0.5, true, 60.0);
  monitor.ObserveOutcome(11, 59.333333333333336, 60.0);
  const std::vector<double> rm_features = {1.0 / 3.0};
  monitor.RecordPrediction(ModelKind::kRm, 12, rm_features, 61.7, 60.0, true,
                           60.0);
  monitor.ObserveOutcome(12, 58.9, 60.0);

  const RunReport report = RunReport::Capture("fixed-point");
  ASSERT_TRUE(report.model_monitor().has_value());
  const std::string first = report.ToJsonString();
  EXPECT_EQ(JsonValue::Parse(first).Dump(2), first);
  monitor.Reset();
}

}  // namespace
}  // namespace gaugur::obs
