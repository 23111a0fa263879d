// Minimal JSON document model: enough for the observability layer to emit
// run reports and event streams and to parse them back (schema round-trip
// tests, offline tooling). Zero third-party dependencies, by design.
//
// Numbers are stored as double (printed with enough digits to round-trip);
// integer counters are exact up to 2^53, far beyond any run this repo
// produces. Object keys are kept sorted (std::map) so output is
// deterministic and diff-friendly.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/check.h"

// GCC's -Wmaybe-uninitialized reports phantom uninitialized reads inside
// std::variant copy/move construction when it inlines libstdc++ internals
// (seen with GCC 12 at -O1 under the TSan build; GCC bugs 80635/105593).
// The diagnostic is attributed to the inlined <variant> code in whatever TU
// touches a JsonValue, so a push/pop around this header can't contain it —
// disable it file-wide for JsonValue users instead.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace gaugur::obs {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/// Thrown by JsonValue::Parse on malformed input (with byte offset).
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(long long i) : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long long i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool IsNull() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool IsBool() const { return std::holds_alternative<bool>(value_); }
  bool IsNumber() const { return std::holds_alternative<double>(value_); }
  bool IsString() const { return std::holds_alternative<std::string>(value_); }
  bool IsArray() const { return std::holds_alternative<JsonArray>(value_); }
  bool IsObject() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw std::bad_variant_access on kind mismatch.
  bool AsBool() const { return std::get<bool>(value_); }
  double AsNumber() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const JsonArray& AsArray() const { return std::get<JsonArray>(value_); }
  const JsonObject& AsObject() const { return std::get<JsonObject>(value_); }
  JsonArray& AsArray() { return std::get<JsonArray>(value_); }
  JsonObject& AsObject() { return std::get<JsonObject>(value_); }

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Serializes; indent < 0 → compact one-liner, otherwise pretty-printed
  /// with that many spaces per level.
  std::string Dump(int indent = -1) const;

  /// Parses a complete JSON document; throws JsonParseError on bad input
  /// or trailing garbage.
  static JsonValue Parse(std::string_view text);

  friend bool operator==(const JsonValue&, const JsonValue&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Appends `s` to `out`, escaped for inclusion inside a JSON string
/// literal (no quotes).
void AppendJsonEscaped(std::string& out, std::string_view s);

/// Appends JsonValue(d).Dump() to `out`.
void AppendJsonNumber(std::string& out, double d);

/// Appends value.Dump() (compact) to `out`.
void AppendJsonValue(std::string& out, const JsonValue& value);

/// Reads `value` (typically a Find() result) as an integer of type T. It
/// must be present and a number that is finite, integral and inside T's
/// range; anything else fails GAUGUR_CHECK naming `what`. Every obs
/// parser reads counters, sequence numbers and ids through this: a bare
/// static_cast of AsNumber() is undefined behaviour when a hostile
/// document holds -1 or 1e300.
template <typename T>
T JsonInteger(const JsonValue* value, std::string_view what) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  GAUGUR_CHECK_MSG(value != nullptr && value->IsNumber(),
                   what << " must be a number");
  const double d = value->AsNumber();
  // 2^digits is T's exclusive upper bound and, negated, a signed T's
  // inclusive lower bound; both are exact doubles. NaN fails every test.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lowest = std::is_signed_v<T> ? -limit : 0.0;
  GAUGUR_CHECK_MSG(d >= lowest && d < limit && d == std::trunc(d),
                   what << " must be an integer in range, got "
                        << value->Dump());
  return static_cast<T>(d);
}

/// JsonInteger of the member `key` of `object`.
template <typename T>
T JsonIntegerField(const JsonValue& object, const char* key) {
  return JsonInteger<T>(object.Find(key), key);
}

}  // namespace gaugur::obs
