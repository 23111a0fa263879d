#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gaugur::obs {

namespace {

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw JsonParseError("JSON parse error at byte " + std::to_string(pos_) +
                         ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue(ParseString());
      case 't':
        if (!Consume("true")) Fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!Consume("false")) Fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!Consume("null")) Fail("bad literal");
        return JsonValue(nullptr);
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonObject object;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    for (;;) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      object[std::move(key)] = ParseValue();
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return JsonValue(std::move(object));
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonArray array;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    for (;;) {
      array.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return JsonValue(std::move(array));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the telemetry layer only emits ASCII names).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) Fail("malformed number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void DumpNumber(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  // Integers (the common case: counters, bucket counts) print exactly;
  // everything else uses round-trippable shortest-ish formatting.
  // The magnitude test comes first: casting |d| >= 2^63 to long long is
  // undefined.
  if (std::abs(d) < 9.0e15 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                  static_cast<long long>(d))
                        .ptr);
    return;
  }
  // The output is "%.{p}g" at the least precision p that round-trips
  // (p <= 17). The shortest round-trip digit string has P digits, so no
  // p < P can round-trip and the search starts there; it usually ends
  // there too, but near a power of two the correctly rounded P-digit
  // value can miss d and p = P + 1 is tried. to_chars with a precision is
  // specified as printf's %.{p}g, and from_chars reads exactly.
  char buf[40];
  char* const end = buf + sizeof(buf);
  char* const shortest_end =
      std::to_chars(buf, end, d, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != shortest_end && *c != 'e'; ++c) {
    digits += (*c >= '0' && *c <= '9') ? 1 : 0;
  }
  for (int precision = digits; precision < 17; ++precision) {
    char* const trial_end =
        std::to_chars(buf, end, d, std::chars_format::general, precision).ptr;
    double parsed = 0.0;
    std::from_chars(buf, trial_end, parsed);
    if (parsed == d) {
      out.append(buf, trial_end);
      return;
    }
  }
  out.append(buf,
             std::to_chars(buf, end, d, std::chars_format::general, 17).ptr);
}

void DumpValue(std::string& out, const JsonValue& value, int indent,
               int depth) {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (value.IsNull()) {
    out += "null";
  } else if (value.IsBool()) {
    out += value.AsBool() ? "true" : "false";
  } else if (value.IsNumber()) {
    DumpNumber(out, value.AsNumber());
  } else if (value.IsString()) {
    out.push_back('"');
    AppendJsonEscaped(out, value.AsString());
    out.push_back('"');
  } else if (value.IsArray()) {
    const JsonArray& array = value.AsArray();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline(depth + 1);
      DumpValue(out, array[i], indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const JsonObject& object = value.AsObject();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [key, member] : object) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      out.push_back('"');
      AppendJsonEscaped(out, key);
      out += indent < 0 ? "\":" : "\": ";
      DumpValue(out, member, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!IsObject()) return nullptr;
  const JsonObject& object = AsObject();
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

void AppendJsonNumber(std::string& out, double d) { DumpNumber(out, d); }

void AppendJsonValue(std::string& out, const JsonValue& value) {
  DumpValue(out, value, /*indent=*/-1, /*depth=*/0);
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpValue(out, *this, indent, 0);
  return out;
}

JsonValue JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace gaugur::obs
