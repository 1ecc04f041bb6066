#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace prlc::json {

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Value::as_bool() const {
  PRLC_REQUIRE(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Value::as_double() const {
  PRLC_REQUIRE(is_number(), "JSON value is not a number");
  return num_;
}

const std::string& Value::as_string() const {
  PRLC_REQUIRE(is_string(), "JSON value is not a string");
  return str_;
}

void Value::push_back(Value v) {
  if (is_null()) kind_ = Kind::kArray;
  PRLC_REQUIRE(is_array(), "push_back on a non-array JSON value");
  arr_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (is_array()) return arr_.size();
  if (is_object()) return obj_.size();
  PRLC_REQUIRE(false, "size() on a non-container JSON value");
  return 0;
}

const Value& Value::at(std::size_t i) const {
  PRLC_REQUIRE(is_array(), "indexed access on a non-array JSON value");
  PRLC_REQUIRE(i < arr_.size(), "JSON array index out of range");
  return arr_[i];
}

void Value::set(std::string_view key, Value v) {
  if (is_null()) kind_ = Kind::kObject;
  PRLC_REQUIRE(is_object(), "set() on a non-object JSON value");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::string(key), std::move(v));
}

bool Value::contains(std::string_view key) const { return find(key) != nullptr; }

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  PRLC_REQUIRE(v != nullptr, "JSON object has no member '" + std::string(key) + "'");
  return *v;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  PRLC_REQUIRE(is_object(), "members() on a non-object JSON value");
  return obj_;
}

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 when
/// the bytes there are not valid UTF-8 (RFC 3629 table: no overlong
/// forms, no surrogate code points, nothing above U+10FFFF).
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto b0 = static_cast<unsigned char>(s[i]);
  if (b0 < 0x80) return 1;
  const auto cont = [&](std::size_t k, unsigned char lo, unsigned char hi) {
    if (i + k >= s.size()) return false;
    const auto b = static_cast<unsigned char>(s[i + k]);
    return b >= lo && b <= hi;
  };
  if (b0 >= 0xC2 && b0 <= 0xDF) return cont(1, 0x80, 0xBF) ? 2 : 0;
  if (b0 == 0xE0) return cont(1, 0xA0, 0xBF) && cont(2, 0x80, 0xBF) ? 3 : 0;
  if (b0 >= 0xE1 && b0 <= 0xEC) return cont(1, 0x80, 0xBF) && cont(2, 0x80, 0xBF) ? 3 : 0;
  if (b0 == 0xED) return cont(1, 0x80, 0x9F) && cont(2, 0x80, 0xBF) ? 3 : 0;  // no surrogates
  if (b0 >= 0xEE && b0 <= 0xEF) return cont(1, 0x80, 0xBF) && cont(2, 0x80, 0xBF) ? 3 : 0;
  if (b0 == 0xF0) {
    return cont(1, 0x90, 0xBF) && cont(2, 0x80, 0xBF) && cont(3, 0x80, 0xBF) ? 4 : 0;
  }
  if (b0 >= 0xF1 && b0 <= 0xF3) {
    return cont(1, 0x80, 0xBF) && cont(2, 0x80, 0xBF) && cont(3, 0x80, 0xBF) ? 4 : 0;
  }
  if (b0 == 0xF4) {  // max U+10FFFF
    return cont(1, 0x80, 0x8F) && cont(2, 0x80, 0xBF) && cont(3, 0x80, 0xBF) ? 4 : 0;
  }
  return 0;  // C0/C1 (overlong), F5+ (out of range), stray continuation
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  std::size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        out += "\\\"";
        ++i;
        continue;
      case '\\':
        out += "\\\\";
        ++i;
        continue;
      case '\n':
        out += "\\n";
        ++i;
        continue;
      case '\r':
        out += "\\r";
        ++i;
        continue;
      case '\t':
        out += "\\t";
        ++i;
        continue;
      default:
        break;
    }
    if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      ++i;
      continue;
    }
    if (c < 0x80) {
      out.push_back(static_cast<char>(c));
      ++i;
      continue;
    }
    // Multi-byte lead or continuation: copy only well-formed UTF-8 —
    // hierarchical metric/event names are arbitrary caller strings, and
    // one invalid byte must not poison a whole JSONL export. Invalid
    // bytes become U+FFFD one at a time, resynchronizing on the next.
    const std::size_t len = utf8_sequence_length(s, i);
    if (len == 0) {
      out += "\xEF\xBF\xBD";  // U+FFFD replacement character
      ++i;
    } else {
      out.append(s.substr(i, len));
      i += len;
    }
  }
  out.push_back('"');
  return out;
}

namespace {

/// Shortest round-trip-ish number formatting: integers without a decimal
/// point, everything else with enough digits to reconstruct the double.
void append_number(std::string& out, double d) {
  PRLC_REQUIRE(std::isfinite(d), "JSON cannot represent NaN or infinity");
  if (d == static_cast<double>(static_cast<long long>(d)) && std::fabs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void append_indent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      append_number(out, num_);
      return;
    case Kind::kString:
      out += escape(str_);
      return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent >= 0) append_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent >= 0) append_indent(out, indent, depth + 1);
        out += escape(obj_[i].first);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) append_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Deepest nesting of arrays and objects the parser accepts. The parser
/// recurses once per level, so without a bound a document of a few
/// hundred thousand '[' overflows the stack; every report the repo writes
/// nests fewer than ten levels.
constexpr std::size_t kMaxParseDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  /// A parse error names the problem and where it is, nothing else.
  [[noreturn]] void fail(const std::string& what) {
    throw PreconditionError(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxParseDepth) {
          fail("JSON nesting deeper than " + std::to_string(kMaxParseDepth) + " levels");
        }
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("malformed literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("malformed literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("malformed literal");
        return Value(nullptr);
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value out = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Value v = parse_value();
      if (out.contains(key)) fail("duplicate JSON object key '" + key + "'");
      out.set(key, std::move(v));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        // RFC 8259: control characters must be escaped; a raw one means
        // the document did not come from a conforming writer.
        if (static_cast<unsigned char>(c) < 0x20) {
          --pos_;
          fail("raw control character in string");
        }
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
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
              fail("invalid \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the writer never emits them and trace names are ASCII).
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
          fail("unknown escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // RFC 8259 forbids leading zeros ("01") and a bare "-"/".5"; strtod
    // would happily accept some of those, so check the prefix here.
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("expected a JSON value");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() && text_[pos_ + 1] >= '0' &&
        text_[pos_ + 1] <= '9') {
      fail("leading zeros are not valid JSON numbers");
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a JSON value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number '" + token + "'");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

Value Value::parse(std::string_view text) { return Parser(text).parse_document(); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PRLC_REQUIRE(static_cast<bool>(in), "cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  PRLC_REQUIRE(!in.bad(), "read failure on '" + path + "'");
  return std::move(buf).str();
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  PRLC_REQUIRE(static_cast<bool>(out), "cannot open '" + path + "' for writing");
  out << content;
  if (!content.ends_with('\n')) out << '\n';
  PRLC_REQUIRE(static_cast<bool>(out), "write failure on '" + path + "'");
}

}  // namespace prlc::json
