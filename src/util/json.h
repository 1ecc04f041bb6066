// Minimal JSON tree: build, serialize, parse.
//
// The observability layer (metrics export, trace files, machine-readable
// bench results) needs structured output that downstream tooling can
// trust, and the smoke tests need to *validate* that output — so this is
// a two-way implementation: a small value tree with a writer, plus a
// strict recursive-descent parser. Deliberately tiny (no SAX, no
// streaming, no non-standard extensions); documents here are megabytes at
// most. Object keys keep insertion order so emitted files are stable and
// diffable across runs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prlc::json {

/// One JSON value: null, bool, number, string, array, or object.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int i) : kind_(Kind::kNumber), num_(i) {}
  Value(std::int64_t i) : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(std::string_view s) : kind_(Kind::kString), str_(s) {}

  /// Empty array / object factories (an empty {} initializer is ambiguous).
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw PreconditionError on a kind mismatch.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Array access. push_back requires an array (or null, which becomes one).
  void push_back(Value v);
  std::size_t size() const;  ///< element count (array) or member count (object)
  const Value& at(std::size_t i) const;

  /// Object access. set() requires an object (or null, which becomes one);
  /// setting an existing key overwrites in place, keeping its position.
  void set(std::string_view key, Value v);
  bool contains(std::string_view key) const;
  /// Member lookup; throws PreconditionError when absent.
  const Value& at(std::string_view key) const;
  /// Member lookup; nullptr when absent.
  const Value* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Serialize. indent < 0 → compact single line; otherwise pretty-print
  /// with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document (trailing garbage rejected);
  /// throws PreconditionError with an offset on malformed input, and on
  /// arrays and objects nested more than 512 deep.
  static Value parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

/// Escape a string per RFC 8259 (quotes included).
std::string escape(std::string_view s);

/// Whole-file helpers for the JSON producers/consumers (metrics export,
/// bench --json, prlc_json_check). Throw PreconditionError on I/O failure.
std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view content);

}  // namespace prlc::json
