// Minimal command-line flag parsing for the CLI tools.
//
// Supports `--name value` and `--name=value` long flags plus positional
// arguments; typed accessors with defaults and validation. No external
// dependencies, deliberately tiny — the CLI surface is a handful of
// numeric knobs. The strict value parsers below are shared with the bench
// flag parser (bench/bench_common), so both reject the same bad values.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace prlc {

/// Decimal digits only (no sign, blanks or suffix); nullopt on garbage or
/// overflow.
std::optional<std::uint64_t> try_parse_u64(std::string_view text);

/// try_parse_u64 with an optional leading '-'; nullopt outside the int64
/// range instead of saturating.
std::optional<std::int64_t> try_parse_i64(std::string_view text);

/// strtod syntax with nothing after the number; nullopt on garbage,
/// trailing junk or a non-finite result ("nan", "inf", overflowing
/// exponents).
std::optional<double> try_parse_double(const std::string& text);

class Flags {
 public:
  /// Parse argv (excluding argv[0]); throws PreconditionError on a
  /// malformed flag (missing value, unknown syntax).
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed lookups with defaults. Throw PreconditionError on a value the
  /// try_parse_* parsers above reject.
  std::string get_string(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated list of doubles (e.g. "--dist 0.5,0.3,0.2").
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were provided but never read — typo detection for mains.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace prlc
