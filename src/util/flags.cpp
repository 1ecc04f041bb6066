#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace prlc {

std::optional<std::uint64_t> try_parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::int64_t> try_parse_i64(std::string_view text) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  const auto magnitude = try_parse_u64(text);
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (!magnitude || *magnitude > kMax + (negative ? 1 : 0)) return std::nullopt;
  // Two's-complement wrap of 2^63 gives INT64_MIN.
  return static_cast<std::int64_t>(negative ? 0 - *magnitude : *magnitude);
}

std::optional<double> try_parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  if (errno == ERANGE || !std::isfinite(value)) return std::nullopt;
  return value;
}

namespace {

/// A bad flag value is a usage error: its message names the flag and the
/// problem, nothing else.
[[noreturn]] void bad_value(const std::string& name, const std::string& problem) {
  throw PreconditionError("flag --" + name + " " + problem);
}

}  // namespace

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) throw PreconditionError("bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" form; a following token starting with "--" means the
    // flag was boolean-style ("--verbose").
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[i + 1];
      ++i;
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

std::string Flags::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  const auto v = try_parse_i64(it->second);
  if (!v) bad_value(name, "expects a 64-bit integer, got '" + it->second + "'");
  return *v;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  const auto v = try_parse_double(it->second);
  if (!v) bad_value(name, "expects a finite number, got '" + it->second + "'");
  return *v;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  bad_value(name, "expects a boolean, got '" + v + "'");
}

std::vector<double> Flags::get_double_list(const std::string& name,
                                           std::vector<double> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  read_[name] = true;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto v = try_parse_double(item);
    if (!v) bad_value(name, "has a non-numeric element '" + item + "'");
    out.push_back(*v);
  }
  if (out.empty()) bad_value(name, "expects a nonempty list");
  return out;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!read_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace prlc
