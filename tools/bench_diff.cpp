// prlc_bench_diff — cross-PR perf regression tracking.
//
// Usage:
//   prlc_bench_diff [options] baseline.json fresh.json
//   prlc_bench_diff --self-test baseline.json
//
// Compares a fresh BenchReport (--json output) against a committed
// BENCH_*.json baseline. Two classes of comparison:
//
//   * noisy metrics — anything that measures time or throughput
//     (decode_ns, ns_per_equation, bytes_per_s, real_time, cpu_time,
//     speedup, iterations, *_us): compared with a relative tolerance
//     (--tolerance, default 0.6, i.e. a 2x slowdown is flagged but normal
//     machine-to-machine jitter is not).
//   * everything else — simulation outputs are deterministic for a fixed
//     config, so all other numerics, strings and bools must match
//     exactly; a mismatch is reported as drift.
//
// Series are matched by name, points by index; a missing series, a
// point-count mismatch, or a field present on one side only is a
// *structural* mismatch. Exit codes: 0 ok, 1 structural mismatch (or an
// unreadable report), 2 metric drift, 64 usage error (an unknown flag, a
// missing value, the wrong number of files, or a --tolerance that is not
// a finite positive number). --soft prints the verdict but always exits
// 0 (the ctest soft gate: visible in the log, never blocks the build).
// --verdict <path> additionally writes a machine-readable verdict JSON.
//
// --self-test baseline.json checks the tool itself: the baseline must
// diff clean against itself, and must *fail* against a copy whose noisy
// metrics are all scaled 2x (an injected 2x slowdown).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.h"
#include "util/json.h"

namespace {

using prlc::json::Value;

struct Flagged {
  std::string series;
  std::size_t point = 0;
  std::string metric;
  double base = 0;
  double fresh = 0;
  double rel_change = 0;
  bool structural = false;
  std::string note;
};

struct DiffResult {
  std::vector<Flagged> flagged;
  std::size_t checked = 0;

  bool structural() const {
    for (const Flagged& f : flagged) {
      if (f.structural) return true;
    }
    return false;
  }
  bool drift() const {
    for (const Flagged& f : flagged) {
      if (!f.structural) return true;
    }
    return false;
  }
  const char* status() const {
    if (structural()) return "mismatch";
    if (drift()) return "drift";
    return "ok";
  }
};

/// A metric is "noisy" when it measures wall time or throughput — the only
/// values that legitimately differ between two runs of the same config.
bool is_noisy_metric(std::string_view name) {
  static constexpr std::string_view kSuffixes[] = {"_ns", "_us", "_s"};
  for (const std::string_view s : kSuffixes) {
    if (name.size() >= s.size() && name.substr(name.size() - s.size()) == s) return true;
  }
  static constexpr std::string_view kSubstrings[] = {
      "ns_per", "_per_s", "per_second", "real_time", "cpu_time",
      "speedup", "iterations", "elapsed",
  };
  for (const std::string_view s : kSubstrings) {
    if (name.find(s) != std::string_view::npos) return true;
  }
  return false;
}

double rel_change(double base, double fresh) {
  if (base == fresh) return 0.0;
  const double denom = std::fabs(base);
  if (denom == 0.0) return std::numeric_limits<double>::infinity();
  return std::fabs(fresh - base) / denom;
}

const Value* find_series(const Value& report, std::string_view name) {
  const Value* series = report.find("series");
  if (series == nullptr || !series->is_array()) return nullptr;
  for (std::size_t i = 0; i < series->size(); ++i) {
    const Value& entry = series->at(i);
    const Value* n = entry.find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) return &entry;
  }
  return nullptr;
}

void diff_point(const std::string& series, std::size_t index, const Value& base,
                const Value& fresh, double tolerance, DiffResult& out) {
  for (const auto& [key, base_field] : base.members()) {
    const Value* fresh_field = fresh.find(key);
    if (fresh_field == nullptr) {
      out.flagged.push_back(
          {series, index, key, 0, 0, 0, true, "field missing from fresh report"});
      continue;
    }
    ++out.checked;
    if (base_field.is_number() && fresh_field->is_number()) {
      const double b = base_field.as_double();
      const double f = fresh_field->as_double();
      const double change = rel_change(b, f);
      if (is_noisy_metric(key)) {
        if (change > tolerance) {
          out.flagged.push_back({series, index, key, b, f, change, false,
                                 "relative change exceeds tolerance"});
        }
      } else if (b != f) {
        // Deterministic output: any numeric difference is drift.
        out.flagged.push_back(
            {series, index, key, b, f, change, false, "deterministic value changed"});
      }
    } else if (base_field.kind() != fresh_field->kind()) {
      out.flagged.push_back({series, index, key, 0, 0, 0, true, "field kind changed"});
    } else if (base_field.dump(-1) != fresh_field->dump(-1)) {
      out.flagged.push_back(
          {series, index, key, 0, 0, 0, false, "non-numeric value changed"});
    }
  }
  for (const auto& [key, fresh_field] : fresh.members()) {
    if (base.find(key) == nullptr) {
      out.flagged.push_back(
          {series, index, key, 0, 0, 0, true, "field missing from baseline"});
    }
  }
}

DiffResult diff_reports(const Value& base, const Value& fresh, double tolerance) {
  DiffResult out;
  const Value* base_series = base.find("series");
  if (base_series == nullptr || !base_series->is_array()) {
    out.flagged.push_back({"", 0, "series", 0, 0, 0, true, "baseline has no series array"});
    return out;
  }
  for (std::size_t i = 0; i < base_series->size(); ++i) {
    const Value& entry = base_series->at(i);
    const Value* name = entry.find("name");
    const std::string series_name =
        name != nullptr && name->is_string() ? name->as_string() : std::to_string(i);
    const Value* fresh_entry = find_series(fresh, series_name);
    if (fresh_entry == nullptr) {
      out.flagged.push_back(
          {series_name, 0, "", 0, 0, 0, true, "series missing from fresh report"});
      continue;
    }
    const Value* base_points = entry.find("points");
    const Value* fresh_points = fresh_entry->find("points");
    if (base_points == nullptr || fresh_points == nullptr ||
        !base_points->is_array() || !fresh_points->is_array()) {
      out.flagged.push_back({series_name, 0, "", 0, 0, 0, true, "points array missing"});
      continue;
    }
    if (base_points->size() != fresh_points->size()) {
      out.flagged.push_back({series_name, 0, "", 0, 0, 0, true,
                             "point count changed (" +
                                 std::to_string(base_points->size()) + " vs " +
                                 std::to_string(fresh_points->size()) + ")"});
      continue;
    }
    for (std::size_t p = 0; p < base_points->size(); ++p) {
      diff_point(series_name, p, base_points->at(p), fresh_points->at(p), tolerance, out);
    }
  }
  // Series present only in the fresh report: structural too — the
  // baseline should be regenerated, not silently extended.
  const Value* fresh_series = fresh.find("series");
  if (fresh_series != nullptr && fresh_series->is_array()) {
    for (std::size_t i = 0; i < fresh_series->size(); ++i) {
      const Value* name = fresh_series->at(i).find("name");
      if (name == nullptr || !name->is_string()) continue;
      if (find_series(base, name->as_string()) == nullptr) {
        out.flagged.push_back(
            {name->as_string(), 0, "", 0, 0, 0, true, "series missing from baseline"});
      }
    }
  }
  return out;
}

Value verdict_to_value(const std::string& baseline_path, const std::string& fresh_path,
                       const DiffResult& result) {
  Value root = Value::object();
  root.set("baseline", baseline_path);
  root.set("fresh", fresh_path);
  root.set("status", result.status());
  root.set("checked", static_cast<std::uint64_t>(result.checked));
  Value flagged = Value::array();
  for (const Flagged& f : result.flagged) {
    Value entry = Value::object();
    entry.set("series", f.series);
    entry.set("point", static_cast<std::uint64_t>(f.point));
    entry.set("metric", f.metric);
    entry.set("structural", f.structural);
    if (!f.structural) {
      entry.set("base", f.base);
      entry.set("fresh", f.fresh);
      entry.set("rel_change", f.rel_change);
    }
    entry.set("note", f.note);
    flagged.push_back(std::move(entry));
  }
  root.set("flagged", std::move(flagged));
  return root;
}

void print_result(const std::string& baseline_path, const std::string& fresh_path,
                  const DiffResult& result) {
  std::printf("prlc_bench_diff: %s vs %s: %s (%zu fields checked, %zu flagged)\n",
              baseline_path.c_str(), fresh_path.c_str(), result.status(), result.checked,
              result.flagged.size());
  for (const Flagged& f : result.flagged) {
    if (f.structural) {
      std::printf("  [structural] %s point %zu %s: %s\n", f.series.c_str(), f.point,
                  f.metric.c_str(), f.note.c_str());
    } else if (f.rel_change > 0) {
      std::printf("  [drift] %s point %zu %s: %g -> %g (%+.0f%%): %s\n", f.series.c_str(),
                  f.point, f.metric.c_str(), f.base, f.fresh, 100.0 * f.rel_change,
                  f.note.c_str());
    } else {
      std::printf("  [drift] %s point %zu %s: %s\n", f.series.c_str(), f.point,
                  f.metric.c_str(), f.note.c_str());
    }
  }
}

/// Scale every noisy metric 2x — the injected regression --self-test
/// expects the diff to flag.
Value degrade(const Value& v, bool under_noisy_key = false) {
  if (v.is_object()) {
    Value out = Value::object();
    for (const auto& [key, member] : v.members()) {
      out.set(key, degrade(member, is_noisy_metric(key)));
    }
    return out;
  }
  if (v.is_array()) {
    Value out = Value::array();
    for (std::size_t i = 0; i < v.size(); ++i) {
      out.push_back(degrade(v.at(i), under_noisy_key));
    }
    return out;
  }
  if (v.is_number() && under_noisy_key) {
    return Value(v.as_double() * 2.0);
  }
  return v;
}

int self_test(const std::string& baseline_path, double tolerance) {
  Value base;
  try {
    base = Value::parse(prlc::json::read_file(baseline_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prlc_bench_diff: %s: %s\n", baseline_path.c_str(), e.what());
    return 1;
  }

  const DiffResult clean = diff_reports(base, base, tolerance);
  if (std::strcmp(clean.status(), "ok") != 0) {
    std::fprintf(stderr, "prlc_bench_diff: self-test FAILED: baseline does not diff "
                         "clean against itself (%s)\n",
                 clean.status());
    print_result(baseline_path, baseline_path, clean);
    return 1;
  }

  const Value degraded = degrade(base);
  const DiffResult slow = diff_reports(base, degraded, tolerance);
  if (!slow.drift()) {
    std::fprintf(stderr, "prlc_bench_diff: self-test FAILED: 2x-degraded copy was not "
                         "flagged as drift (status %s)\n",
                 slow.status());
    return 1;
  }
  std::printf("prlc_bench_diff: self-test ok (%zu fields clean, %zu flagged after 2x "
              "degradation)\n",
              clean.checked, slow.flagged.size());
  return 0;
}

constexpr int kUsageExit = 64;  // EX_USAGE

int usage() {
  std::fprintf(stderr,
               "usage: prlc_bench_diff [--tolerance <rel>] [--soft] [--verdict out.json]\n"
               "                       baseline.json fresh.json\n"
               "       prlc_bench_diff --self-test baseline.json\n");
  return kUsageExit;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tolerance_text = "0.6";
  bool soft = false;
  bool run_self_test = false;
  std::string verdict_path;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--soft") {
      soft = true;
    } else if (arg == "--self-test") {
      run_self_test = true;
    } else if (arg == "--tolerance") {
      if (i + 1 >= argc) return usage();
      tolerance_text = argv[++i];
    } else if (arg.starts_with("--tolerance=")) {
      tolerance_text = arg.substr(12);
    } else if (arg == "--verdict") {
      if (i + 1 >= argc) return usage();
      verdict_path = argv[++i];
    } else if (arg.starts_with("--verdict=")) {
      verdict_path = arg.substr(10);
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "prlc_bench_diff: unknown flag '%s'\n", argv[i]);
      return usage();
    } else {
      files.emplace_back(arg);
    }
  }
  // nan, inf and trailing garbage are rejected: a nan tolerance would
  // pass every timing change, an inf one would switch the gate off.
  const auto parsed = prlc::try_parse_double(tolerance_text);
  if (!parsed || *parsed <= 0.0) {
    std::fprintf(stderr, "prlc_bench_diff: --tolerance wants a positive number, got '%s'\n",
                 tolerance_text.c_str());
    return usage();
  }
  const double tolerance = *parsed;

  if (run_self_test) {
    if (files.size() != 1) return usage();
    return self_test(files[0], tolerance);
  }

  if (files.size() != 2) return usage();

  Value base, fresh;
  try {
    base = Value::parse(prlc::json::read_file(files[0]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prlc_bench_diff: %s: %s\n", files[0].c_str(), e.what());
    return 1;
  }
  try {
    fresh = Value::parse(prlc::json::read_file(files[1]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prlc_bench_diff: %s: %s\n", files[1].c_str(), e.what());
    return 1;
  }

  const DiffResult result = diff_reports(base, fresh, tolerance);
  print_result(files[0], files[1], result);
  if (!verdict_path.empty()) {
    try {
      prlc::json::write_file(verdict_path,
                             verdict_to_value(files[0], files[1], result).dump(2));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prlc_bench_diff: %s: %s\n", verdict_path.c_str(), e.what());
      return 1;
    }
  }
  if (soft) {
    if (std::strcmp(result.status(), "ok") != 0) {
      std::printf("prlc_bench_diff: --soft: reporting %s without failing\n",
                  result.status());
    }
    return 0;
  }
  if (result.structural()) return 1;
  if (result.drift()) return 2;
  return 0;
}
