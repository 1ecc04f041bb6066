// Shared conventions for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md's experiment index): it prints the series as an aligned text
// table and, when PRLC_BENCH_CSV_DIR is set, mirrors it to CSV.
// PRLC_BENCH_FAST=1 shrinks trial counts for smoke runs.
//
// Flags. Every bench main calls parse_args(), which strips these flags
// out of argv (both `--flag value` and `--flag=value` forms) so
// downstream parsers — e.g. google-benchmark's — never see them. The
// optional ones, from --trials to --json, count only where the bench
// declares that it reads them:
//   --trials <n>           override the bench's trial count
//   --seed <u64>           override the bench's root seed
//   --threads <n>          Monte-Carlo thread budget (0 = hardware, 1 = serial,
//                          at most runtime::kMaxThreads)
//   --scheme <rlc|slc|plc> restrict a multi-scheme bench to one scheme
//   --payload-bytes <n>    payload size for throughput benches (positive;
//                          suffixes k/m/g = KiB/MiB/GiB accepted)
//   --nodes <n>            cluster size for simulator benches (positive)
//   --churn-rate <x>       failures per node per unit time (positive)
//   --repair-bw <x>        repair bandwidth in blocks per unit time
//                          (positive)
//   --rot-rate <x>         per-block silent bit-rot hazard (nonnegative)
//   --byzantine-rate <x>   fraction of Byzantine nodes (in [0,1])
//   --scrub-interval <x>   integrity scrub period; 0 disables scrubbing
//                          (nonnegative)
//   --json <path>          structured bench results (BenchReport)
// and four outputs finalize() writes for every bench:
//   --metrics-json <path>  dump of the obs::Registry after the run
//   --trace-json <path>    Chrome-tracing timeline (chrome://tracing,
//                          Perfetto) of the run
//   --events-jsonl <path>  the journal's deterministic typed events
//   --timeseries-jsonl <path>  the journal's deterministic logical-time
//                          series (either flag arms the whole journal)
// A malformed or empty value ("--trials zero", "--scheme xyz",
// "--json ''", "--threads=") and an optional flag the bench does not read
// ("--threads" on a bench without a trial loop, "--json" on one that
// writes no report) are usage errors: parse_args prints a message to
// stderr and exits with code 64 before any work runs; it never aborts
// through PRLC_REQUIRE.
//
// The metrics/trace flags enable the metrics probes and the two journal
// flags arm the telemetry switch; both switches start off, so a plain
// bench invocation stays on the zero-overhead disabled path. finalize()
// writes whichever outputs were requested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codes/scheme.h"
#include "util/json.h"

namespace prlc::bench {

/// True when PRLC_BENCH_FAST is set to a nonempty, non-"0" value.
bool fast_mode();

/// `full` normally, `fast` under PRLC_BENCH_FAST.
std::size_t trials(std::size_t full, std::size_t fast);

/// Print the bench banner: which figure/table of the paper this is.
void banner(const std::string& title, const std::string& description);

/// Everything parse_args() stripped from argv. Empty string / nullopt
/// means "not requested on the command line".
struct Options {
  std::optional<std::size_t> trials;     ///< --trials
  std::optional<std::uint64_t> seed;     ///< --seed
  std::size_t threads = 0;               ///< --threads (TrialRunner convention)
  std::optional<codes::Scheme> scheme;   ///< --scheme
  std::optional<std::size_t> payload_bytes;  ///< --payload-bytes
  std::optional<std::size_t> nodes;          ///< --nodes
  std::optional<double> churn_rate;          ///< --churn-rate
  std::optional<double> repair_bw;           ///< --repair-bw
  std::optional<double> rot_rate;            ///< --rot-rate
  std::optional<double> byzantine_rate;      ///< --byzantine-rate
  std::optional<double> scrub_interval;      ///< --scrub-interval
  std::string json_path;
  std::string metrics_json_path;
  std::string trace_json_path;
  std::string events_jsonl_path;      ///< --events-jsonl
  std::string timeseries_jsonl_path;  ///< --timeseries-jsonl

  /// Trial count: the --trials override if given, else the fast/full pair.
  std::size_t trials_or(std::size_t full, std::size_t fast) const {
    return trials ? *trials : (fast_mode() ? fast : full);
  }

  /// Root seed: the --seed override if given, else the bench's default.
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed ? *seed : fallback;
  }

  /// Whether a multi-scheme bench should run scheme `s` (--scheme filters).
  bool scheme_enabled(codes::Scheme s) const {
    return !scheme.has_value() || *scheme == s;
  }
};

/// The options parsed by the most recent parse_args() call.
const Options& options();

/// What to do with argv entries parse_args() does not recognize.
/// kReject (the default) treats any leftover argument as a usage error;
/// kKeep leaves them in argv for a downstream parser (perf_codec hands
/// --benchmark_* flags to google-benchmark this way).
enum class UnknownArgs { kReject, kKeep };

/// Strip the flags above out of argc/argv and arm the requested sinks:
/// metrics/trace paths enable obs metrics, the trace path also starts the
/// global TraceRecorder. `reads` names the optional flags the bench reads
/// ("--trials", "--seed", "--threads", "--json", ...); the default is
/// perf_pipeline's. A missing, empty or malformed flag value, an optional
/// flag outside `reads` (under either UnknownArgs) or, under
/// UnknownArgs::kReject, any unrecognized argument prints a usage error
/// and exits 64. Safe to call before benchmark::Initialize().
void parse_args(int& argc, char** argv, UnknownArgs unknown = UnknownArgs::kReject,
                std::initializer_list<std::string_view> reads = {"--trials", "--seed",
                                                                 "--json"});

/// Accumulates one bench's structured results for --json.
///
///   BenchReport report("fig6_slc_vs_plc");
///   report.set_config("trials", trials);
///   report.add_point("plc/sensor", {{"failure_fraction", f},
///                                   {"decoded_levels", levels}});
///   bench::finalize(&report);
///
/// Serialized shape:
///   {"bench": name, "config": {...},
///    "series": [{"name": s, "points": [{...}, ...]}, ...]}
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void set_config(const std::string& key, json::Value value);
  void add_point(const std::string& series,
                 std::vector<std::pair<std::string, json::Value>> fields);

  /// Attach a span-aggregation profile tree (see obs/profile.h); emitted
  /// as a top-level "profile" key. finalize() fills this in when both
  /// --json and --trace-json were requested.
  void set_profile(json::Value profile);

  json::Value to_value() const;

 private:
  std::string name_;
  json::Value config_ = json::Value::object();
  std::optional<json::Value> profile_;
  std::vector<std::string> series_order_;
  std::vector<std::vector<json::Value>> series_points_;
};

/// Write every output requested via parse_args(): the report (when
/// non-null and --json was given, with the span profile embedded when a
/// trace was captured too), the metrics registry, the trace, and the
/// journal's events / time-series JSONL files. Every output is tried; if
/// any path cannot be written, each failure prints
/// "error: cannot write <path>" and the process exits 64 afterwards.
/// Call once at the end of main.
void finalize(BenchReport* report = nullptr);

}  // namespace prlc::bench
