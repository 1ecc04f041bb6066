#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string_view>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "util/check.h"
#include "util/flags.h"

namespace prlc::bench {

bool fast_mode() {
  const char* v = std::getenv("PRLC_BENCH_FAST");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::size_t trials(std::size_t full, std::size_t fast) { return fast_mode() ? fast : full; }

void banner(const std::string& title, const std::string& description) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << description << "\n";
  if (fast_mode()) std::cout << "(PRLC_BENCH_FAST: reduced trial counts)\n";
  std::cout << "==============================================================\n";
}

namespace {

Options g_options;
/// The optional flags the running bench reads (parse_args' `reads`).
std::vector<std::string_view> g_reads;

constexpr int kUsageExit = 64;  // EX_USAGE

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n"
            << "this bench reads:";
  for (const std::string_view name : g_reads) std::cerr << ' ' << name;
  std::cerr << " --metrics-json --trace-json --events-jsonl --timeseries-jsonl\n"
            << "(bench/bench_common.h describes every bench flag)\n";
  std::exit(kUsageExit);
}

/// Match `--name value` / `--name=value`; on a hit, store the value and
/// report how many argv slots were consumed (1 or 2). An empty value is a
/// usage error: stored empty, it would read as "not given".
std::size_t match_flag(std::string_view name, int argc, char** argv, int i,
                       std::string& out) {
  const std::string_view arg = argv[i];
  std::size_t used = 0;
  if (arg == name) {
    if (i + 1 >= argc) usage_error(std::string(name) + " is missing its value");
    out = argv[i + 1];
    used = 2;
  } else if (arg.size() > name.size() && arg.starts_with(name) && arg[name.size()] == '=') {
    out = std::string(arg.substr(name.size() + 1));
    used = 1;
  } else {
    return 0;
  }
  if (out.empty()) usage_error(std::string(name) + " wants a value, got ''");
  return used;
}

/// Byte-count parse: decimal digits with an optional single k/m/g suffix
/// (case-insensitive, binary units). nullopt on garbage, overflow, or
/// zero — every byte-count flag wants a positive value.
std::optional<std::size_t> try_parse_bytes(std::string_view text) {
  std::uint64_t mult = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': mult = std::uint64_t{1} << 10; break;
      case 'm': case 'M': mult = std::uint64_t{1} << 20; break;
      case 'g': case 'G': mult = std::uint64_t{1} << 30; break;
      default: break;
    }
    if (mult != 1) text.remove_suffix(1);
  }
  const auto value = try_parse_u64(text);
  if (!value || *value == 0) return std::nullopt;
  if (*value > std::numeric_limits<std::uint64_t>::max() / mult) return std::nullopt;
  return static_cast<std::size_t>(*value * mult);
}

}  // namespace

const Options& options() { return g_options; }

void parse_args(int& argc, char** argv, UnknownArgs unknown,
                std::initializer_list<std::string_view> reads) {
  g_options = Options{};
  g_reads.assign(reads.begin(), reads.end());
  std::string trials_text, seed_text, threads_text, scheme_text;
  std::string payload_text;
  std::string nodes_text, churn_text, repair_text;
  std::string rot_text, byzantine_text, scrub_text;
  // Every flag and where its value goes: an optional flag is accepted only
  // when the bench reads it; the outputs finalize() writes, everywhere.
  using Flag = std::pair<std::string_view, std::string*>;
  const Flag optional_flags[] = {
      {"--trials", &trials_text},
      {"--seed", &seed_text},
      {"--threads", &threads_text},
      {"--scheme", &scheme_text},
      {"--payload-bytes", &payload_text},
      {"--nodes", &nodes_text},
      {"--churn-rate", &churn_text},
      {"--repair-bw", &repair_text},
      {"--rot-rate", &rot_text},
      {"--byzantine-rate", &byzantine_text},
      {"--scrub-interval", &scrub_text},
      {"--json", &g_options.json_path}};
  const Flag output_flags[] = {
      {"--metrics-json", &g_options.metrics_json_path},
      {"--trace-json", &g_options.trace_json_path},
      {"--events-jsonl", &g_options.events_jsonl_path},
      {"--timeseries-jsonl", &g_options.timeseries_jsonl_path}};
  for (const std::string_view name : reads) {
    PRLC_REQUIRE(std::ranges::find(optional_flags, name, &Flag::first) != std::end(optional_flags),
                 "a bench can only read the optional flags bench_common.h lists");
  }
  int out = 1;
  for (int i = 1; i < argc;) {
    std::size_t used = 0;
    for (const auto& [name, text] : optional_flags) {
      if (used != 0) break;
      used = match_flag(name, argc, argv, i, *text);
      if (used != 0 && std::ranges::find(reads, name) == reads.end()) {
        usage_error("this bench does not read " + std::string(name));
      }
    }
    for (const auto& [name, text] : output_flags) {
      if (used == 0) used = match_flag(name, argc, argv, i, *text);
    }
    if (used == 0) {
      argv[out++] = argv[i++];
    } else {
      i += static_cast<int>(used);
    }
  }
  argc = out;
  argv[argc] = nullptr;

  if (unknown == UnknownArgs::kReject && argc > 1) {
    usage_error(std::string("unknown argument '") + argv[1] + "'");
  }
  if (!trials_text.empty()) {
    const auto trials = try_parse_u64(trials_text);
    if (!trials || *trials == 0) {
      usage_error("--trials wants a positive integer, got '" + trials_text + "'");
    }
    g_options.trials = static_cast<std::size_t>(*trials);
  }
  if (!seed_text.empty()) {
    const auto seed = try_parse_u64(seed_text);
    if (!seed) usage_error("--seed wants an unsigned integer, got '" + seed_text + "'");
    g_options.seed = *seed;
  }
  if (!threads_text.empty()) {
    const auto count = try_parse_u64(threads_text);
    if (!count || *count > runtime::kMaxThreads) {
      usage_error("--threads wants an integer in [0, " + std::to_string(runtime::kMaxThreads) +
                  "], got '" + threads_text + "'");
    }
    g_options.threads = static_cast<std::size_t>(*count);
  }
  if (!scheme_text.empty()) {
    const auto scheme = codes::try_scheme_from_string(scheme_text);
    if (!scheme) usage_error("--scheme wants rlc, slc or plc, got '" + scheme_text + "'");
    g_options.scheme = *scheme;
  }
  if (!payload_text.empty()) {
    const auto bytes = try_parse_bytes(payload_text);
    if (!bytes) {
      usage_error("--payload-bytes wants a positive byte count (k/m/g suffixes ok), got '" +
                  payload_text + "'");
    }
    g_options.payload_bytes = *bytes;
  }
  if (!nodes_text.empty()) {
    const auto nodes = try_parse_u64(nodes_text);
    if (!nodes || *nodes == 0) {
      usage_error("--nodes wants a positive integer, got '" + nodes_text + "'");
    }
    g_options.nodes = static_cast<std::size_t>(*nodes);
  }
  if (!churn_text.empty()) {
    const auto rate = try_parse_double(churn_text);
    if (!rate || *rate <= 0.0) {
      usage_error("--churn-rate wants a positive rate, got '" + churn_text + "'");
    }
    g_options.churn_rate = *rate;
  }
  if (!repair_text.empty()) {
    const auto bw = try_parse_double(repair_text);
    if (!bw || *bw <= 0.0) {
      usage_error("--repair-bw wants a positive bandwidth, got '" + repair_text + "'");
    }
    g_options.repair_bw = *bw;
  }
  if (!rot_text.empty()) {
    const auto rate = try_parse_double(rot_text);
    if (!rate || *rate < 0.0) {
      usage_error("--rot-rate wants a nonnegative rate, got '" + rot_text + "'");
    }
    g_options.rot_rate = *rate;
  }
  if (!byzantine_text.empty()) {
    const auto fraction = try_parse_double(byzantine_text);
    if (!fraction || *fraction < 0.0 || *fraction > 1.0) {
      usage_error("--byzantine-rate wants a fraction in [0,1], got '" +
                  byzantine_text + "'");
    }
    g_options.byzantine_rate = *fraction;
  }
  if (!scrub_text.empty()) {
    const auto interval = try_parse_double(scrub_text);
    if (!interval || *interval < 0.0) {
      usage_error("--scrub-interval wants a nonnegative period, got '" + scrub_text +
                  "'");
    }
    g_options.scrub_interval = *interval;
  }

  if (!g_options.metrics_json_path.empty() || !g_options.trace_json_path.empty()) {
    obs::set_enabled(true);
  }
  if (!g_options.trace_json_path.empty()) {
    obs::TraceRecorder::global().start();
  }
  if (!g_options.events_jsonl_path.empty() || !g_options.timeseries_jsonl_path.empty()) {
    obs::set_telemetry_enabled(true);
  }
}

void BenchReport::set_config(const std::string& key, json::Value value) {
  config_.set(key, std::move(value));
}

void BenchReport::add_point(const std::string& series,
                            std::vector<std::pair<std::string, json::Value>> fields) {
  std::size_t idx = 0;
  while (idx < series_order_.size() && series_order_[idx] != series) ++idx;
  if (idx == series_order_.size()) {
    series_order_.push_back(series);
    series_points_.emplace_back();
  }
  json::Value point = json::Value::object();
  for (auto& [key, value] : fields) point.set(key, std::move(value));
  series_points_[idx].push_back(std::move(point));
}

void BenchReport::set_profile(json::Value profile) { profile_ = std::move(profile); }

json::Value BenchReport::to_value() const {
  json::Value root = json::Value::object();
  root.set("bench", json::Value(name_));
  root.set("fast_mode", json::Value(fast_mode()));
  root.set("config", config_);
  if (profile_.has_value()) root.set("profile", *profile_);
  json::Value series = json::Value::array();
  for (std::size_t i = 0; i < series_order_.size(); ++i) {
    json::Value entry = json::Value::object();
    entry.set("name", json::Value(series_order_[i]));
    json::Value points = json::Value::array();
    for (const auto& p : series_points_[i]) points.push_back(p);
    entry.set("points", std::move(points));
    series.push_back(std::move(entry));
  }
  root.set("series", std::move(series));
  return root;
}

void finalize(BenchReport* report) {
  // Stop the trace before anything reads it so the span profile and the
  // written timeline agree.
  if (!g_options.trace_json_path.empty()) obs::TraceRecorder::global().stop();
  if (report != nullptr && !g_options.json_path.empty() &&
      !g_options.trace_json_path.empty()) {
    const obs::ProfileNode profile = obs::build_profile(obs::TraceRecorder::global());
    report->set_profile(json::Value::parse(obs::profile_to_json(profile)));
  }
  // Try every requested output, so one bad path costs no other file; an
  // unwritable path is a usage error, reported once all were tried.
  bool all_written = true;
  const auto write = [&all_written](const std::string& path, const char* label,
                                    const auto& content) {
    if (path.empty()) return;
    const std::string text = content();
    try {
      json::write_file(path, text);
    } catch (const PreconditionError&) {
      std::cerr << "error: cannot write " << path << "\n";
      all_written = false;
      return;
    }
    std::cout << label << ": " << path << "\n";
  };
  if (report != nullptr) {
    write(g_options.json_path, "bench json", [report] { return report->to_value().dump(2); });
  }
  write(g_options.metrics_json_path, "metrics json",
        [] { return obs::Registry::global().to_json(); });
  write(g_options.trace_json_path, "trace json",
        [] { return obs::TraceRecorder::global().to_json(); });
  write(g_options.events_jsonl_path, "events jsonl",
        [] { return obs::Journal::global().events_jsonl(); });
  write(g_options.timeseries_jsonl_path, "timeseries jsonl",
        [] { return obs::Journal::global().timeseries_jsonl(); });
  if (!all_written) std::exit(kUsageExit);
}

}  // namespace prlc::bench
