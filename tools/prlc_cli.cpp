// prlc — command-line driver for the library's experiments.
//
// Subcommands:
//   curve    simulate a decoding curve (GF(2^8))
//              prlc curve --scheme plc --levels 50,100,350 --dist 0.3,0.3,0.4
//                         --from 50 --to 1000 --points 12 --trials 30
//   analyze  analytical decoding curve (exact DP / count-model MC)
//              prlc analyze --scheme slc --levels 200,200,200,200,200
//   design   feasibility search for a priority distribution
//              prlc design --levels 50,100,350 --constraints 130:1,950:2
//                          --alpha 2 --eps 0.01
//   persist  end-to-end overlay experiment (pre-distribution + churn)
//              prlc persist --overlay chord --nodes 300 --levels 20,40,60
//                           --failures 0.2,0.5,0.8 --trials 10
//   timeline rounds of periodic snapshots under a fixed storage budget
//              prlc timeline --levels 10,20,30 --rounds 8 --window 4
//                            --policy decay --churn 0.1
//   metrics  run a small instrumented encode/decode round-trip, print a
//            span profile, and dump the metrics registry as JSON;
//            --timeseries-out / --events-out export the telemetry JSONL
//              prlc metrics --levels 8,16 --out metrics.json
//                           --timeseries-out ts.jsonl --events-out ev.jsonl
//
// Every subcommand but design accepts --seed; curve and persist also
// accept --threads (0 = one per hardware thread, 1 = serial, at most
// runtime::kMaxThreads; results do not depend on the thread count).
// A flag the subcommand never read, a malformed flag value and an argument
// that is not a flag exit 64 with a usage message.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "analysis/analysis_curve.h"
#include "codes/decoder.h"
#include "codes/decoding_curve.h"
#include "codes/encoder.h"
#include "design/feasibility.h"
#include "gf/gf256.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "proto/persistence_experiment.h"
#include "proto/timeline.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

/// Bad flag values are usage errors (exit 64 with a message), not
/// PRLC_REQUIRE aborts: main catches this separately.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

codes::Scheme scheme_from(const Flags& flags) {
  const std::string name = flags.get_string("scheme", "plc");
  const auto scheme = codes::try_scheme_from_string(name);
  if (!scheme) throw UsageError("--scheme wants rlc, slc or plc, got '" + name + "'");
  return *scheme;
}

codes::PrioritySpec spec_from(const Flags& flags, const char* fallback = "50,100,350") {
  const std::string text = flags.get_string("levels", fallback);
  auto spec = codes::try_spec_from_string(text);
  if (!spec) {
    throw UsageError("--levels wants comma-separated positive sizes, got '" + text + "'");
  }
  return *std::move(spec);
}

/// A count flag: an integer of at least `min`. Checked before the cast, so
/// a negative value is a usage error instead of a wrapped huge size.
std::size_t count_from(const Flags& flags, const std::string& name, std::int64_t fallback,
                       std::int64_t min) {
  const auto value = flags.get_int(name, fallback);
  if (value < min) {
    throw UsageError("--" + name + " wants an integer >= " + std::to_string(min) + ", got " +
                     std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

codes::PriorityDistribution dist_from(const Flags& flags, std::size_t levels) {
  const auto values = flags.get_double_list("dist", {});
  if (values.empty()) return codes::PriorityDistribution::uniform(levels);
  return codes::PriorityDistribution{std::vector<double>(values)};
}

std::vector<std::size_t> grid_from(const Flags& flags, std::size_t total) {
  const auto from = count_from(flags, "from", 1, 1);
  const auto to = count_from(flags, "to", static_cast<std::int64_t>(2 * total), 1);
  const auto points = count_from(flags, "points", 12, 1);
  return codes::make_block_counts(from, to, points);
}

int cmd_curve(const Flags& flags) {
  const auto spec = spec_from(flags);
  const auto scheme = scheme_from(flags);
  codes::CurveOptions opt;
  opt.block_counts = grid_from(flags, spec.total());
  opt.trials = count_from(flags, "trials", 30, 1);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.threads = count_from(flags, "threads", 0, 0);
  if (flags.get_bool("sparse", false)) {
    opt.encoder.model = codes::CoefficientModel::kSparse;
    opt.encoder.sparsity_factor = flags.get_double("sparsity-factor", 3.0);
  }
  const auto dist = dist_from(flags, spec.levels());
  const auto curve = codes::simulate_decoding_curve<gf::Gf256>(scheme, spec, dist, opt);
  TablePrinter table({"coded blocks", "E[levels] (95% CI)", "E[block prefix]"});
  for (const auto& p : curve) {
    table.add_row({std::to_string(p.coded_blocks), fmt_mean_ci(p.mean_levels, p.ci95_levels),
                   fmt_double(p.mean_blocks, 1)});
  }
  table.emit("cli_curve");
  return 0;
}

int cmd_analyze(const Flags& flags) {
  const auto spec = spec_from(flags);
  const auto scheme = scheme_from(flags);
  const auto dist = dist_from(flags, spec.levels());
  analysis::AnalysisCurveOptions opt;
  opt.mc_trials = count_from(flags, "mc-trials", 20000, 1);
  opt.mc_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto grid = grid_from(flags, spec.total());
  const auto curve = analysis::analysis_curve(scheme, spec, dist, grid, opt);
  TablePrinter table({"coded blocks", "E[levels]", "backend"});
  for (const auto& p : curve) {
    table.add_row({std::to_string(p.coded_blocks), fmt_double(p.expected_levels, 4),
                   p.exact ? "exact" : "monte-carlo"});
  }
  table.emit("cli_analyze");
  return 0;
}

int cmd_design(const Flags& flags) {
  design::FeasibilityProblem problem;
  problem.spec = spec_from(flags);
  problem.scheme = scheme_from(flags);
  // --constraints M1:k1,M2:k2,...
  const std::string raw = flags.get_string("constraints", "130:1,950:2");
  std::stringstream ss(raw);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw UsageError("--constraints entries must look like M:k, got '" + item + "'");
    }
    const auto blocks = try_parse_u64(item.substr(0, colon));
    const auto levels = try_parse_double(item.substr(colon + 1));
    if (!blocks || !levels) {
      throw UsageError("--constraints entry is not numeric: '" + item + "'");
    }
    problem.decoding.push_back({static_cast<std::size_t>(*blocks), *levels});
  }
  if (flags.get_double("alpha", 2.0) > 0) {
    problem.full_recovery = design::FullRecoveryConstraint{
        flags.get_double("alpha", 2.0), flags.get_double("eps", 0.01)};
  }
  const auto result = design::solve_feasibility(problem);
  std::cout << (result.feasible ? "FEASIBLE" : "infeasible (best effort shown)") << " — "
            << result.evaluations << " evaluations\n";
  TablePrinter table({"level", "p"});
  for (std::size_t i = 0; i < result.distribution.size(); ++i) {
    table.add_row({std::to_string(i + 1), fmt_double(result.distribution[i], 4)});
  }
  table.emit("cli_design");
  for (std::size_t i = 0; i < problem.decoding.size(); ++i) {
    std::cout << "E[X_" << problem.decoding[i].coded_blocks
              << "] = " << fmt_double(result.report.achieved_levels[i], 3)
              << " (required " << fmt_double(problem.decoding[i].min_levels, 2) << ")\n";
  }
  if (result.report.achieved_full_recovery) {
    std::cout << "Pr[full recovery] = " << fmt_double(*result.report.achieved_full_recovery, 4)
              << "\n";
  }
  return result.feasible ? 0 : 2;
}

int cmd_persist(const Flags& flags) {
  proto::PersistenceParams params;
  const std::string overlay = flags.get_string("overlay", "chord");
  if (overlay != "chord" && overlay != "sensor") {
    throw UsageError("--overlay must be chord|sensor, got '" + overlay + "'");
  }
  params.overlay =
      overlay == "chord" ? proto::OverlayKind::kChord : proto::OverlayKind::kSensor;
  params.nodes = count_from(flags, "nodes", 300, 2);
  params.locations = count_from(flags, "locations", 0, 0);
  params.two_choices = flags.get_bool("two-choices", false);
  params.protocol.sparse = flags.get_bool("sparse", false);
  for (double f : flags.get_double_list("failures", {0.0, 0.25, 0.5, 0.75, 0.9})) {
    params.failure_fractions.push_back(f);
  }
  const auto spec = spec_from(flags, "20,40,60");
  params.experiment.level_sizes.assign(spec.level_sizes().begin(), spec.level_sizes().end());
  params.experiment.scheme = scheme_from(flags);
  params.experiment.trials = count_from(flags, "trials", 10, 1);
  params.experiment.root_seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  params.experiment.threads = count_from(flags, "threads", 0, 0);
  const auto points = proto::run_persistence_experiment(params);
  TablePrinter table({"failure fraction", "surviving blocks", "decoded levels (95% CI)",
                      "decoded block prefix"});
  for (const auto& p : points) {
    table.add_row({fmt_double(p.failure_fraction, 2), fmt_double(p.mean_surviving_blocks, 1),
                   fmt_mean_ci(p.mean_decoded_levels, p.ci95_decoded_levels, 2),
                   fmt_double(p.mean_decoded_blocks, 1)});
  }
  table.emit("cli_persist");
  return 0;
}

int cmd_timeline(const Flags& flags) {
  const auto spec = spec_from(flags, "10,20,30");
  const auto dist = dist_from(flags, spec.levels());
  const auto rounds = count_from(flags, "rounds", 8, 1);
  const double churn = flags.get_double("churn", 0.1);
  if (churn < 0.0 || churn >= 1.0) throw UsageError("--churn must be in [0,1)");

  net::ChordParams np;
  np.nodes = count_from(flags, "nodes", 300, 2);
  np.locations =
      count_from(flags, "locations", static_cast<std::int64_t>(4 * spec.total()), 1);
  np.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  net::ChordNetwork overlay(np);

  proto::TimelineParams params;
  params.scheme = scheme_from(flags);
  params.window = count_from(flags, "window", 4, 1);
  const std::string policy = flags.get_string("policy", "window");
  if (policy != "window" && policy != "decay") {
    throw UsageError("--policy must be window|decay, got '" + policy + "'");
  }
  params.policy = policy == "window" ? proto::RetentionPolicy::kSlidingWindow
                                     : proto::RetentionPolicy::kExponentialDecay;
  proto::TimelineStore store(overlay, spec, dist, params);

  Rng rng(np.seed ^ 0x7e11);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto snap =
        codes::SourceData<proto::Field>::random(spec.total(), params.block_size, rng);
    store.ingest(snap, rng);
    if (churn > 0) net::kill_uniform_fraction(overlay, churn, rng);
  }

  TablePrinter table({"round", "age", "storage share", "blocks retrievable",
                      "decoded levels", "decoded blocks"});
  for (std::size_t id : store.retained_rounds()) {
    const auto q = store.query(id, rng);
    if (!q.has_value()) continue;
    table.add_row({std::to_string(q->round_id), std::to_string(q->age),
                   std::to_string(q->locations_allotted),
                   std::to_string(q->blocks_retrievable), std::to_string(q->decoded_levels),
                   std::to_string(q->decoded_blocks)});
  }
  table.emit("cli_timeline");
  return 0;
}

int cmd_metrics(const Flags& flags) {
  // The point of this subcommand is to see the probes fire, so arm them
  // before any field op (that also captures the kernel dispatch gauges).
  obs::set_enabled(true);
  obs::set_telemetry_enabled(true);
  obs::TraceRecorder::global().start();

  const auto spec = spec_from(flags, "8,16,24");
  const auto scheme = scheme_from(flags);
  const auto block_size = count_from(flags, "block-size", 64, 1);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));

  // The decoder's row counters and prefix watermark, sampled after every
  // coded block, each into the series of the same name.
  const obs::Counter& received = obs::counter("decoder.rows_received");
  const obs::Counter& innovative = obs::counter("decoder.rows_innovative");
  const obs::Counter& redundant = obs::counter("decoder.rows_redundant");
  const obs::Gauge& watermark = obs::gauge("decoder.prefix_watermark");
  const obs::SeriesId received_series = obs::timeseries("decoder.rows_received");
  const obs::SeriesId innovative_series = obs::timeseries("decoder.rows_innovative");
  const obs::SeriesId redundant_series = obs::timeseries("decoder.rows_redundant");
  const obs::SeriesId watermark_series = obs::timeseries("decoder.prefix_watermark");

  // Small encode/decode round-trip with payloads: encoder draws, field
  // kernels, and the progressive decoder's innovative/redundant split all
  // light up in the dump.
  const auto source = codes::SourceData<gf::Gf256>::random(spec.total(), block_size, rng);
  const codes::PriorityEncoder<gf::Gf256> enc(scheme, spec, {}, &source);
  const auto dist = codes::PriorityDistribution::uniform(spec.levels());
  codes::PriorityDecoder<gf::Gf256> dec(scheme, spec, block_size);
  std::size_t blocks = 0;
  {
    // One telemetry trial covers the whole round-trip; logical time is
    // the coded-block index, so the decoder series read as
    // decode-progress curves (blocks in vs. watermark out). The scope
    // must close before the exports below: rings flush on close.
    const obs::TrialScope telemetry(obs::begin_telemetry_run(), 0);
    while (dec.decoded_prefix_blocks() < spec.total() && blocks < 4 * spec.total()) {
      obs::set_logical_time(blocks);
      auto coded = [&] {
        const obs::ScopedSpan span("encode_block", "cli");
        return enc.encode_random(dist, rng);
      }();
      {
        const obs::ScopedSpan span("decode_block", "cli");
        dec.add(std::move(coded));
      }
      obs::sample(received_series, static_cast<double>(received.value()));
      obs::sample(innovative_series, static_cast<double>(innovative.value()));
      obs::sample(redundant_series, static_cast<double>(redundant.value()));
      obs::sample(watermark_series, static_cast<double>(watermark.value()));
      ++blocks;
    }
  }
  std::cout << "round-trip: " << spec.total() << " source blocks, " << blocks
            << " coded blocks, " << dec.decoded_levels() << "/" << spec.levels()
            << " levels decoded\n";

  obs::TraceRecorder::global().stop();
  std::cout << "span profile (self/total):\n"
            << obs::profile_to_text(obs::build_profile(obs::TraceRecorder::global()));

  const std::string out = flags.get_string("out", "");
  if (out.empty()) {
    std::cout << obs::Registry::global().to_json() << "\n";
  } else {
    json::write_file(out, obs::Registry::global().to_json());
    std::cout << "metrics json: " << out << "\n";
  }
  const std::string timeseries_out = flags.get_string("timeseries-out", "");
  if (!timeseries_out.empty()) {
    json::write_file(timeseries_out, obs::Journal::global().timeseries_jsonl());
    std::cout << "timeseries jsonl: " << timeseries_out << "\n";
  }
  const std::string events_out = flags.get_string("events-out", "");
  if (!events_out.empty()) {
    json::write_file(events_out, obs::Journal::global().events_jsonl());
    std::cout << "events jsonl: " << events_out << "\n";
  }
  return 0;
}

int usage() {
  std::cerr << "usage: prlc <curve|analyze|design|persist|timeline|metrics> [--flags]\n"
               "see the header of tools/prlc_cli.cpp for per-command flags\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Flags flags = Flags::parse(argc - 2, argv + 2);
    if (!flags.positional().empty()) {
      throw UsageError("unexpected argument '" + flags.positional().front() + "'");
    }
    int rc;
    if (cmd == "curve") {
      rc = cmd_curve(flags);
    } else if (cmd == "analyze") {
      rc = cmd_analyze(flags);
    } else if (cmd == "design") {
      rc = cmd_design(flags);
    } else if (cmd == "persist") {
      rc = cmd_persist(flags);
    } else if (cmd == "timeline") {
      rc = cmd_timeline(flags);
    } else if (cmd == "metrics") {
      rc = cmd_metrics(flags);
    } else {
      return usage();
    }
    // Checked after the run: `metrics` reads its output paths last.
    if (!flags.unused().empty()) {
      throw UsageError("prlc " + cmd + " does not read --" + flags.unused().front());
    }
    return rc;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const PreconditionError& e) {
    // Every precondition a CLI run can violate traces back to a flag
    // value (the commands build all inputs from flags), so report it as
    // a usage error rather than an internal failure.
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
