// Ablation — end-to-end differentiated persistence under node failure.
//
// The paper's motivating scenario assembled from all substrates: deploy
// an overlay (sensor field / Chord ring), pre-distribute priority-coded
// measurement data per Sec. 4, kill a growing fraction of nodes, and let
// a collector decode what survives. Expected shape: decoded levels
// degrade gracefully for PLC (important levels die last), SLC sits below
// PLC, and RLC falls off a cliff once survivors < N.
//
// Trials run through runtime::TrialRunner: `--threads N` changes only
// wall-clock, never the numbers — `--json` output is byte-identical for
// the same `--seed` at any thread count.
#include <iostream>

#include "bench_common.h"
#include "proto/persistence_experiment.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

/// Problem size: full-size reproduces the paper's scale; fast mode (smoke
/// runs) shrinks the network and spec so even `--trials 64` finishes in
/// seconds.
struct Shape {
  std::size_t sensor_nodes;
  std::size_t chord_nodes;
  std::vector<std::size_t> level_sizes;
  std::size_t locations;
  std::vector<double> failure_fractions;
};

Shape shape() {
  if (bench::fast_mode()) {
    return {100, 80, {5, 10, 15}, 60, {0.0, 0.4, 0.7, 0.9}};
  }
  return {400, 250, {20, 40, 60, 80}, 400, {0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}};
}

void run_overlay(proto::OverlayKind kind, const Shape& shape, std::size_t trials,
                 std::uint64_t seed, bench::BenchReport& report) {
  proto::PersistenceParams base;
  base.overlay = kind;
  base.nodes = kind == proto::OverlayKind::kSensor ? shape.sensor_nodes : shape.chord_nodes;
  base.locations = shape.locations;
  base.failure_fractions = shape.failure_fractions;
  base.experiment.level_sizes = shape.level_sizes;
  base.experiment.trials = trials;
  base.experiment.root_seed = seed;
  base.experiment.threads = bench::options().threads;

  std::vector<std::string> headers = {"failure fraction", "surviving blocks"};
  std::vector<std::vector<proto::PersistencePoint>> rows;
  std::vector<const char*> names;
  const std::pair<codes::Scheme, const char*> schemes[] = {
      {codes::Scheme::kPlc, "plc"},
      {codes::Scheme::kSlc, "slc"},
      {codes::Scheme::kRlc, "rlc"}};
  for (const auto& [scheme, name] : schemes) {
    if (!bench::options().scheme_enabled(scheme)) continue;
    auto params = base;
    params.experiment.scheme = scheme;
    rows.push_back(run_persistence_experiment(params));
    names.push_back(name);
    headers.push_back(std::string(to_string(scheme)) + " levels (95% CI)");
  }
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const std::string series = std::string(names[s]) + "/" + to_string(kind);
    for (const auto& point : rows[s]) {
      report.add_point(series,
                       {{"failure_fraction", point.failure_fraction},
                        {"surviving_blocks", point.mean_surviving_blocks},
                        {"decoded_levels", point.mean_decoded_levels},
                        {"decoded_levels_ci95", point.ci95_decoded_levels},
                        {"decoded_blocks", point.mean_decoded_blocks},
                        {"dissemination_hops", point.mean_dissemination_hops}});
    }
  }
  TablePrinter table(headers);
  for (std::size_t i = 0; i < base.failure_fractions.size(); ++i) {
    std::vector<std::string> row = {fmt_double(base.failure_fractions[i], 1),
                                    fmt_double(rows[0][i].mean_surviving_blocks, 1)};
    for (const auto& scheme_row : rows) {
      row.push_back(fmt_mean_ci(scheme_row[i].mean_decoded_levels,
                                scheme_row[i].ci95_decoded_levels, 2));
    }
    table.add_row(row);
  }
  std::size_t total = 0;
  for (std::size_t n : shape.level_sizes) total += n;
  std::cout << "\nOverlay: " << to_string(kind) << " (" << base.nodes << " nodes, "
            << base.locations << " locations, N = " << total << ")\n";
  table.emit(std::string("abl_persistence_") + to_string(kind));
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--scheme", "--json"});
  bench::banner("Ablation — end-to-end persistence under churn",
                "Pre-distribution protocol + uniform mass failures + collection.");
  const Shape s = shape();
  const std::size_t trials = bench::options().trials_or(12, 3);
  const std::uint64_t seed = bench::options().seed_or(97);
  bench::BenchReport report("abl_persistence_e2e");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("levels", [&] {
    json::Value v = json::Value::array();
    for (std::size_t n : s.level_sizes) v.push_back(n);
    return v;
  }());
  run_overlay(proto::OverlayKind::kChord, s, trials, seed, report);
  run_overlay(proto::OverlayKind::kSensor, s, trials, seed, report);
  std::cout << "\nExpected shape: all schemes hold until survivors ~ N; past that RLC\n"
               "drops to zero at once while PLC sheds low-priority levels first and\n"
               "keeps level 1 alive deep into the failure sweep; SLC between.\n";
  bench::finalize(&report);
  return 0;
}
