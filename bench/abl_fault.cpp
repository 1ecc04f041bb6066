// Ablation — retrieval under fault injection: graceful degradation vs
// the RLC cliff.
//
// The persistence bench kills nodes *before* collection; this one breaks
// the retrieval itself. One deployment per trial plus a fixed churn wave,
// then the collector pulls every block through a FaultyChannel whose
// fault rates (timeouts, transient errors, CRC-caught corruption and
// truncation, mid-collection crashes, stragglers) sweep upward. Expected
// shape: decoded levels degrade monotonically as the fault scale rises;
// PLC sheds trailing levels first and keeps the leading ones deep into
// the sweep, while RLC — needing every one of the N unknowns — falls off
// a cliff as soon as crashes, blacklisting and retry exhaustion push the
// delivered-block count below N.
//
// Trials run through runtime::TrialRunner: `--threads N` changes only
// wall-clock, never the numbers — `--json` output is byte-identical for
// the same `--seed` at any thread count, faults included.
#include <iostream>

#include "bench_common.h"
#include "proto/fault_experiment.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

struct Shape {
  std::size_t nodes;
  std::vector<std::size_t> level_sizes;
  std::size_t locations;
  double churn_fraction;
  std::vector<double> fault_scales;
};

Shape shape() {
  if (bench::fast_mode()) {
    return {100, {5, 10, 15}, 60, 0.3, {0.0, 1.0, 2.0, 4.0}};
  }
  return {300, {20, 40, 60, 80}, 400, 0.4, {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}};
}

/// Base profile at scale 1.0 — mild adversity; the sweep multiplies it.
net::FaultSpec base_faults() {
  net::FaultSpec f;
  f.timeout_rate = 0.03;
  f.transient_rate = 0.04;
  f.corrupt_rate = 0.04;
  f.truncate_rate = 0.01;
  f.crash_rate = 0.015;
  f.slow_fraction = 0.15;
  f.slow_multiplier = 8.0;
  f.flaky_fraction = 0.1;
  f.flaky_multiplier = 3.0;
  f.mean_latency_us = 300;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--scheme", "--json"});
  bench::banner("Ablation — collection under fault injection",
                "Timeouts, corruption, stragglers and crashes during retrieval; "
                "self-healing collector with retries, budgets and hedging.");
  const Shape s = shape();
  const std::size_t trials = bench::options().trials_or(12, 3);
  const std::uint64_t seed = bench::options().seed_or(131);
  bench::BenchReport report("abl_fault");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("churn_fraction", s.churn_fraction);
  report.set_config("levels", [&] {
    json::Value v = json::Value::array();
    for (std::size_t n : s.level_sizes) v.push_back(n);
    return v;
  }());

  proto::FaultSweepParams base;
  base.overlay = proto::OverlayKind::kSensor;
  base.nodes = s.nodes;
  base.locations = s.locations;
  base.experiment.level_sizes = s.level_sizes;
  base.experiment.trials = trials;
  base.experiment.root_seed = seed;
  base.experiment.threads = bench::options().threads;
  base.churn_fraction = s.churn_fraction;
  for (const double scale : s.fault_scales) base.faults.push_back(base_faults().scaled(scale));

  std::vector<std::vector<proto::FaultPoint>> rows;
  std::vector<const char*> names;
  std::vector<std::string> headers = {"fault scale"};
  const std::pair<codes::Scheme, const char*> schemes[] = {
      {codes::Scheme::kPlc, "plc"},
      {codes::Scheme::kSlc, "slc"},
      {codes::Scheme::kRlc, "rlc"}};
  for (const auto& [scheme, name] : schemes) {
    if (!bench::options().scheme_enabled(scheme)) continue;
    auto params = base;
    params.experiment.scheme = scheme;
    rows.push_back(run_fault_experiment(params));
    names.push_back(name);
    headers.push_back(std::string(name) + " levels (95% CI)");
  }
  headers.insert(headers.end(), {"retries", "hedges", "wire errs", "lost"});

  for (std::size_t sidx = 0; sidx < rows.size(); ++sidx) {
    for (std::size_t i = 0; i < s.fault_scales.size(); ++i) {
      const proto::FaultPoint& point = rows[sidx][i];
      report.add_point(names[sidx],
                       {{"fault_scale", s.fault_scales[i]},
                        {"decoded_levels", point.mean_decoded_levels},
                        {"decoded_levels_ci95", point.ci95_decoded_levels},
                        {"decoded_blocks", point.mean_decoded_blocks},
                        {"blocks_retrieved", point.mean_blocks_retrieved},
                        {"blocks_lost", point.mean_blocks_lost},
                        {"retries", point.mean_retries},
                        {"hedges", point.mean_hedges},
                        {"wire_errors", point.mean_wire_errors},
                        {"timeouts", point.mean_timeouts},
                        {"transient_errors", point.mean_transient_errors},
                        {"crashes", point.mean_crashes},
                        {"blacklisted_nodes", point.mean_blacklisted},
                        {"degraded_fraction", point.degraded_fraction}});
    }
  }

  TablePrinter table(headers);
  for (std::size_t i = 0; i < s.fault_scales.size(); ++i) {
    std::vector<std::string> row = {fmt_double(s.fault_scales[i], 1)};
    for (const auto& scheme_row : rows) {
      row.push_back(fmt_mean_ci(scheme_row[i].mean_decoded_levels,
                                scheme_row[i].ci95_decoded_levels, 2));
    }
    // The ledger columns summarize the first scheme's run (they track the
    // channel, not the code, and are near-identical across schemes).
    row.push_back(fmt_double(rows[0][i].mean_retries, 1));
    row.push_back(fmt_double(rows[0][i].mean_hedges, 1));
    row.push_back(fmt_double(rows[0][i].mean_wire_errors, 1));
    row.push_back(fmt_double(rows[0][i].mean_blocks_lost, 1));
    table.add_row(row);
  }
  std::size_t total = 0;
  for (std::size_t n : s.level_sizes) total += n;
  std::cout << "\nSensor overlay: " << s.nodes << " nodes, " << s.locations
            << " locations, N = " << total << ", churn " << s.churn_fraction << "\n";
  table.emit("abl_fault");
  std::cout << "\nExpected shape: levels fall monotonically with the fault scale. PLC\n"
               "retains its leading levels while RLC cliffs once delivered blocks < N;\n"
               "the collector never throws — losses land in the ledger columns.\n";
  bench::finalize(&report);
  return 0;
}
