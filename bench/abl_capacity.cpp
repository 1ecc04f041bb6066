// Ablation — per-node storage capacity (Sec. 2/4: "each node can store d
// coded blocks", M < W d).
//
// W = 200 nodes host M = 800 coded blocks under capacities d = 4..64 and
// unlimited. Expected shape: placement respects d exactly (max load = d
// whenever d < the unconstrained max); tighter capacity costs more
// spills (placement walks past full nodes, one extra hop each) but
// decodability is untouched as long as M <= W d; at d = 4 the system is
// exactly full (spills everywhere, still zero overflow).
#include <iostream>

#include "bench_common.h"
#include "proto/collector.h"
#include "proto/deployment.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace prlc;
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--json"});
  bench::banner("Ablation — per-node storage capacity",
                "W = 200 nodes, M = 800 locations, N = 200 source blocks.");
  proto::DeploymentParams params;
  params.overlay = proto::OverlayKind::kChord;
  params.nodes = 200;
  params.locations = 800;
  params.experiment.trials = bench::options().trials_or(10, 3);
  params.experiment.threads = bench::options().threads;
  params.experiment.level_sizes = {40, 60, 100};
  params.protocol.block_size = 8;
  params.protocol.sparse = true;  // keep dissemination cost sane
  const std::uint64_t seed = bench::options().seed_or(0xCA9);

  bench::BenchReport report("abl_capacity");
  report.set_config("trials", params.experiment.trials);
  report.set_config("seed", static_cast<double>(seed));

  TablePrinter table({"capacity d", "max load (95% CI)", "spills", "overflows",
                      "decoded levels", "W*d / M"});
  for (std::size_t d : {4u, 6u, 8u, 16u, 64u, 0u}) {
    // Each capacity gets its own decorrelated stream (offset by d).
    params.experiment.root_seed = seed + d;
    params.protocol.node_capacity = d;
    const auto stats = proto::run_sweep(params, 1, {}, [](proto::Deployment& dep, Rng& rng) {
      auto dec = dep.decoder();
      const double levels =
          static_cast<double>(collect(dep.predist(), dec, {}, rng).result.decoded_levels);
      return proto::SweepTable{{static_cast<double>(dep.stats().max_node_load),
                                static_cast<double>(dep.stats().capacity_spills),
                                static_cast<double>(dep.stats().capacity_overflows), levels}};
    });
    const RunningStats& max_load = stats[0][0];
    const RunningStats& spills = stats[0][1];
    const RunningStats& overflows = stats[0][2];
    const RunningStats& levels = stats[0][3];
    report.add_point("capacity", {{"d", static_cast<double>(d)},
                                  {"max_load", max_load.mean()},
                                  {"spills", spills.mean()},
                                  {"overflows", overflows.mean()},
                                  {"decoded_levels", levels.mean()}});
    table.add_row({d == 0 ? "unlimited" : std::to_string(d),
                   fmt_mean_ci(max_load.mean(), max_load.ci95_halfwidth(), 1),
                   fmt_double(spills.mean(), 0), fmt_double(overflows.mean(), 0),
                   fmt_double(levels.mean(), 2),
                   d == 0 ? "-" : fmt_double(static_cast<double>(200 * d) / 800.0, 2)});
  }
  table.emit("abl_capacity");
  std::cout << "\nExpected shape: max load pinned at d; spills explode as W*d/M -> 1;\n"
               "decodability untouched because every block still lands somewhere.\n";
  bench::finalize(&report);
  return 0;
}
