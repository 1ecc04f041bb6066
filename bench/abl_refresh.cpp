// Ablation — maintenance refresh across repeated churn waves.
//
// Extension experiment (see proto/refresh.h): after each churn wave a
// maintainer decodes the survivors and re-disseminates coded blocks to
// the lost locations whose whole coding support decoded; every other lost
// location stays lost. Expected shape: without refresh the
// retrievable-block pool only shrinks, and decoding collapses after a few
// waves; with refresh storage and decoded levels still drift down, but
// far more slowly (the default run goes from 227 to 170 of 240 blocks and
// from 2.47 to 2.00 levels over 8 waves, while the unmaintained pool
// falls to 25 blocks and no level).
//
// Both arms share the same root seed, so trial i deploys the identical
// network and suffers the identical churn with and without refresh — the
// comparison is paired, not merely averaged.
#include <iostream>

#include "bench_common.h"
#include "proto/refresh.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--json"});
  bench::banner("Ablation — refresh protocol across churn waves",
                "25% of surviving nodes die each wave; refresh on/off.");
  proto::RefreshExperimentParams params;
  params.nodes = 500;
  params.locations = 240;
  params.waves = 8;
  params.kill_fraction = 0.25;
  params.experiment.level_sizes = {20, 40, 60};  // N = 120
  params.experiment.scheme = codes::Scheme::kPlc;
  params.experiment.trials = bench::options().trials_or(15, 4);
  params.experiment.root_seed = bench::options().seed_or(0x2EF2E5);
  params.experiment.threads = bench::options().threads;
  params.protocol.block_size = 8;

  params.use_refresh = true;
  const auto with = run_refresh_experiment(params);
  params.use_refresh = false;
  const auto without = run_refresh_experiment(params);

  bench::BenchReport report("abl_refresh");
  report.set_config("trials", params.experiment.trials);
  report.set_config("seed", static_cast<double>(params.experiment.root_seed));
  report.set_config("waves", params.waves);
  for (std::size_t wave = 0; wave < params.waves; ++wave) {
    report.add_point("with_refresh",
                     {{"wave", static_cast<double>(with[wave].wave)},
                      {"decoded_levels", with[wave].mean_decoded_levels},
                      {"decoded_levels_ci95", with[wave].ci95_decoded_levels},
                      {"surviving_locations", with[wave].mean_surviving_locations},
                      {"rebuilt_locations", with[wave].mean_rebuilt_locations}});
    report.add_point("without_refresh",
                     {{"wave", static_cast<double>(without[wave].wave)},
                      {"decoded_levels", without[wave].mean_decoded_levels},
                      {"decoded_levels_ci95", without[wave].ci95_decoded_levels},
                      {"surviving_locations", without[wave].mean_surviving_locations}});
  }

  TablePrinter table({"wave", "alive frac", "levels w/ refresh (95% CI)", "blocks w/",
                      "rebuilt/wave", "levels w/o refresh (95% CI)", "blocks w/o"});
  double alive = 1.0;
  for (std::size_t wave = 0; wave < params.waves; ++wave) {
    alive *= 1.0 - params.kill_fraction;
    table.add_row({std::to_string(wave + 1), fmt_double(alive, 3),
                   fmt_mean_ci(with[wave].mean_decoded_levels,
                               with[wave].ci95_decoded_levels, 2),
                   fmt_double(with[wave].mean_surviving_locations, 0),
                   fmt_double(with[wave].mean_rebuilt_locations, 0),
                   fmt_mean_ci(without[wave].mean_decoded_levels,
                               without[wave].ci95_decoded_levels, 2),
                   fmt_double(without[wave].mean_surviving_locations, 0)});
  }
  table.emit("abl_refresh");
  std::cout << "\nExpected shape: refresh rebuilds only the lost locations whose support\n"
               "decoded, so storage and decoded levels still drift down, but far\n"
               "more slowly than in the unmaintained network, which decays\n"
               "geometrically and loses deep levels first.\n";
  bench::finalize(&report);
  return 0;
}
