// Ablation — long-run persistence under join/leave turnover.
//
// The paper's motivating P2P setting has peers continuously arriving and
// departing, not just a one-shot failure wave. This bench runs a Chord
// ring through many session-churn epochs (each epoch: 15% of peers leave,
// 30% of departed peers rejoin *empty*) and measures how long the
// priority-coded archive stays decodable — with and without the refresh
// maintenance round between epochs. Expected shape: without maintenance
// the archive dies within a handful of epochs even though the *population*
// stays large (rejoined peers hold nothing); with refresh it persists
// indefinitely, at a bounded repair cost per epoch.
#include <iostream>

#include "bench_common.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "proto/deployment.h"
#include "proto/refresh.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

constexpr std::size_t kNodes = 400;
constexpr std::size_t kEpochs = 20;
// Columns of a trial's epoch table.
constexpr std::size_t kLevels = 0;
constexpr std::size_t kRepairs = 1;
constexpr std::size_t kAlive = 2;

/// One trial's epoch series: row e holds the decoded levels, repair
/// messages and alive fraction after epoch e + 1; zeros past network death.
proto::SweepTable run_epochs(bool use_refresh, proto::Deployment& dep, Rng& rng) {
  net::Overlay& overlay = dep.overlay();
  proto::SweepTable rows(kEpochs, std::vector<double>(3, 0.0));
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    net::apply_session_churn(overlay, 0.15, 0.30, rng);
    if (overlay.alive_count() == 0) break;
    std::size_t messages = 0;
    if (use_refresh) {
      messages = refresh(dep.predist(), overlay.random_alive_node(rng), rng).messages;
    }
    auto dec = dep.decoder();
    const auto result = collect(dep.predist(), dec, {}, rng).result;
    rows[epoch] = {static_cast<double>(result.decoded_levels), static_cast<double>(messages),
                   static_cast<double>(overlay.alive_count()) / static_cast<double>(kNodes)};
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("Ablation — session churn (join/leave) over many epochs",
                "15% leave / 30% rejoin per epoch; refresh on/off.");
  proto::DeploymentParams params;
  params.overlay = proto::OverlayKind::kChord;
  params.nodes = kNodes;
  params.locations = 240;
  params.experiment.trials = bench::options().trials_or(12, 3);
  params.experiment.root_seed = bench::options().seed_or(0xD1A51C);
  params.experiment.threads = bench::options().threads;
  params.experiment.level_sizes = {20, 40, 60};  // N = 120
  params.protocol.block_size = 8;

  // Same root seed for both arms: trial i sees the identical ring and
  // churn schedule with and without maintenance.
  const auto arm = [&](bool use_refresh) {
    return proto::run_sweep(params, kEpochs, {}, [=](proto::Deployment& dep, Rng& rng) {
      return run_epochs(use_refresh, dep, rng);
    });
  };
  const proto::SweepStats with = arm(true);
  const proto::SweepStats without = arm(false);

  bench::BenchReport report("abl_dynamic_membership");
  report.set_config("trials", params.experiment.trials);
  report.set_config("seed", static_cast<double>(params.experiment.root_seed));
  for (std::size_t e = 0; e < kEpochs; ++e) {
    report.add_point("with_refresh", {{"epoch", static_cast<double>(e + 1)},
                                      {"alive_frac", with[e][kAlive].mean()},
                                      {"decoded_levels", with[e][kLevels].mean()},
                                      {"repair_messages", with[e][kRepairs].mean()}});
    report.add_point("without_refresh", {{"epoch", static_cast<double>(e + 1)},
                                         {"decoded_levels", without[e][kLevels].mean()}});
  }

  TablePrinter table({"epoch", "alive frac", "levels w/ refresh", "repairs/epoch",
                      "levels w/o refresh"});
  for (std::size_t e = 0; e < kEpochs; e += 2) {
    table.add_row({std::to_string(e + 1), fmt_double(with[e][kAlive].mean(), 2),
                   fmt_mean_ci(with[e][kLevels].mean(), with[e][kLevels].ci95_halfwidth(), 2),
                   fmt_double(with[e][kRepairs].mean(), 0),
                   fmt_mean_ci(without[e][kLevels].mean(),
                               without[e][kLevels].ci95_halfwidth(), 2)});
  }
  table.emit("abl_dynamic_membership");
  std::cout << "\nExpected shape: the population equilibrates at ~2/3 alive, yet the\n"
               "unmaintained archive decays to zero levels (rejoined peers are\n"
               "empty); with a refresh round per epoch all three levels persist\n"
               "for the whole run at a steady repair cost.\n";
  bench::finalize(&report);
  return 0;
}
