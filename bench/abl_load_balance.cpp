// Ablation — power-of-two-choices location placement (Sec. 4).
//
// Each node can store few coded blocks, so the M seed-derived locations
// must spread evenly. The paper invokes Byers et al.'s geometric
// power-of-two-choices: the heaviest node carries Theta(ln ln M) blocks
// instead of the one-choice Theta(ln M / ln ln M). This bench measures
// the maximum per-node load on both overlay families with and without
// the rule.
#include <iostream>

#include "bench_common.h"
#include "net/chord_network.h"
#include "net/sensor_network.h"
#include "runtime/trial_runner.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

template <typename Net, typename Params>
RunningStats max_load(runtime::TrialRunner& runner, Params params, std::size_t trials,
                      std::uint64_t seed) {
  const auto loads = runner.run(trials, seed, [&](std::size_t, Rng& rng) {
    Params trial_params = params;  // per trial: trials run on several threads
    trial_params.seed = rng();
    const Net net(trial_params);
    std::vector<std::size_t> load(net.nodes(), 0);
    for (net::LocationId loc = 0; loc < net.locations(); ++loc) ++load[net.owner_of(loc)];
    std::size_t mx = 0;
    for (std::size_t l : load) mx = std::max(mx, l);
    return static_cast<double>(mx);
  });
  RunningStats stats;
  for (double mx : loads) stats.add(mx);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject, {"--trials", "--seed", "--threads"});
  bench::banner("Ablation — power of two choices for location placement",
                "Max coded blocks on any node; M locations over W nodes.");
  const std::size_t trials = bench::options().trials_or(20, 5);
  const std::uint64_t seed = bench::options().seed_or(100);

  runtime::TrialRunner runner(bench::options().threads);
  TablePrinter table({"overlay", "nodes W", "locations M", "one choice max (95% CI)",
                      "two choices max (95% CI)", "ln M", "ln ln M / ln 2"});
  for (std::size_t m : {500u, 2000u, 8000u}) {
    const std::size_t w = 400;
    net::ChordParams cp;
    cp.nodes = w;
    cp.locations = m;
    net::ChordParams cp2 = cp;
    cp2.two_choices = true;
    const auto one = max_load<net::ChordNetwork>(runner, cp, trials, seed + m);
    const auto two = max_load<net::ChordNetwork>(runner, cp2, trials, seed + m);
    table.add_row({"chord", std::to_string(w), std::to_string(m),
                   fmt_mean_ci(one.mean(), one.ci95_halfwidth(), 2),
                   fmt_mean_ci(two.mean(), two.ci95_halfwidth(), 2),
                   fmt_double(std::log(static_cast<double>(m)), 2),
                   fmt_double(std::log(std::log(static_cast<double>(m))) / std::log(2.0), 2)});

    net::SensorParams sp;
    sp.nodes = w;
    sp.locations = m;
    net::SensorParams sp2 = sp;
    sp2.two_choices = true;
    const auto sone = max_load<net::SensorNetwork>(runner, sp, trials, seed + m + 1);
    const auto stwo = max_load<net::SensorNetwork>(runner, sp2, trials, seed + m + 1);
    table.add_row({"sensor", std::to_string(w), std::to_string(m),
                   fmt_mean_ci(sone.mean(), sone.ci95_halfwidth(), 2),
                   fmt_mean_ci(stwo.mean(), stwo.ci95_halfwidth(), 2),
                   fmt_double(std::log(static_cast<double>(m)), 2),
                   fmt_double(std::log(std::log(static_cast<double>(m))) / std::log(2.0), 2)});
  }
  table.emit("abl_load_balance");
  std::cout << "\nExpected shape: two-choices max load sits well below one-choice and\n"
               "grows ~ ln ln M (plus the M/W average term), while one-choice grows\n"
               "faster; geometric cell-size skew makes sensor fields lumpier than\n"
               "the DHT ring.\n";
  bench::finalize(nullptr);
  return 0;
}
