// Figure 5 — "Analysis vs simulations for SLC".
//
// Same setting as Fig. 4 (N = 1000, uniform priority distribution, 5 and
// 50 levels) but for Stacked Linear Codes, where our analysis is exact at
// any level count (the per-level events are independent, eq. (6) of the
// paper) and should agree with simulation "very well" per Sec. 5.1.
#include <iostream>

#include "analysis/slc_analysis.h"
#include "bench_common.h"
#include "codes/decoding_curve.h"
#include "gf/gf256.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;
using F = gf::Gf256;

void run_panel(const char* panel, std::size_t levels, std::size_t per_level,
               std::size_t trials) {
  const auto spec = codes::PrioritySpec::uniform(levels, per_level);
  const auto dist = codes::PriorityDistribution::uniform(levels);
  const auto block_counts = codes::make_block_counts(100, 2000, 14);

  codes::CurveOptions sim_opt;
  sim_opt.block_counts = block_counts;
  sim_opt.trials = trials;
  sim_opt.seed = bench::options().seed_or(0xF165) + levels;
  sim_opt.threads = bench::options().threads;
  const auto sim = codes::simulate_decoding_curve<F>(codes::Scheme::kSlc, spec, dist, sim_opt);

  analysis::SlcAnalysis slc(spec, dist);

  TablePrinter table(
      {"coded blocks", "E[levels] analysis", "E[levels] simulated (95% CI)"});
  for (std::size_t i = 0; i < block_counts.size(); ++i) {
    table.add_row({std::to_string(block_counts[i]),
                   fmt_double(slc.expected_levels(block_counts[i]), 3),
                   fmt_mean_ci(sim[i].mean_levels, sim[i].ci95_levels)});
  }
  std::cout << "\nFig 5(" << panel << "): SLC, " << levels << " levels x " << per_level
            << " blocks, uniform priority distribution, " << trials << " trials\n";
  table.emit(std::string("fig5") + panel + "_slc_validation");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject, {"--trials", "--seed", "--threads"});
  bench::banner("Figure 5 — analysis vs simulation, SLC",
                "N = 1000 source blocks, uniform priority distribution.");
  const std::size_t t = bench::options().trials_or(100, 10);
  run_panel("a", 5, 200, t);
  run_panel("b", 50, 20, t);
  std::cout << "\nExpected shape: exact agreement within CI at both level counts;\n"
               "the 50-level SLC curve needs far more blocks for the same\n"
               "recovery (less mixing per level).\n";
  bench::finalize(nullptr);
  return 0;
}
