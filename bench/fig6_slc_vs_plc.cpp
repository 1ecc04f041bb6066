// Figure 6 — "SLC vs. PLC".
//
// Paper setting (Sec. 5.2): N = 1000 source blocks, uniform priority
// distribution; (a) 10 levels of 100 blocks, (b) 50 levels of 20 blocks.
// Expected shape: PLC >= SLC everywhere; the gap is modest at 10 levels
// and large at 50; the level count barely affects PLC but strongly hurts
// SLC (less mixing -> the coupon-collector regime). We also print the
// no-coding coupon-collector reference the paper invokes.
#include <cmath>
#include <iostream>

#include "analysis/coupon.h"
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

  codes::CurveOptions opt;
  opt.block_counts = block_counts;
  opt.trials = trials;
  opt.seed = bench::options().seed_or(0xF166) + levels;
  opt.threads = bench::options().threads;
  const auto plc = codes::simulate_decoding_curve<F>(codes::Scheme::kPlc, spec, dist, opt);
  const auto slc = codes::simulate_decoding_curve<F>(codes::Scheme::kSlc, spec, dist, opt);

  TablePrinter table({"coded blocks", "PLC E[levels] (95% CI)", "SLC E[levels] (95% CI)",
                      "PLC-SLC gap"});
  for (std::size_t i = 0; i < block_counts.size(); ++i) {
    table.add_row({std::to_string(block_counts[i]),
                   fmt_mean_ci(plc[i].mean_levels, plc[i].ci95_levels),
                   fmt_mean_ci(slc[i].mean_levels, slc[i].ci95_levels),
                   fmt_double(plc[i].mean_levels - slc[i].mean_levels, 3)});
  }
  std::cout << "\nFig 6(" << panel << "): " << levels << " levels x " << per_level
            << " blocks, uniform priority distribution, " << trials << " trials\n";
  table.emit(std::string("fig6") + panel + "_slc_vs_plc");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject, {"--trials", "--seed", "--threads"});
  bench::banner("Figure 6 — SLC vs PLC decoding curves",
                "N = 1000 source blocks; panels with 10 and 50 levels.");
  const std::size_t t = bench::options().trials_or(60, 6);
  run_panel("a", 10, 100, t);
  run_panel("b", 50, 20, t);

  // The degenerate-SLC reference the paper cites: one block per level is
  // plain replication, where full recovery needs ~ N ln N blocks.
  std::cout << "\nCoupon-collector reference (SLC degenerated to 1 block/level,"
            << " N = 1000):\n"
            << "  expected blocks to recover everything: "
            << fmt_double(analysis::coupon_expected_draws(1000), 0) << " (~ N ln N = "
            << fmt_double(1000 * std::log(1000.0), 0) << ")\n"
            << "  vs PLC/RLC which need ~ N = 1000.\n"
            << "\nExpected shape: PLC dominates SLC at every point; the gap grows\n"
               "with the level count while PLC's own curve barely moves.\n";
  bench::finalize(nullptr);
  return 0;
}
