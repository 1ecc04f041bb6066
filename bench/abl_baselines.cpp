// Ablation — PLC vs the related-work baselines of Sec. 6.
//
// Four ways to persist N = 500 tiered source blocks, measured as symbols
// accumulate at the collector:
//   * PLC            — the paper's contribution (priority prefix first);
//   * RLC            — classic all-or-nothing mixing;
//   * replication    — no coding (coupon collector);
//   * Growth Codes   — Kamra et al.: maximize *any* recovered blocks,
//                      priorities ignored (oracle-feedback variant).
// Reported per checkpoint: total source blocks recovered, and whether the
// critical level (level 1, the 50 most important blocks) is complete.
// Expected shape (the paper's Sec.-6 argument): Growth Codes win on total
// early recovery, but PLC completes the critical level far earlier —
// "unimportant data may be recovered at the expense of failing to recover
// important data".
#include <iostream>

#include "bench_common.h"
#include "codes/decoder.h"
#include "codes/decoding_curve.h"
#include "codes/encoder.h"
#include "codes/growth_codes.h"
#include "codes/peeling_decoder.h"
#include "codes/replication.h"
#include "gf/gf256.h"
#include "runtime/trial_runner.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;
using F = gf::Gf256;

struct Series {
  std::vector<RunningStats> total;      // recovered source blocks
  std::vector<RunningStats> level1_ok;  // critical level complete (0/1)
};

enum { kPlcIdx, kRlcIdx, kReplIdx, kGrowthIdx, kSchemes };

/// Per-trial checkpoint samples for all four codecs, slotted by
/// (codec, checkpoint) so trials merge in trial order.
struct TrialOutcome {
  std::vector<std::vector<double>> total;      // [codec][checkpoint]
  std::vector<std::vector<double>> level1_ok;  // [codec][checkpoint]
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--json"});
  bench::banner("Ablation — PLC vs RLC vs replication vs Growth Codes",
                "N = 500 blocks in levels {50, 150, 300}; level 1 is critical.");
  const std::size_t trials = bench::options().trials_or(20, 4);
  const std::uint64_t seed = bench::options().seed_or(0xBA5E11);
  const auto spec = codes::PrioritySpec({50, 150, 300});
  const auto dist = codes::PriorityDistribution({0.3, 0.3, 0.4});
  const auto checkpoints = codes::make_block_counts(50, 1000, 12);

  // Shared immutable encoders (stateless per call).
  const codes::PriorityEncoder<F> plc_enc(codes::Scheme::kPlc, spec);
  const codes::PriorityEncoder<F> rlc_enc(codes::Scheme::kRlc, spec);
  const codes::ReplicationEncoder repl_enc(spec);
  const codes::GrowthEncoder growth_enc(spec.total());

  runtime::TrialRunner runner(bench::options().threads);
  const auto outcomes = runner.run(trials, seed, [&](std::size_t, Rng& rng) {
    codes::PriorityDecoder<F> plc_dec(codes::Scheme::kPlc, spec);
    codes::PriorityDecoder<F> rlc_dec(codes::Scheme::kRlc, spec);
    codes::ReplicationCollector repl_col(spec);
    codes::PeelingDecoder growth_dec(spec.total());

    TrialOutcome outcome;
    outcome.total.assign(kSchemes, std::vector<double>(checkpoints.size(), 0.0));
    outcome.level1_ok.assign(kSchemes, std::vector<double>(checkpoints.size(), 0.0));
    std::size_t next = 0;
    for (std::size_t m = 1; m <= checkpoints.back(); ++m) {
      plc_dec.add(plc_enc.encode_random(dist, rng));
      rlc_dec.add(rlc_enc.encode_random(dist, rng));
      repl_col.add(repl_enc.replicate_random(dist, rng));
      growth_dec.add(growth_enc.encode(growth_dec.decoded_count(), rng).indices);
      if (m == checkpoints[next]) {
        auto level1_complete = [&](std::size_t first_level_size, auto&& is_decoded) {
          for (std::size_t j = 0; j < first_level_size; ++j) {
            if (!is_decoded(j)) return 0.0;
          }
          return 1.0;
        };
        outcome.total[kPlcIdx][next] = static_cast<double>(plc_dec.decoded_prefix_blocks());
        outcome.level1_ok[kPlcIdx][next] = plc_dec.is_level_decoded(0) ? 1.0 : 0.0;
        outcome.total[kRlcIdx][next] = static_cast<double>(rlc_dec.decoded_prefix_blocks());
        outcome.level1_ok[kRlcIdx][next] = rlc_dec.is_level_decoded(0) ? 1.0 : 0.0;
        outcome.total[kReplIdx][next] = static_cast<double>(repl_col.distinct_blocks());
        outcome.level1_ok[kReplIdx][next] =
            level1_complete(50, [&](std::size_t j) { return repl_col.is_block_decoded(j); });
        outcome.total[kGrowthIdx][next] = static_cast<double>(growth_dec.decoded_count());
        outcome.level1_ok[kGrowthIdx][next] =
            level1_complete(50, [&](std::size_t j) { return growth_dec.is_decoded(j); });
        ++next;
      }
    }
    return outcome;
  });

  std::vector<Series> series(kSchemes);
  for (auto& s : series) {
    s.total.resize(checkpoints.size());
    s.level1_ok.resize(checkpoints.size());
  }
  for (const TrialOutcome& outcome : outcomes) {
    for (std::size_t s = 0; s < kSchemes; ++s) {
      for (std::size_t i = 0; i < checkpoints.size(); ++i) {
        series[s].total[i].add(outcome.total[s][i]);
        series[s].level1_ok[i].add(outcome.level1_ok[s][i]);
      }
    }
  }

  bench::BenchReport report("abl_baselines");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  const char* codec_names[] = {"plc", "rlc", "replication", "growth"};
  for (std::size_t s = 0; s < kSchemes; ++s) {
    for (std::size_t i = 0; i < checkpoints.size(); ++i) {
      report.add_point(codec_names[s],
                       {{"symbols", static_cast<double>(checkpoints[i])},
                        {"recovered_blocks", series[s].total[i].mean()},
                        {"level1_complete", series[s].level1_ok[i].mean()}});
    }
  }

  TablePrinter table({"symbols", "PLC blocks", "PLC lvl1", "RLC blocks", "RLC lvl1",
                      "repl blocks", "repl lvl1", "growth blocks", "growth lvl1"});
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    table.add_row({std::to_string(checkpoints[i]),
                   fmt_double(series[kPlcIdx].total[i].mean(), 0),
                   fmt_double(series[kPlcIdx].level1_ok[i].mean(), 2),
                   fmt_double(series[kRlcIdx].total[i].mean(), 0),
                   fmt_double(series[kRlcIdx].level1_ok[i].mean(), 2),
                   fmt_double(series[kReplIdx].total[i].mean(), 0),
                   fmt_double(series[kReplIdx].level1_ok[i].mean(), 2),
                   fmt_double(series[kGrowthIdx].total[i].mean(), 0),
                   fmt_double(series[kGrowthIdx].level1_ok[i].mean(), 2)});
  }
  table.emit("abl_baselines");
  std::cout << "\n'lvl1' columns are the fraction of trials with the critical level\n"
               "fully recovered. Expected shape: growth/replication lead on raw\n"
               "block counts early; PLC is first to secure the critical level; RLC\n"
               "recovers nothing before ~N symbols.\n";
  bench::finalize(&report);
  return 0;
}
