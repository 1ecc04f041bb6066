// Ablation — end-to-end integrity: silent corruption, scrubbing, and
// quarantine-driven repair.
//
// Two layers of the integrity story (DESIGN §13):
//
//   * scrub/<scheme>, byzantine/plc — the cluster simulator under silent
//     at-rest bit rot and Byzantine hosts. Rot degrades ground-truth
//     decodability immediately; the repair scheduler only learns at the
//     periodic fingerprint scrub. Sweeping rot rate x scrub interval x
//     scheme shows the headline: scrubbing turns silent decay back into
//     repairable loss and extends level-1 time-to-first-loss, while
//     scrub_interval = 0 (never scrub) is the silent-decay floor.
//   * detection/<scheme> — the collector-level sweep, the one fault
//     sweep (proto/fault_experiment.h) over silent rot/Byzantine mixes:
//     GF(2^64) homomorphic fingerprints verify every fetched block
//     against the manifest. detection_ratio must print 1 and
//     wrong_decode_fraction must print 0 on every row — the decoder never
//     returns wrong bytes under any silent mix.
//
// Flags: --rot-rate / --byzantine-rate / --scrub-interval restrict the
// grids to one value; --nodes, --churn-rate, --repair-bw, --scheme as in
// abl_cluster_lifetime. All series are bit-identical at any --threads.
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "proto/fault_experiment.h"
#include "sim/cluster_sim.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

sim::ClusterParams cluster_params(std::size_t nodes, std::size_t trials,
                                  std::uint64_t seed) {
  sim::ClusterParams params;
  params.nodes = nodes;
  params.max_time = 40.0;
  params.replacement_delay = 0.5;
  params.experiment.trials = trials;
  params.experiment.root_seed = seed;
  params.experiment.threads = bench::options().threads;
  params.experiment.level_sizes = {8, 16, 24};  // M = 2x48 = 96 coded blocks
  params.repair.policy = sim::RepairPolicy::kPriorityAware;
  return params;
}

/// Silent-only hazard: no loud failures, so rot is the only way blocks
/// die. Loud churn would mask the scrub-vs-no-scrub contrast — every host
/// death reveals its rotten blocks for free and the repair path fixes them
/// regardless of scrubbing.
void silent_only(sim::ClusterParams* params) {
  params->experiment.failure.kind = sim::FailureModelConfig::Kind::kNone;
}

void loud_churn(sim::ClusterParams* params, double churn_rate) {
  params->experiment.failure.kind = sim::FailureModelConfig::Kind::kPoisson;
  params->experiment.failure.churn_rate = churn_rate;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--scheme", "--nodes", "--churn-rate",
                     "--repair-bw", "--rot-rate", "--byzantine-rate", "--scrub-interval",
                     "--json"});
  bench::banner("Ablation — integrity: rot, Byzantine hosts, scrubbing",
                "Silent corruption vs periodic fingerprint scrubbing; "
                "collector-level detection must be exact.");
  const std::size_t trials = bench::options().trials_or(16, 4);
  const std::uint64_t seed = bench::options().seed_or(0x1D7E6517);
  const std::size_t nodes = bench::options().nodes.value_or(2000);
  const double churn = bench::options().churn_rate.value_or(0.05);
  const double repair_bw = bench::options().repair_bw.value_or(8.0);

  std::vector<double> rot_rates = bench::fast_mode()
                                      ? std::vector<double>{0.05}
                                      : std::vector<double>{0.02, 0.05};
  if (bench::options().rot_rate) rot_rates = {*bench::options().rot_rate};
  std::vector<double> scrub_intervals = bench::fast_mode()
                                            ? std::vector<double>{0.0, 2.0}
                                            : std::vector<double>{0.0, 1.0, 4.0};
  if (bench::options().scrub_interval) {
    scrub_intervals = {*bench::options().scrub_interval};
  }
  std::vector<double> byzantine_fractions =
      bench::fast_mode() ? std::vector<double>{0.1}
                         : std::vector<double>{0.05, 0.1, 0.2};
  if (bench::options().byzantine_rate) {
    byzantine_fractions = {*bench::options().byzantine_rate};
  }

  bench::BenchReport report("abl_integrity");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("nodes", static_cast<double>(nodes));
  report.set_config("churn_rate", churn);
  report.set_config("repair_bw", repair_bw);
  report.set_config("levels", "8/16/24");

  // --- Sweep 1: rot rate x scrub interval x scheme, silent-only. Same
  // root seed everywhere: arms see identical placements; only the rot
  // clocks and the scrub cadence differ.
  const std::vector<codes::Scheme> schemes = {codes::Scheme::kPlc, codes::Scheme::kSlc,
                                              codes::Scheme::kRlc};
  TablePrinter scrub_table({"scheme", "rot rate", "scrub dt", "ttfl L1", "rotted",
                            "detected", "repairs", "lost L1 frac"});
  for (const codes::Scheme scheme : schemes) {
    if (!bench::options().scheme_enabled(scheme)) continue;
    for (const double rot : rot_rates) {
      for (const double interval : scrub_intervals) {
        sim::ClusterParams params = cluster_params(nodes, trials, seed);
        silent_only(&params);
        params.experiment.scheme = scheme;
        params.repair.bandwidth = repair_bw;
        params.integrity.rot_rate = rot;
        params.integrity.scrub_interval = interval;
        const sim::ClusterPoint point = sim::run_cluster_lifetime(params);
        report.add_point(std::string("scrub/") + codes::to_string(scheme),
                         {{"rot_rate", rot},
                          {"scrub_interval", interval},
                          {"ttfl_l1", point.mean_ttfl_l1},
                          {"ci95_ttfl_l1", point.ci95_ttfl_l1},
                          {"loss_frac_l1", point.loss_fraction[0]},
                          {"rot_events", point.mean_rot_events},
                          {"rot_detected", point.mean_rot_detected},
                          {"scrub_scans", point.mean_scrub_scans},
                          {"repairs", point.mean_repairs},
                          {"repairs_dropped", point.mean_repairs_dropped}});
        scrub_table.add_row(
            {codes::to_string(scheme), fmt_double(rot, 2),
             interval == 0.0 ? std::string("never") : fmt_double(interval, 1),
             fmt_mean_ci(point.mean_ttfl_l1, point.ci95_ttfl_l1, 1),
             fmt_double(point.mean_rot_events, 0),
             fmt_double(point.mean_rot_detected, 0), fmt_double(point.mean_repairs, 0),
             fmt_double(point.loss_fraction[0], 2)});
      }
    }
  }
  scrub_table.emit("abl_integrity/scrub_sweep");

  // --- Sweep 2: Byzantine fraction at a fixed scrub cadence (PLC),
  // composed with the loud Poisson churn backdrop. Forged-at-birth
  // blocks are detected at the first scan, their hosts quarantined, and
  // repairs re-home the blocks onto honest nodes.
  if (bench::options().scheme_enabled(codes::Scheme::kPlc)) {
    const double byz_interval = bench::options().scrub_interval.value_or(1.0);
    TablePrinter byz_table({"byz frac", "scrub dt", "ttfl L1", "quarantined",
                            "rotted", "detected", "repairs"});
    for (const double fraction : byzantine_fractions) {
      sim::ClusterParams params = cluster_params(nodes, trials, seed);
      loud_churn(&params, churn);
      params.experiment.scheme = codes::Scheme::kPlc;
      params.repair.bandwidth = repair_bw;
      params.integrity.byzantine_fraction = fraction;
      params.integrity.scrub_interval = byz_interval;
      const sim::ClusterPoint point = sim::run_cluster_lifetime(params);
      report.add_point("byzantine/plc",
                       {{"byzantine_fraction", fraction},
                        {"scrub_interval", byz_interval},
                        {"ttfl_l1", point.mean_ttfl_l1},
                        {"ci95_ttfl_l1", point.ci95_ttfl_l1},
                        {"quarantined", point.mean_quarantined},
                        {"rot_events", point.mean_rot_events},
                        {"rot_detected", point.mean_rot_detected},
                        {"repairs", point.mean_repairs}});
      byz_table.add_row({fmt_double(fraction, 2), fmt_double(byz_interval, 1),
                         fmt_mean_ci(point.mean_ttfl_l1, point.ci95_ttfl_l1, 1),
                         fmt_double(point.mean_quarantined, 1),
                         fmt_double(point.mean_rot_events, 0),
                         fmt_double(point.mean_rot_detected, 0),
                         fmt_double(point.mean_repairs, 0)});
    }
    byz_table.emit("abl_integrity/byzantine");
  }

  // --- Sweep 3: collector-level detection. Every fetched block is
  // verified against the GF(2^64) fingerprint manifest; forged frames are
  // localized to their serving node and the node is quarantined.
  // detection = 1 and wrong = 0 are correctness bars, not trends.
  TablePrinter detect_table({"scheme", "rot", "byz", "levels", "violations",
                             "quarantined", "detection", "wrong"});
  for (const codes::Scheme scheme : schemes) {
    if (!bench::options().scheme_enabled(scheme)) continue;
    proto::FaultSweepParams params;
    params.nodes = 200;
    params.locations = 96;
    params.experiment.level_sizes = {8, 16, 24};
    params.experiment.scheme = scheme;
    params.experiment.trials = trials;
    params.experiment.root_seed = seed;
    params.experiment.threads = bench::options().threads;
    const double rot = bench::options().rot_rate.value_or(0.1);
    const double byz = bench::options().byzantine_rate.value_or(0.1);
    const std::pair<double, double> mixes[] = {{0.0, 0.0}, {rot, 0.0}, {0.0, byz}, {rot, byz}};
    for (const auto& [rot_rate, byz_fraction] : mixes) {
      net::FaultSpec& mix = params.faults.emplace_back();
      mix.bitrot_rate = rot_rate;
      mix.byzantine_fraction = byz_fraction;
    }
    const auto points = proto::run_fault_experiment(params);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const proto::FaultPoint& pt = points[i];
      const net::FaultSpec& mix = params.faults[i];
      report.add_point(std::string("detection/") + codes::to_string(scheme),
                       {{"rot_rate", mix.bitrot_rate},
                        {"byzantine_fraction", mix.byzantine_fraction},
                        {"decoded_levels", pt.mean_decoded_levels},
                        {"violations", pt.mean_integrity_violations},
                        {"quarantined", pt.mean_quarantined_nodes},
                        {"detection_ratio", pt.detection_ratio},
                        {"wrong_decode_fraction", pt.wrong_decode_fraction}});
      detect_table.add_row(
          {codes::to_string(scheme), fmt_double(mix.bitrot_rate, 2),
           fmt_double(mix.byzantine_fraction, 2), fmt_double(pt.mean_decoded_levels, 2),
           fmt_double(pt.mean_integrity_violations, 1),
           fmt_double(pt.mean_quarantined_nodes, 1), fmt_double(pt.detection_ratio, 3),
           fmt_double(pt.wrong_decode_fraction, 3)});
    }
  }
  detect_table.emit("abl_integrity/detection");

  std::cout << "\nExpected shape: without scrubbing (scrub dt = never) rot decays\n"
               "level 1 silently and repairs stay near zero; any finite scrub\n"
               "interval detects the rot, feeds the priority-aware scheduler, and\n"
               "extends level-1 TTFL — more for shorter intervals. Byzantine hosts\n"
               "are quarantined within one scan. The detection table must read\n"
               "detection = 1.000 and wrong = 0.000 on every row.\n";
  bench::finalize(&report);
  return 0;
}
