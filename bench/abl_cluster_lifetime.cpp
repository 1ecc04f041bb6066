// Ablation — cluster lifetimes under continuous churn with repair.
//
// The discrete-event cluster simulator (sim/cluster_sim.h) runs whole
// cluster lifetimes: Poisson node deaths, delayed empty rejoins, and a
// bandwidth-limited repair scheduler re-encoding lost blocks. This bench
// sweeps churn rate x repair bandwidth x scheme and reports when each
// priority level is first lost — the time-to-first-priority-loss curves
// behind the paper's differentiated-persistence claim, now in the
// continuous-churn regime rather than one-shot failure waves.
//
// Three sweeps:
//   * ttfl/<scheme>  — TTFL per level vs churn rate at fixed repair
//     bandwidth, for PLC/SLC/RLC and the replication baseline;
//   * policy/<name>  — level-1 TTFL vs repair bandwidth for the
//     priority-aware vs priority-blind scheduler (plus the no-repair
//     floor), at equal total bandwidth: only the repair ORDER differs;
//   * scale/plc      — event counts and peak queue depth as the cluster
//     grows to 10^6 nodes (full mode), the capacity headline.
//
// Flags: --nodes (cluster size for the churn/policy sweeps),
// --churn-rate (restrict the churn grid to one rate), --repair-bw
// (bandwidth for the churn sweep / restrict the policy grid). All series
// are bit-identical at any --threads.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/cluster_sim.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

constexpr std::size_t kLevels = 3;

sim::ClusterParams base_params(std::size_t nodes, double churn_rate,
                               std::size_t trials, std::uint64_t seed) {
  sim::ClusterParams params;
  params.nodes = nodes;
  params.max_time = 40.0;
  params.replacement_delay = 0.5;
  params.experiment.trials = trials;
  params.experiment.root_seed = seed;
  params.experiment.threads = bench::options().threads;
  params.experiment.level_sizes = {8, 16, 24};  // M = 2x48 = 96 coded blocks
  params.experiment.failure.kind = sim::FailureModelConfig::Kind::kPoisson;
  params.experiment.failure.churn_rate = churn_rate;
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--scheme", "--nodes", "--churn-rate",
                     "--repair-bw", "--json"});
  bench::banner("Ablation — cluster lifetime under continuous churn",
                "Poisson node deaths, bandwidth-limited repair; "
                "time-to-first-priority-loss per level.");
  const std::size_t trials = bench::options().trials_or(16, 4);
  const std::uint64_t seed = bench::options().seed_or(0xC1A57E);
  const std::size_t nodes = bench::options().nodes.value_or(2000);
  const double repair_bw = bench::options().repair_bw.value_or(8.0);

  std::vector<double> churn_rates = {0.05, 0.1, 0.2};
  if (bench::options().churn_rate) churn_rates = {*bench::options().churn_rate};
  std::vector<double> policy_bws = {5.0, 10.0, 20.0, 40.0};
  if (bench::options().repair_bw) policy_bws = {repair_bw};

  bench::BenchReport report("abl_cluster_lifetime");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  report.set_config("nodes", static_cast<double>(nodes));
  report.set_config("levels", "8/16/24");

  // --- Sweep 1: TTFL per level vs churn rate, per scheme. Same root seed
  // everywhere: scheme arms see identical placements and death schedules.
  struct SchemeArm {
    std::string name;
    std::optional<codes::Scheme> scheme;  // nullopt = replication baseline
  };
  const std::vector<SchemeArm> arms = {{"plc", codes::Scheme::kPlc},
                                       {"slc", codes::Scheme::kSlc},
                                       {"rlc", codes::Scheme::kRlc},
                                       {"replication", std::nullopt}};
  TablePrinter churn_table({"scheme", "churn rate", "ttfl L1", "ttfl L2", "ttfl L3",
                            "lost L1 frac", "repairs"});
  for (const auto& arm : arms) {
    if (arm.scheme && !bench::options().scheme_enabled(*arm.scheme)) continue;
    if (!arm.scheme && bench::options().scheme) continue;
    for (const double rate : churn_rates) {
      sim::ClusterParams params = base_params(nodes, rate, trials, seed);
      params.repair.policy = sim::RepairPolicy::kPriorityAware;
      params.repair.bandwidth = repair_bw;
      if (arm.scheme) {
        params.experiment.scheme = *arm.scheme;
      } else {
        params.replication = true;
      }
      const sim::ClusterPoint point = sim::run_cluster_lifetime(params);
      report.add_point("ttfl/" + arm.name,
                       {{"churn_rate", rate},
                        {"ttfl_l1", point.mean_first_loss[0]},
                        {"ttfl_l2", point.mean_first_loss[1]},
                        {"ttfl_l3", point.mean_first_loss[2]},
                        {"ci95_ttfl_l1", point.ci95_ttfl_l1},
                        {"loss_frac_l1", point.loss_fraction[0]},
                        {"loss_frac_l3", point.loss_fraction[kLevels - 1]},
                        {"repairs", point.mean_repairs},
                        {"repairs_dropped", point.mean_repairs_dropped},
                        {"repair_traffic", point.mean_repair_traffic}});
      churn_table.add_row(
          {arm.name, fmt_double(rate, 2),
           fmt_mean_ci(point.mean_first_loss[0], point.ci95_ttfl_l1, 1),
           fmt_double(point.mean_first_loss[1], 1), fmt_double(point.mean_first_loss[2], 1),
           fmt_double(point.loss_fraction[0], 2), fmt_double(point.mean_repairs, 0)});
    }
  }
  churn_table.emit("abl_cluster_lifetime/ttfl_vs_churn");

  // --- Sweep 2: scheduler ablation at equal bandwidth. Priority-aware
  // spends every free stream on the lowest lost level; blind repairs in
  // plain loss order. The no-repair arm is the decay floor. Storage is
  // apportioned proportional to the level sizes — EQUAL redundancy per
  // level, unlike the paper's storage skew above — so any differentiated
  // persistence here comes from the repair order alone: blind queues
  // level-1 losses behind the (3x more numerous) level-2/3 repairs and
  // lets the small level-1 margin erode, aware never does.
  const std::vector<double> equal_redundancy = {8.0 / 48, 16.0 / 48, 24.0 / 48};
  TablePrinter policy_table({"policy", "repair bw", "ttfl L1", "lost L1 frac",
                             "repairs", "dropped"});
  const double policy_rate = bench::options().churn_rate.value_or(0.1);
  for (const char* policy_name : {"priority_aware", "priority_blind"}) {
    const auto policy = *sim::try_repair_policy_from_string(policy_name);
    for (const double bw : policy_bws) {
      sim::ClusterParams params = base_params(nodes, policy_rate, trials, seed);
      params.experiment.priority_distribution = equal_redundancy;
      params.repair.policy = policy;
      params.repair.bandwidth = bw;
      const sim::ClusterPoint point = sim::run_cluster_lifetime(params);
      report.add_point(std::string("policy/") + policy_name,
                       {{"repair_bw", bw},
                        {"ttfl_l1", point.mean_ttfl_l1},
                        {"ci95_ttfl_l1", point.ci95_ttfl_l1},
                        {"loss_frac_l1", point.loss_fraction[0]},
                        {"repairs", point.mean_repairs},
                        {"repairs_dropped", point.mean_repairs_dropped}});
      policy_table.add_row({policy_name, fmt_double(bw, 0),
                            fmt_mean_ci(point.mean_ttfl_l1, point.ci95_ttfl_l1, 1),
                            fmt_double(point.loss_fraction[0], 2),
                            fmt_double(point.mean_repairs, 0),
                            fmt_double(point.mean_repairs_dropped, 0)});
    }
  }
  {
    sim::ClusterParams params = base_params(nodes, policy_rate, trials, seed);
    params.experiment.priority_distribution = equal_redundancy;
    params.repair.policy = sim::RepairPolicy::kNone;
    const sim::ClusterPoint point = sim::run_cluster_lifetime(params);
    report.add_point("policy/none", {{"repair_bw", 0.0},
                                     {"ttfl_l1", point.mean_ttfl_l1},
                                     {"ci95_ttfl_l1", point.ci95_ttfl_l1},
                                     {"loss_frac_l1", point.loss_fraction[0]}});
    policy_table.add_row({"none", "-",
                          fmt_mean_ci(point.mean_ttfl_l1, point.ci95_ttfl_l1, 1),
                          fmt_double(point.loss_fraction[0], 2), "0", "0"});
  }
  policy_table.emit("abl_cluster_lifetime/repair_policy");

  // --- Sweep 3: scale. Short horizon, mild churn — the point is event
  // volume and queue depth staying sane as W grows, not TTFL.
  TablePrinter scale_table({"nodes", "failures", "events", "peak queue"});
  std::vector<std::size_t> scale_nodes = {10000, 100000};
  if (!bench::fast_mode()) scale_nodes.push_back(1000000);
  for (const std::size_t w : scale_nodes) {
    sim::ClusterParams params = base_params(w, 0.02, 2, seed);
    params.max_time = 5.0;
    params.repair.policy = sim::RepairPolicy::kPriorityAware;
    params.repair.bandwidth = repair_bw;
    const sim::ClusterPoint point = sim::run_cluster_lifetime(params);
    report.add_point("scale/plc", {{"nodes", static_cast<double>(w)},
                                   {"failures", point.mean_failures},
                                   {"joins", point.mean_joins},
                                   {"events", point.mean_events},
                                   {"peak_queue", point.max_peak_queue}});
    scale_table.add_row({std::to_string(w), fmt_double(point.mean_failures, 0),
                         fmt_double(point.mean_events, 0),
                         fmt_double(point.max_peak_queue, 0)});
  }
  scale_table.emit("abl_cluster_lifetime/scale");

  std::cout << "\nExpected shape: TTFL falls with churn rate and rises with level\n"
               "priority (L1 outlives L2 outlives L3); at equal bandwidth the\n"
               "priority-aware scheduler holds level 1 longer than the blind one,\n"
               "and both beat the no-repair floor. Event volume scales linearly\n"
               "with cluster size at bounded queue depth.\n";
  bench::finalize(&report);
  return 0;
}
