// Ablation — temporal retention policies for periodic measurements.
//
// Ten measurement rounds are ingested into a fixed storage budget while
// the network churns between rounds; afterwards every retained round is
// queried. Compared: sliding-window (equal shares, hard eviction) vs
// exponential-decay (newest-heavy shares, graceful aging). Expected
// shape: the window policy keeps a flat recovery profile across retained
// ages and forgets everything older; the decay policy keeps the newest
// rounds at full recovery and sheds *low-priority levels first* as
// snapshots age — partial recovery turning shrinking redundancy into
// graceful degradation instead of cliff-edge loss.
#include <iostream>

#include "bench_common.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/timeline.h"
#include "runtime/trial_runner.h"
#include "util/stats.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

constexpr std::size_t kRounds = 10;
constexpr std::size_t kWindow = 5;

/// Per-trial query results for one policy, slotted by round age. Ages the
/// query could not answer stay at -1 and are skipped during the merge.
struct TrialOutcome {
  std::vector<double> levels;
  std::vector<double> blocks;
  std::vector<double> allotted;
};

TrialOutcome run_trial(proto::RetentionPolicy policy, const codes::PrioritySpec& spec,
                       const codes::PriorityDistribution& dist, Rng& rng) {
  net::ChordParams np;
  np.nodes = 300;
  np.locations = 480;
  np.seed = rng();
  net::ChordNetwork overlay(np);
  proto::TimelineParams params;
  params.block_size = 8;
  params.window = kWindow;
  params.policy = policy;
  proto::TimelineStore store(overlay, spec, dist, params);
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto snap = codes::SourceData<proto::Field>::random(spec.total(), 8, rng);
    store.ingest(snap, rng);
    net::kill_uniform_fraction(overlay, 0.12, rng);
  }

  TrialOutcome outcome;
  outcome.levels.assign(kWindow, -1.0);
  outcome.blocks.assign(kWindow, -1.0);
  outcome.allotted.assign(kWindow, -1.0);
  const auto retained = store.retained_rounds();
  for (std::size_t age = 0; age < retained.size() && age < kWindow; ++age) {
    const auto q = store.query(retained[age], rng);
    if (!q.has_value()) continue;
    outcome.levels[age] = static_cast<double>(q->decoded_levels);
    outcome.blocks[age] = static_cast<double>(q->blocks_retrievable);
    outcome.allotted[age] = static_cast<double>(q->locations_allotted);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, bench::UnknownArgs::kReject,
                    {"--trials", "--seed", "--threads", "--json"});
  bench::banner("Ablation — timeline retention policies",
                "10 rounds, churn 12%/round, budget 480 locations, window 5.");
  const std::size_t trials = bench::options().trials_or(12, 3);
  const std::uint64_t seed = bench::options().seed_or(0x71EE);
  const auto spec = codes::PrioritySpec({10, 20, 30});  // N = 60 per round
  const auto dist = codes::PriorityDistribution({0.4, 0.3, 0.3});

  const proto::RetentionPolicy policies[] = {proto::RetentionPolicy::kSlidingWindow,
                                             proto::RetentionPolicy::kExponentialDecay};

  // age -> stats, per policy
  std::vector<std::vector<RunningStats>> levels(2, std::vector<RunningStats>(kWindow));
  std::vector<std::vector<RunningStats>> blocks(2, std::vector<RunningStats>(kWindow));
  std::vector<std::vector<RunningStats>> allotted(2, std::vector<RunningStats>(kWindow));

  runtime::TrialRunner runner(bench::options().threads);
  for (std::size_t p = 0; p < 2; ++p) {
    const auto outcomes = runner.run(trials, seed, [&, p](std::size_t, Rng& rng) {
      return run_trial(policies[p], spec, dist, rng);
    });
    for (const TrialOutcome& outcome : outcomes) {
      for (std::size_t age = 0; age < kWindow; ++age) {
        if (outcome.levels[age] < 0) continue;
        levels[p][age].add(outcome.levels[age]);
        blocks[p][age].add(outcome.blocks[age]);
        allotted[p][age].add(outcome.allotted[age]);
      }
    }
  }

  bench::BenchReport report("abl_timeline");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  const char* policy_names[] = {"sliding_window", "exponential_decay"};
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t age = 0; age < kWindow; ++age) {
      report.add_point(policy_names[p],
                       {{"round_age", static_cast<double>(age)},
                        {"locations_allotted", allotted[p][age].mean()},
                        {"blocks_retrievable", blocks[p][age].mean()},
                        {"decoded_levels", levels[p][age].mean()}});
    }
  }

  TablePrinter table({"round age", "window: share", "window: survivors", "window: levels",
                      "decay: share", "decay: survivors", "decay: levels"});
  for (std::size_t age = 0; age < kWindow; ++age) {
    table.add_row({std::to_string(age), fmt_double(allotted[0][age].mean(), 0),
                   fmt_double(blocks[0][age].mean(), 0),
                   fmt_mean_ci(levels[0][age].mean(), levels[0][age].ci95_halfwidth(), 2),
                   fmt_double(allotted[1][age].mean(), 0),
                   fmt_double(blocks[1][age].mean(), 0),
                   fmt_mean_ci(levels[1][age].mean(), levels[1][age].ci95_halfwidth(), 2)});
  }
  table.emit("abl_timeline");
  std::cout << "\nExpected shape: equal shares decay uniformly with age (churn eats\n"
               "survivors); exponential decay trades old rounds' depth for newer\n"
               "rounds' safety, losing raw samples before aggregates before alarms.\n";
  bench::finalize(&report);
  return 0;
}
