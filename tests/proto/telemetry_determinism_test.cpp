// In-process check of the telemetry determinism contract: the exported
// events and time-series JSONL are byte-identical at any thread count.
// The smoke suite re-checks the same property end to end through the
// bench binaries (see bench/CMakeLists.txt, smoke_telemetry_determinism);
// this test keeps the contract under the sanitizers and in plain ctest
// without spawning processes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "net/fault_model.h"
#include "obs/events.h"
#include "proto/fault_experiment.h"
#include "proto/persistence_experiment.h"
#include "proto/refresh.h"

namespace prlc::proto {
namespace {

/// Run `experiment` once per thread count with a clean telemetry slate;
/// return the (events, timeseries) JSONL pair per run.
template <typename Experiment>
std::vector<std::pair<std::string, std::string>> telemetry_across_threads(
    Experiment&& experiment) {
  obs::set_telemetry_enabled(true);
  std::vector<std::pair<std::string, std::string>> exports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::reset_telemetry();
    experiment(threads);
    exports.emplace_back(obs::Journal::global().events_jsonl(),
                         obs::Journal::global().timeseries_jsonl());
  }
  obs::set_telemetry_enabled(false);
  obs::reset_telemetry();
  return exports;
}

TEST(TelemetryDeterminism, PersistenceExperimentJournalsIdenticallyAcrossThreads) {
  PersistenceParams params;
  params.nodes = 60;
  params.experiment.trials = 6;
  params.experiment.root_seed = 11;
  params.experiment.level_sizes = {4, 8, 12};
  params.failure_fractions = {0.2, 0.5};
  const auto exports = telemetry_across_threads([&](std::size_t threads) {
    params.experiment.threads = threads;
    run_persistence_experiment(params);
  });
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_FALSE(exports[0].first.empty());   // churn must journal node_failed
  EXPECT_FALSE(exports[0].second.empty());  // sweep must record series
  EXPECT_EQ(exports[0].first, exports[1].first);
  EXPECT_EQ(exports[0].first, exports[2].first);
  EXPECT_EQ(exports[0].second, exports[1].second);
  EXPECT_EQ(exports[0].second, exports[2].second);
}

TEST(TelemetryDeterminism, FaultSweepJournalsIdenticallyAcrossThreads) {
  FaultSweepParams params;
  params.nodes = 50;
  params.experiment.trials = 6;
  params.experiment.root_seed = 3;
  params.experiment.level_sizes = {4, 8};
  params.churn_fraction = 0.2;
  net::FaultSpec base;
  base.timeout_rate = 0.2;
  base.transient_rate = 0.1;
  for (const double scale : {0.5, 1.0, 1.5}) params.faults.push_back(base.scaled(scale));
  const auto exports = telemetry_across_threads([&](std::size_t threads) {
    params.experiment.threads = threads;
    run_fault_experiment(params);
  });
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_FALSE(exports[0].first.empty());
  EXPECT_FALSE(exports[0].second.empty());
  EXPECT_EQ(exports[0].first, exports[1].first);
  EXPECT_EQ(exports[0].first, exports[2].first);
  EXPECT_EQ(exports[0].second, exports[1].second);
  EXPECT_EQ(exports[0].second, exports[2].second);
}

TEST(TelemetryDeterminism, RefreshExperimentJournalsIdenticallyAcrossThreads) {
  RefreshExperimentParams params;
  params.nodes = 60;
  params.locations = 40;
  params.experiment.trials = 6;
  params.experiment.root_seed = 5;
  params.experiment.level_sizes = {4, 8};
  params.protocol.block_size = 4;
  params.waves = 3;
  params.kill_fraction = 0.3;
  const auto exports = telemetry_across_threads([&](std::size_t threads) {
    params.experiment.threads = threads;
    run_refresh_experiment(params);
  });
  ASSERT_EQ(exports.size(), 3u);
  // Churn journals node_failed and every wave journals its refresh round.
  EXPECT_NE(exports[0].first.find("refresh_round"), std::string::npos);
  EXPECT_FALSE(exports[0].second.empty());
  EXPECT_EQ(exports[0].first, exports[1].first);
  EXPECT_EQ(exports[0].first, exports[2].first);
  EXPECT_EQ(exports[0].second, exports[1].second);
  EXPECT_EQ(exports[0].second, exports[2].second);
}

}  // namespace
}  // namespace prlc::proto
