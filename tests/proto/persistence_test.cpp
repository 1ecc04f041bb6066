#include "proto/persistence_experiment.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/check.h"

namespace prlc::proto {
namespace {

PersistenceParams base_params() {
  PersistenceParams p;
  p.overlay = OverlayKind::kChord;
  p.nodes = 80;
  p.locations = 60;
  p.experiment.level_sizes = {4, 6, 10};  // N = 20
  p.failure_fractions = {0.0, 0.3, 0.6, 0.9};
  p.experiment.trials = 6;
  p.experiment.root_seed = 33;
  p.experiment.threads = 1;
  return p;
}

TEST(Persistence, DecodedLevelsDegradeWithFailures) {
  const auto points = run_persistence_experiment(base_params());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_NEAR(points[0].mean_decoded_levels, 3.0, 0.01);  // no failures: all data
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].mean_decoded_levels, points[i - 1].mean_decoded_levels + 1e-9);
    EXPECT_LE(points[i].mean_surviving_blocks, points[i - 1].mean_surviving_blocks + 1e-9);
  }
  EXPECT_LT(points.back().mean_decoded_levels, 1.5);  // 90% dead
}

TEST(Persistence, PlcBeatsRlcUnderChurn) {
  // Past the survivors < N cliff (80% failure leaves ~12 blocks for
  // N = 20) RLC decodes nothing — rank can never reach 20 — while a
  // level-1-heavy PLC design still recovers the leading levels.
  auto plc = base_params();
  plc.failure_fractions = {0.8};
  plc.experiment.priority_distribution = {0.6, 0.2, 0.2};
  plc.experiment.trials = 10;
  auto rlc = plc;
  plc.experiment.scheme = codes::Scheme::kPlc;
  rlc.experiment.scheme = codes::Scheme::kRlc;
  const auto p_plc = run_persistence_experiment(plc);
  const auto p_rlc = run_persistence_experiment(rlc);
  EXPECT_GT(p_plc[0].mean_decoded_levels, p_rlc[0].mean_decoded_levels);
  EXPECT_GT(p_plc[0].mean_decoded_levels, 0.3);
  EXPECT_LT(p_rlc[0].mean_decoded_levels, 0.5);
}

TEST(Persistence, SensorOverlayWorks) {
  auto params = base_params();
  params.overlay = OverlayKind::kSensor;
  params.nodes = 150;
  const auto points = run_persistence_experiment(params);
  EXPECT_NEAR(points[0].mean_decoded_levels, 3.0, 0.01);
  EXPECT_GT(points[0].mean_dissemination_hops, 0.0);
}

TEST(Persistence, CustomDistributionRespected) {
  auto params = base_params();
  params.experiment.priority_distribution = {0.6, 0.2, 0.2};
  const auto points = run_persistence_experiment(params);
  EXPECT_NEAR(points[0].mean_decoded_levels, 3.0, 0.01);
}

TEST(Persistence, Validation) {
  auto params = base_params();
  params.experiment.level_sizes.clear();
  EXPECT_THROW(run_persistence_experiment(params), PreconditionError);
  params = base_params();
  params.failure_fractions = {0.5, 0.2};
  EXPECT_THROW(run_persistence_experiment(params), PreconditionError);
  params = base_params();
  params.experiment.trials = 0;
  EXPECT_THROW(run_persistence_experiment(params), PreconditionError);
  // Every fraction must be a fraction: a negative one used to run with no
  // failures applied, one above 1 tripped only an internal wave check.
  for (const std::vector<double>& fractions :
       {std::vector<double>{-0.5, 0.2}, std::vector<double>{0.5, 1.5}}) {
    params = base_params();
    params.failure_fractions = fractions;
    try {
      run_persistence_experiment(params);
      ADD_FAILURE() << "fractions out of [0,1] must be rejected";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("failure fractions must be in [0,1]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Persistence, ThreadCountDoesNotChangeResults) {
  // The determinism contract (runtime/trial_runner.h): identical points,
  // bit for bit, at any thread count.
  auto serial = base_params();
  serial.experiment.threads = 1;
  auto parallel = base_params();
  parallel.experiment.threads = 4;
  const auto a = run_persistence_experiment(serial);
  const auto b = run_persistence_experiment(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_surviving_blocks, b[i].mean_surviving_blocks);
    EXPECT_EQ(a[i].mean_decoded_levels, b[i].mean_decoded_levels);
    EXPECT_EQ(a[i].ci95_decoded_levels, b[i].ci95_decoded_levels);
    EXPECT_EQ(a[i].mean_decoded_blocks, b[i].mean_decoded_blocks);
    EXPECT_EQ(a[i].mean_dissemination_hops, b[i].mean_dissemination_hops);
  }
}

TEST(OverlayKindName, Strings) {
  EXPECT_STREQ(to_string(OverlayKind::kSensor), "sensor");
  EXPECT_STREQ(to_string(OverlayKind::kChord), "chord");
}

}  // namespace
}  // namespace prlc::proto
