// Validates the discrete-event simulator against the closed-form
// no-repair persistency model (analysis/persistency_model.h): with
// exponential node lifetimes and no repair, every block independently
// survives to t with p(t) = exp(-lambda t), so E[decoded levels] has a
// closed form (SLC, replication) or a cheap count-model Monte Carlo
// (PLC). The simulator, run with RepairPolicy::kNone in the M << W
// regime the model assumes, must land on the same curve.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/persistency_model.h"
#include "sim/cluster_sim.h"

namespace prlc::sim {
namespace {

constexpr double kLambda = 0.05;
constexpr double kTolerance = 0.15;  // levels; sim MC noise + host collisions

ClusterParams no_repair_cluster(codes::Scheme scheme) {
  ClusterParams params;
  params.nodes = 5000;  // M = 96 << W: the model's independence regime
  params.max_time = 20.0;
  params.replacement_delay = 0.5;
  params.sample_times = {5.0, 10.0, 15.0, 20.0};
  params.experiment.trials = 200;
  params.experiment.root_seed = 1701;
  params.experiment.level_sizes = {8, 16, 24};
  params.experiment.scheme = scheme;
  params.experiment.failure.kind = FailureModelConfig::Kind::kPoisson;
  params.experiment.failure.churn_rate = kLambda;
  params.repair.policy = RepairPolicy::kNone;
  return params;
}

TEST(AnalyticValidation, SlcCurveMatchesClosedForm) {
  const ClusterParams params = no_repair_cluster(codes::Scheme::kSlc);
  const ClusterPoint point = run_cluster_lifetime(params);
  const auto spec = params.experiment.spec();
  const std::vector<std::size_t> level_blocks = {32, 32, 32};  // uniform apportionment
  for (std::size_t s = 0; s < params.sample_times.size(); ++s) {
    const double p = analysis::block_survival(kLambda, params.sample_times[s]);
    const double expected = analysis::slc_expected_levels(spec, level_blocks, p);
    EXPECT_NEAR(point.mean_levels_at[s], expected, kTolerance)
        << "t = " << params.sample_times[s] << ", survival = " << p;
  }
}

TEST(AnalyticValidation, PlcCurveMatchesCountModelMonteCarlo) {
  const ClusterParams params = no_repair_cluster(codes::Scheme::kPlc);
  const ClusterPoint point = run_cluster_lifetime(params);
  const auto spec = params.experiment.spec();
  const std::vector<std::size_t> level_blocks = {32, 32, 32};
  for (std::size_t s = 0; s < params.sample_times.size(); ++s) {
    const double p = analysis::block_survival(kLambda, params.sample_times[s]);
    const double expected = analysis::mc_expected_levels_at_survival(
        codes::Scheme::kPlc, spec, level_blocks, p, 20000, 8888);
    EXPECT_NEAR(point.mean_levels_at[s], expected, kTolerance)
        << "t = " << params.sample_times[s] << ", survival = " << p;
  }
}

TEST(AnalyticValidation, ReplicationCurveMatchesClosedForm) {
  ClusterParams params = no_repair_cluster(codes::Scheme::kPlc);
  params.replication = true;
  const ClusterPoint point = run_cluster_lifetime(params);
  const auto spec = params.experiment.spec();
  for (std::size_t s = 0; s < params.sample_times.size(); ++s) {
    const double p = analysis::block_survival(kLambda, params.sample_times[s]);
    const double expected = analysis::replication_expected_levels(spec, 3, p);
    EXPECT_NEAR(point.mean_levels_at[s], expected, kTolerance)
        << "t = " << params.sample_times[s] << ", survival = " << p;
  }
}

TEST(AnalyticValidation, ClosedFormsAgreeWithTheirOwnMonteCarlo) {
  // Cross-check the closed forms against the count-model MC at a few
  // survival probabilities — independent of the simulator entirely.
  const codes::PrioritySpec spec({8, 16, 24});
  const std::vector<std::size_t> level_blocks = {32, 32, 32};
  for (const double p : {0.9, 0.6, 0.4, 0.25}) {
    const double closed = analysis::slc_expected_levels(spec, level_blocks, p);
    const double mc = analysis::mc_expected_levels_at_survival(
        codes::Scheme::kSlc, spec, level_blocks, p, 40000, 31337);
    EXPECT_NEAR(closed, mc, 0.05) << "survival = " << p;
  }
}

TEST(AnalyticValidation, BlockSurvivalIsExponentialDecay) {
  EXPECT_DOUBLE_EQ(analysis::block_survival(0.1, 0.0), 1.0);
  EXPECT_NEAR(analysis::block_survival(0.1, 10.0), std::exp(-1.0), 1e-12);
  EXPECT_THROW(analysis::block_survival(-0.1, 1.0), PreconditionError);
}

}  // namespace
}  // namespace prlc::sim
