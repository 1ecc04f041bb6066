#include "sim/cluster_sim.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace prlc::sim {
namespace {

ClusterParams small_cluster(std::size_t trials, std::uint64_t seed) {
  ClusterParams params;
  params.nodes = 2000;
  params.max_time = 40.0;
  params.replacement_delay = 0.5;
  params.experiment.trials = trials;
  params.experiment.root_seed = seed;
  params.experiment.level_sizes = {8, 16, 24};
  params.experiment.scheme = codes::Scheme::kPlc;
  params.experiment.failure.kind = FailureModelConfig::Kind::kPoisson;
  params.experiment.failure.churn_rate = 0.1;
  return params;
}

TEST(ClusterSim, ThreadCountNeverChangesResults) {
  // The tentpole determinism contract: the whole ClusterPoint — every
  // mean, every censored TTFL — is a pure function of (params, seed).
  ClusterParams params = small_cluster(12, 321);
  params.sample_times = {5.0, 10.0, 20.0};

  std::vector<ClusterPoint> points;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    params.experiment.threads = threads;
    points.push_back(run_cluster_lifetime(params));
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ(points[0].mean_first_loss, points[i].mean_first_loss);
    EXPECT_EQ(points[0].loss_fraction, points[i].loss_fraction);
    EXPECT_EQ(points[0].mean_ttfl_l1, points[i].mean_ttfl_l1);
    EXPECT_EQ(points[0].ci95_ttfl_l1, points[i].ci95_ttfl_l1);
    EXPECT_EQ(points[0].mean_levels_at, points[i].mean_levels_at);
    EXPECT_EQ(points[0].mean_failures, points[i].mean_failures);
    EXPECT_EQ(points[0].mean_joins, points[i].mean_joins);
    EXPECT_EQ(points[0].mean_repairs, points[i].mean_repairs);
    EXPECT_EQ(points[0].mean_repairs_dropped, points[i].mean_repairs_dropped);
    EXPECT_EQ(points[0].mean_repair_traffic, points[i].mean_repair_traffic);
    EXPECT_EQ(points[0].mean_events, points[i].mean_events);
    EXPECT_EQ(points[0].max_peak_queue, points[i].max_peak_queue);
  }
}

TEST(ClusterSim, SingleTrialReplaysFromItsSeed) {
  const ClusterParams params = small_cluster(1, 55);
  Rng r1(0xABCDEF), r2(0xABCDEF);
  const LifetimeOutcome a = run_cluster_trial(params, r1);
  const LifetimeOutcome b = run_cluster_trial(params, r2);
  EXPECT_EQ(a.first_loss, b.first_loss);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.repairs_completed, b.repairs_completed);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(r1(), r2());  // identical draw streams all the way through
}

TEST(ClusterSim, RepairReadsFourBlocksOnFourStreams) {
  // A stream re-encodes one block from 4 fetched blocks plus its write: 5
  // transfers, each stream at a quarter of the bandwidth.
  RepairConfig repair;
  repair.bandwidth = 8.0;
  EXPECT_DOUBLE_EQ(repair.repair_duration(), 2.5);
  const ClusterParams params = small_cluster(1, 55);
  Rng rng(0xABCDEF);
  const LifetimeOutcome outcome = run_cluster_trial(params, rng);
  EXPECT_GT(outcome.repairs_completed, 0u);
  EXPECT_EQ(outcome.repair_traffic, 5.0 * static_cast<double>(outcome.repairs_completed));
}

TEST(ClusterSim, PriorityAwareRepairExtendsLevel1Lifetime) {
  // The headline ablation: equal storage redundancy per level (so PLC's
  // storage skew cannot carry the claim) and equal repair bandwidth; only
  // the repair ORDER differs. Blind FIFO queues level-1 losses behind the
  // far more numerous level-2/3 repairs and lets the level-1 margin
  // erode; aware always spends the next stream on the lowest lost level.
  ClusterParams params = small_cluster(12, 2026);
  params.experiment.priority_distribution = {8.0 / 48, 16.0 / 48, 24.0 / 48};
  params.repair.bandwidth = 10.0;

  params.repair.policy = RepairPolicy::kPriorityAware;
  const ClusterPoint aware = run_cluster_lifetime(params);
  params.repair.policy = RepairPolicy::kPriorityBlind;
  const ClusterPoint blind = run_cluster_lifetime(params);
  params.repair.policy = RepairPolicy::kNone;
  const ClusterPoint none = run_cluster_lifetime(params);

  EXPECT_GT(aware.mean_ttfl_l1, blind.mean_ttfl_l1 + 2.0);
  EXPECT_LE(aware.loss_fraction[0], blind.loss_fraction[0]);
  // Any repair beats the no-repair decay floor.
  EXPECT_GT(blind.mean_ttfl_l1, none.mean_ttfl_l1);
  EXPECT_EQ(none.mean_repairs, 0.0);
}

TEST(ClusterSim, DifferentiatedPersistenceAcrossLevels) {
  // With the paper's storage skew (uniform distribution = more redundancy
  // per source for higher-priority levels), level 1 outlives level 2
  // outlives level 3.
  ClusterParams params = small_cluster(8, 99);
  params.experiment.failure.churn_rate = 0.2;
  params.repair.policy = RepairPolicy::kNone;
  const ClusterPoint point = run_cluster_lifetime(params);
  EXPECT_GT(point.mean_first_loss[0], point.mean_first_loss[1]);
  EXPECT_GT(point.mean_first_loss[1], point.mean_first_loss[2]);
}

TEST(ClusterSim, ReplicationBaselineRunsAndDecays) {
  ClusterParams params = small_cluster(4, 7);
  params.replication = true;
  params.experiment.failure.churn_rate = 0.2;
  params.sample_times = {1.0, 5.0, 20.0, 39.0};
  const ClusterPoint point = run_cluster_lifetime(params);
  // 3-way replication at churn 0.2 over 40 time units cannot hold level 3.
  EXPECT_GT(point.loss_fraction[2], 0.5);
  // Decoded levels start full and only decay without strong repair.
  EXPECT_GE(point.mean_levels_at.front(), point.mean_levels_at.back());
}

TEST(ClusterSim, MillionNodeClusterSustainsContinuousChurn) {
  // The scale headline: one 10^6-node lifetime under continuous churn,
  // short horizon. Lazily materialized state keeps this cheap — only the
  // ~200 hosts actually holding blocks get any per-node storage.
  ClusterParams params = small_cluster(1, 424242);
  params.nodes = 1000000;
  params.max_time = 2.0;
  params.experiment.failure.churn_rate = 0.02;
  Rng rng(424242);
  const LifetimeOutcome outcome = run_cluster_trial(params, rng);
  // E[failures] ~ alive * rate * time ~ 10^6 * 0.02 * 2 = 40000 (slightly
  // fewer: dead nodes wait replacement_delay before rejoining).
  EXPECT_GT(outcome.failures, 30000u);
  EXPECT_LT(outcome.failures, 50000u);
  EXPECT_GT(outcome.events, outcome.failures);  // joins ride along
  EXPECT_GT(outcome.peak_queue, 0u);
  // At M = 96 blocks over 10^6 nodes almost no block is even touched in
  // two time units; every level survives.
  for (const auto lost : outcome.lost) EXPECT_EQ(lost, 0u);
}

TEST(ClusterSim, IntegrityOffIsBitCompatibleWithTheBaseline) {
  // Default-constructed IntegrityConfig must not perturb a single draw:
  // the PR 9 numbers (and committed bench baselines) stay reproducible.
  const ClusterParams params = small_cluster(6, 321);
  ClusterParams with_cfg = params;
  with_cfg.integrity = IntegrityConfig{};  // explicit zeros
  const ClusterPoint a = run_cluster_lifetime(params);
  const ClusterPoint b = run_cluster_lifetime(with_cfg);
  EXPECT_EQ(a.mean_first_loss, b.mean_first_loss);
  EXPECT_EQ(a.mean_events, b.mean_events);
  EXPECT_EQ(a.mean_repairs, b.mean_repairs);
  EXPECT_EQ(b.mean_rot_events, 0.0);
  EXPECT_EQ(b.mean_scrub_scans, 0.0);
  EXPECT_EQ(b.mean_quarantined, 0.0);
}

TEST(ClusterSim, ScrubbingRecoversRottenBlocksUnscrubbedClustersDecay) {
  // Rot-only, zero loud churn: every loss is silent. Without scrubbing
  // the scheduler never learns and the cluster decays to level-1 death;
  // with scrubbing every rotten block is detected and re-encoded while
  // the level still stands.
  ClusterParams params = small_cluster(8, 1313);
  params.experiment.failure.kind = FailureModelConfig::Kind::kNone;  // zero loud failures
  params.integrity.rot_rate = 0.05;

  params.integrity.scrub_interval = 0.0;  // silent decay
  const ClusterPoint unscrubbed = run_cluster_lifetime(params);
  params.integrity.scrub_interval = 1.0;
  const ClusterPoint scrubbed = run_cluster_lifetime(params);

  EXPECT_GT(unscrubbed.mean_rot_events, 0.0);
  EXPECT_EQ(unscrubbed.mean_rot_detected, 0.0);
  EXPECT_EQ(unscrubbed.mean_repairs, 0.0);  // nothing loud ever surfaces the loss
  EXPECT_GT(scrubbed.mean_scrub_scans, 0.0);
  EXPECT_GT(scrubbed.mean_rot_detected, 0.0);
  EXPECT_GT(scrubbed.mean_repairs, 0.0);
  // The headline: detection turns silent decay back into repairable loss.
  EXPECT_GT(scrubbed.mean_ttfl_l1, unscrubbed.mean_ttfl_l1);
  EXPECT_LT(scrubbed.loss_fraction[0], unscrubbed.loss_fraction[0]);
}

TEST(ClusterSim, ByzantineHostsAreQuarantinedAndNeverRepairedInto) {
  ClusterParams params = small_cluster(1, 777);
  params.nodes = 400;
  params.experiment.failure.kind = FailureModelConfig::Kind::kNone;  // zero loud failures
  params.integrity.byzantine_fraction = 0.25;
  params.integrity.scrub_interval = 1.0;
  params.max_time = 20.0;
  Rng rng(9090);
  const LifetimeOutcome outcome = run_cluster_trial(params, rng);
  // Forged-at-birth blocks exist, are all detected, and their hosts end
  // up quarantined.
  EXPECT_GT(outcome.rot_events, 0u);
  EXPECT_GT(outcome.rot_detected, 0u);
  EXPECT_GT(outcome.quarantined_nodes, 0u);
  // Every detection event eventually drains: by the horizon no rotten
  // block can be sitting undetected longer than one scrub interval, and
  // repairs re-homed blocks onto honest nodes only (re-forged repairs
  // would show up as rot_events > detections + pending).
  EXPECT_GE(outcome.repairs_completed + outcome.repairs_dropped, outcome.rot_detected);
}

TEST(ClusterSim, RotTrialsReplayBitIdenticallyAtAnyThreadCount) {
  ClusterParams params = small_cluster(9, 4321);
  params.integrity.rot_rate = 0.04;
  params.integrity.byzantine_fraction = 0.1;
  params.integrity.scrub_interval = 2.0;
  params.sample_times = {5.0, 20.0};
  std::vector<ClusterPoint> points;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    params.experiment.threads = threads;
    points.push_back(run_cluster_lifetime(params));
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ(points[0].mean_first_loss, points[i].mean_first_loss);
    EXPECT_EQ(points[0].mean_levels_at, points[i].mean_levels_at);
    EXPECT_EQ(points[0].mean_repairs, points[i].mean_repairs);
    EXPECT_EQ(points[0].mean_rot_events, points[i].mean_rot_events);
    EXPECT_EQ(points[0].mean_rot_detected, points[i].mean_rot_detected);
    EXPECT_EQ(points[0].mean_scrub_scans, points[i].mean_scrub_scans);
    EXPECT_EQ(points[0].mean_quarantined, points[i].mean_quarantined);
  }
}

TEST(ClusterSim, ValidateRejectsBadParams) {
  ClusterParams params = small_cluster(1, 1);
  params.nodes = 0;
  EXPECT_THROW(params.validate(), PreconditionError);

  params = small_cluster(1, 1);
  params.repair.bandwidth = 0.0;
  EXPECT_THROW(params.validate(), PreconditionError);

  params = small_cluster(1, 1);
  params.replication = true;
  params.locations = 10;  // replication stores 3 copies per source block
  EXPECT_THROW(params.validate(), PreconditionError);

  params = small_cluster(1, 1);
  params.sample_times = {2.0, 1.0};  // not nondecreasing
  EXPECT_THROW(params.validate(), PreconditionError);

  params = small_cluster(1, 1);
  params.integrity.rot_rate = -0.1;
  EXPECT_THROW(params.validate(), PreconditionError);

  params = small_cluster(1, 1);
  params.integrity.byzantine_fraction = 1.5;
  EXPECT_THROW(params.validate(), PreconditionError);

  params = small_cluster(1, 1);
  params.replication = true;
  params.integrity.rot_rate = 0.1;  // silent model needs coded storage
  EXPECT_THROW(params.validate(), PreconditionError);
}

}  // namespace
}  // namespace prlc::sim
