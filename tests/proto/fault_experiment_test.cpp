#include "proto/fault_experiment.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/check.h"

namespace prlc::proto {
namespace {

/// Loud faults on a scale axis: timeouts, transient errors, CRC-caught
/// corruption and truncation, crashes, stragglers.
FaultSweepParams small_params(std::vector<double> scales = {0.0, 1.0, 4.0}) {
  FaultSweepParams p;
  p.overlay = OverlayKind::kSensor;
  p.nodes = 80;
  p.locations = 48;
  p.experiment.level_sizes = {4, 6, 10};  // N = 20
  p.experiment.trials = 12;
  p.experiment.root_seed = 2024;
  p.experiment.threads = 1;
  p.churn_fraction = 0.2;
  net::FaultSpec base;
  base.timeout_rate = 0.05;
  base.transient_rate = 0.05;
  base.corrupt_rate = 0.05;
  base.truncate_rate = 0.02;
  base.crash_rate = 0.03;
  base.slow_fraction = 0.2;
  for (const double scale : scales) p.faults.push_back(base.scaled(scale));
  return p;
}

/// Silent faults on a rot x Byzantine grid, over an optional loud backdrop
/// and no churn.
FaultSweepParams silent_params(const net::FaultSpec& backdrop = {}) {
  FaultSweepParams p = small_params({});
  p.churn_fraction = 0.0;
  // Weight the deep level so 48 locations always carry enough full-width
  // blocks for a clean full decode (uniform occasionally undersamples it).
  p.experiment.priority_distribution = {0.2, 0.3, 0.5};
  p.experiment.trials = 8;
  const std::pair<double, double> mixes[] = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 0.25}, {0.3, 0.15}};
  for (const auto& [rot, byzantine] : mixes) {
    net::FaultSpec& spec = p.faults.emplace_back(backdrop);
    spec.bitrot_rate = rot;
    spec.byzantine_fraction = byzantine;
  }
  return p;
}

TEST(FaultExperiment, ThreadCountNeverChangesResults) {
  // The acceptance bar for the whole fault subsystem: with faults
  // enabled, --threads 1 and --threads 8 are bit-identical, on either
  // overlay (each trial builds its own, whose lookups cache state), for
  // loud faults and for silent mixes verified against a manifest. Every
  // field of every point must match.
  for (const OverlayKind overlay : {OverlayKind::kSensor, OverlayKind::kChord}) {
    SCOPED_TRACE(to_string(overlay));
    auto serial = small_params();
    serial.overlay = overlay;
    auto parallel = serial;
    parallel.experiment.threads = 8;
    EXPECT_EQ(run_fault_experiment(serial), run_fault_experiment(parallel));
  }
  auto serial = silent_params();
  auto parallel = serial;
  parallel.experiment.threads = 8;
  EXPECT_EQ(run_fault_experiment(serial), run_fault_experiment(parallel));
}

TEST(FaultExperiment, ZeroScaleIsFaultFreeAndDegradationGrows) {
  const auto points = run_fault_experiment(small_params());
  ASSERT_EQ(points.size(), 3u);
  // Scale 0: no faults at all — nothing retried, nothing lost, full decode
  // (48 locations, 20% churn, 20 unknowns leaves a wide margin).
  EXPECT_EQ(points[0].mean_retries, 0.0);
  EXPECT_EQ(points[0].mean_blocks_lost, 0.0);
  EXPECT_EQ(points[0].degraded_fraction, 0.0);
  EXPECT_EQ(points[0].mean_decoded_levels, 3.0);
  // Rising fault scale: the adversity ledger grows...
  EXPECT_GT(points[2].mean_blocks_lost, points[0].mean_blocks_lost);
  EXPECT_GT(points[2].mean_retries, points[1].mean_retries);
  EXPECT_GT(points[2].degraded_fraction, 0.0);
  // ...and decoded levels degrade monotonically (means, same trials).
  EXPECT_LE(points[1].mean_decoded_levels, points[0].mean_decoded_levels);
  EXPECT_LE(points[2].mean_decoded_levels, points[1].mean_decoded_levels);
  // Loud faults are all caught on the wire: no silent frame is served,
  // nothing is flagged, and no decoded byte is wrong.
  for (const FaultPoint& pt : points) {
    EXPECT_EQ(pt.wrong_decode_fraction, 0.0);
    EXPECT_EQ(pt.detection_ratio, 1.0);
    EXPECT_EQ(pt.mean_integrity_violations, 0.0);
    EXPECT_EQ(pt.mean_quarantined_nodes, 0.0);
  }
}

TEST(FaultExperiment, PlcRetainsLeadingLevelsWhereRlcCliffs) {
  // Thin margin + heavy faults: RLC needs all N blocks and cliffs; PLC
  // keeps decoding leading levels from the surviving prefix-heavy blocks.
  // Scale 3: the per-attempt fault mass is 0.6, so retries recover most
  // fetches but crashes and exhausted budgets still lose ~25% of the
  // blocks — enough to push RLC below its all-or-nothing threshold.
  auto params = small_params({3.0});
  params.experiment.trials = 16;
  params.locations = 30;  // only 1.5x N before churn and faults
  params.churn_fraction = 0.25;
  params.experiment.scheme = codes::Scheme::kPlc;
  const auto plc = run_fault_experiment(params);
  params.experiment.scheme = codes::Scheme::kRlc;
  const auto rlc = run_fault_experiment(params);
  EXPECT_GT(plc[0].mean_decoded_levels, rlc[0].mean_decoded_levels);
}

TEST(FaultExperiment, DetectsEverySilentFrameAndNeverDecodesWrongBytes) {
  // The acceptance bar of the integrity subsystem: across a grid of
  // silent-corruption mixes, every forged/rotten frame the channel served
  // is caught by the fingerprint and nothing wrong ever leaves the
  // decoder.
  const auto points = run_fault_experiment(silent_params());
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].detection_ratio, 1.0) << "point " << i;
    EXPECT_EQ(points[i].wrong_decode_fraction, 0.0) << "point " << i;
  }
  // Clean point: nothing flagged, nothing quarantined, full decode.
  EXPECT_EQ(points[0].mean_integrity_violations, 0.0);
  EXPECT_EQ(points[0].mean_quarantined_nodes, 0.0);
  EXPECT_EQ(points[0].mean_decoded_levels, 3.0);
  // Silent pressure leaves a ledger trail: violations detected and the
  // offending nodes quarantined.
  EXPECT_GT(points[1].mean_integrity_violations, 0.0);
  EXPECT_GT(points[1].mean_quarantined_nodes, 0.0);
  EXPECT_GT(points[2].mean_integrity_violations, 0.0);
  EXPECT_GT(points[2].mean_quarantined_nodes, 0.0);
}

TEST(FaultExperiment, SilentFaultsComposeWithLoudOnes) {
  // Wire-visible faults run underneath the silent mix; the integrity
  // guarantees are unchanged and the loud ledger still fills in.
  net::FaultSpec backdrop;
  backdrop.timeout_rate = 0.05;
  backdrop.corrupt_rate = 0.08;
  backdrop.transient_rate = 0.05;
  const auto points = run_fault_experiment(silent_params(backdrop));
  ASSERT_EQ(points.size(), 4u);
  for (const FaultPoint& pt : points) {
    EXPECT_EQ(pt.detection_ratio, 1.0);
    EXPECT_EQ(pt.wrong_decode_fraction, 0.0);
  }
  EXPECT_GT(points[0].mean_wire_errors, 0.0);
  EXPECT_GT(points[0].mean_retries, 0.0);
}

TEST(FaultExperiment, ParamsValidated) {
  auto p = small_params();
  p.faults.clear();
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.churn_fraction = 1.5;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.faults[1].corrupt_rate = 2.0;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = silent_params();
  p.faults[2].bitrot_rate = 1.5;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = silent_params();
  p.faults[0].byzantine_fraction = -0.1;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.experiment.trials = 0;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
}

}  // namespace
}  // namespace prlc::proto
