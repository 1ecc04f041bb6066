#include "proto/fault_experiment.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace prlc::proto {
namespace {

FaultSweepParams small_params() {
  FaultSweepParams p;
  p.overlay = OverlayKind::kSensor;
  p.nodes = 80;
  p.locations = 48;
  p.experiment.level_sizes = {4, 6, 10};  // N = 20
  p.experiment.trials = 12;
  p.experiment.root_seed = 2024;
  p.experiment.threads = 1;
  p.churn_fraction = 0.2;
  p.faults.timeout_rate = 0.05;
  p.faults.transient_rate = 0.05;
  p.faults.corrupt_rate = 0.05;
  p.faults.truncate_rate = 0.02;
  p.faults.crash_rate = 0.03;
  p.faults.slow_fraction = 0.2;
  p.fault_scales = {0.0, 1.0, 4.0};
  return p;
}

TEST(FaultExperiment, ThreadCountNeverChangesResults) {
  // The acceptance bar for the whole fault subsystem: with faults
  // enabled, --threads 1 and --threads 8 are bit-identical, on either
  // overlay (each trial builds its own, whose lookups cache state).
  for (const OverlayKind overlay : {OverlayKind::kSensor, OverlayKind::kChord}) {
    SCOPED_TRACE(to_string(overlay));
    auto serial = small_params();
    serial.overlay = overlay;
    serial.experiment.threads = 1;
    auto parallel = serial;
    parallel.experiment.threads = 8;
    const auto a = run_fault_experiment(serial);
    const auto b = run_fault_experiment(parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].fault_scale, b[i].fault_scale);
      EXPECT_EQ(a[i].mean_decoded_levels, b[i].mean_decoded_levels);
      EXPECT_EQ(a[i].ci95_decoded_levels, b[i].ci95_decoded_levels);
      EXPECT_EQ(a[i].mean_decoded_blocks, b[i].mean_decoded_blocks);
      EXPECT_EQ(a[i].mean_blocks_retrieved, b[i].mean_blocks_retrieved);
      EXPECT_EQ(a[i].mean_blocks_lost, b[i].mean_blocks_lost);
      EXPECT_EQ(a[i].mean_retries, b[i].mean_retries);
      EXPECT_EQ(a[i].mean_hedges, b[i].mean_hedges);
      EXPECT_EQ(a[i].mean_wire_errors, b[i].mean_wire_errors);
      EXPECT_EQ(a[i].mean_timeouts, b[i].mean_timeouts);
      EXPECT_EQ(a[i].mean_crashes, b[i].mean_crashes);
      EXPECT_EQ(a[i].degraded_fraction, b[i].degraded_fraction);
    }
  }
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
}

TEST(FaultExperiment, PlcRetainsLeadingLevelsWhereRlcCliffs) {
  // Thin margin + heavy faults: RLC needs all N blocks and cliffs; PLC
  // keeps decoding leading levels from the surviving prefix-heavy blocks.
  auto params = small_params();
  params.experiment.trials = 16;
  params.locations = 30;  // only 1.5x N before churn and faults
  params.churn_fraction = 0.25;
  // Scale 3: the per-attempt fault mass is 0.6, so retries recover most
  // fetches but crashes and exhausted budgets still lose ~25% of the
  // blocks — enough to push RLC below its all-or-nothing threshold.
  params.fault_scales = {3.0};
  params.experiment.scheme = codes::Scheme::kPlc;
  const auto plc = run_fault_experiment(params);
  params.experiment.scheme = codes::Scheme::kRlc;
  const auto rlc = run_fault_experiment(params);
  EXPECT_GT(plc[0].mean_decoded_levels, rlc[0].mean_decoded_levels);
}

TEST(FaultExperiment, ParamsValidated) {
  auto p = small_params();
  p.fault_scales.clear();
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.fault_scales = {2.0, 1.0};  // descending
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.fault_scales = {-1.0};
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.churn_fraction = 1.5;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.faults.corrupt_rate = 2.0;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
  p = small_params();
  p.experiment.trials = 0;
  EXPECT_THROW(run_fault_experiment(p), PreconditionError);
}

}  // namespace
}  // namespace prlc::proto
