// Fault-rate sweep experiment: retrieval under adversity, end to end.
//
// The persistence experiment (proto/persistence_experiment.h) sweeps how
// much data survives churn that happens *before* collection; this driver
// sweeps how much survives faults that happen *during* collection. One
// deployment per trial (overlay + dissemination + an optional mass-
// failure wave), then for each fault scale an independent FaultyChannel
// is built from the scaled FaultSpec and a fresh decoder collects through
// collect(channel, ...). Reported per point: decoded levels plus the
// self-healing ledger (retries, hedges, per-class fault counts, blocks
// written off).
//
// Trials run through proto::run_sweep (proto/deployment.h); results are
// bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <vector>

#include "net/fault_model.h"
#include "proto/collector.h"
#include "proto/deployment.h"

namespace prlc::proto {

struct FaultSweepParams : DeploymentParams {
  /// Mass-failure fraction applied once, before collection starts.
  double churn_fraction = 0.0;
  /// Base fault profile; each sweep point collects under
  /// faults.scaled(fault_scales[i]).
  net::FaultSpec faults;
  std::vector<double> fault_scales;  ///< ascending, nonnegative
  RetryPolicy retry;
};

struct FaultPoint {
  double fault_scale = 0;
  double mean_decoded_levels = 0;
  double ci95_decoded_levels = 0;
  double mean_decoded_blocks = 0;
  double mean_blocks_retrieved = 0;
  double mean_blocks_lost = 0;
  double mean_retries = 0;
  double mean_hedges = 0;
  double mean_wire_errors = 0;
  double mean_timeouts = 0;
  double mean_transient_errors = 0;
  double mean_crashes = 0;
  double mean_blacklisted = 0;
  double degraded_fraction = 0;  ///< trials that lost at least one block
};

/// Run the sweep; one deployment per trial, one independent channel and
/// decoder per (trial, fault scale).
std::vector<FaultPoint> run_fault_experiment(const FaultSweepParams& params);

}  // namespace prlc::proto
