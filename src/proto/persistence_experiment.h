// End-to-end persistence experiment: overlay + pre-distribution + churn +
// collection, swept over failure fractions.
//
// This is the system-level experiment the paper motivates (data surviving
// node failure) assembled from the substrates: deploy an overlay,
// disseminate priority-coded data per Sec. 4, kill a fraction of the
// nodes, let a collector decode what survives, and report how many
// priority levels each scheme still recovers. Used by the examples and
// the abl_persistence_e2e bench.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/deployment.h"

namespace prlc::proto {

struct PersistenceParams : DeploymentParams {
  std::vector<double> failure_fractions;  ///< ascending, each in [0,1]
};

struct PersistencePoint {
  double failure_fraction = 0;
  double mean_surviving_blocks = 0;
  double mean_decoded_levels = 0;
  double ci95_decoded_levels = 0;
  double mean_decoded_blocks = 0;
  double mean_dissemination_hops = 0;  ///< per delivered message
};

/// Run the sweep; one fresh deployment per trial, failures applied
/// cumulatively along the ascending fraction grid within a trial.
///
/// Trials are sharded across `params.experiment.threads` threads with
/// counter-based seed streams; results are bit-identical at any thread
/// count (see runtime/trial_runner.h).
std::vector<PersistencePoint> run_persistence_experiment(const PersistenceParams& params);

}  // namespace prlc::proto
