// Fault sweep experiment: retrieval under adversity, end to end — the one
// sweep for loud and silent faults.
//
// The persistence experiment (proto/persistence_experiment.h) sweeps how
// much data survives churn that happens *before* collection; this driver
// sweeps how much survives faults that happen *during* collection. One
// deployment per trial (overlay + dissemination + an optional mass-
// failure wave), then for each sweep point an independent FaultyChannel
// is built from that point's FaultSpec and a fresh decoder collects
// through collect(channel, ...). A point's spec may mix loud faults
// (timeouts, CRC-caught corruption, crashes) with silent ones the wire
// checks cannot see (at-rest bit rot under a re-covered CRC, Byzantine
// nodes forging well-formed frames). When any point injects silent
// faults, each trial builds the GF(2^64) fingerprint manifest of its
// source blocks and every point collects against it
// (CollectorOptions::manifest).
//
// Reported per point: decode outcome, the retry ledger (retries, hedges,
// per-class fault counts, blocks written off), the integrity ledger
// (violations, quarantined nodes), the detection ratio (violations
// detected / silent frames actually served — must be 1) and the
// wrong-decode fraction (decoded blocks that differ from the source —
// must be 0: the decoder never returns wrong bytes under any mix).
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
  /// One fault profile per sweep point (at least one). The caller builds
  /// its own axis: scaled loud profiles, silent-corruption mixes, or both.
  std::vector<net::FaultSpec> faults;
};

struct FaultPoint {
  double mean_decoded_levels = 0;
  double ci95_decoded_levels = 0;
  double mean_decoded_blocks = 0;
  double mean_blocks_retrieved = 0;
  // Retry ledger.
  double mean_blocks_lost = 0;
  double mean_retries = 0;
  double mean_hedges = 0;
  double mean_wire_errors = 0;
  double mean_timeouts = 0;
  double mean_transient_errors = 0;
  double mean_crashes = 0;
  double mean_blacklisted = 0;
  // Integrity ledger (zero unless some point injects silent faults).
  double mean_integrity_violations = 0;
  double mean_quarantined_nodes = 0;
  /// Detected violations / silent frames the channel actually served
  /// (1 when nothing silent was served). Anything below 1 means a forged
  /// frame slipped past the fingerprint.
  double detection_ratio = 1.0;
  /// Fraction of decoded source blocks that differ from the original —
  /// the zero-wrong-bytes acceptance criterion.
  double wrong_decode_fraction = 0;
  double degraded_fraction = 0;  ///< trials that lost at least one block

  bool operator==(const FaultPoint&) const = default;
};

/// Run the sweep; one deployment (and, for a silent sweep, one manifest)
/// per trial, one independent channel and decoder per (trial, point).
std::vector<FaultPoint> run_fault_experiment(const FaultSweepParams& params);

}  // namespace prlc::proto
