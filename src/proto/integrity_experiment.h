// Silent-corruption sweep: end-to-end integrity verification under bit
// rot and Byzantine nodes.
//
// The fault experiment (proto/fault_experiment.h) sweeps *loud* faults —
// timeouts, CRC-caught corruption, crashes. This driver sweeps the silent
// ones the wire checks cannot see: at-rest bit rot served under a
// re-covered CRC and Byzantine nodes forging well-formed frames. One
// deployment per trial builds the GF(2^64) fingerprint manifest of the
// source blocks; for each (rot_rate, byzantine_fraction) point an
// independent FaultyChannel injects the mix and a fresh decoder collects
// with CollectorOptions::manifest set. Reported per point: decode
// outcome, the integrity ledger (violations, quarantined nodes), the
// detection ratio (violations detected / silent frames actually served —
// must be 1), and the wrong-decode fraction (decoded blocks that differ
// from the source — must be 0: the acceptance criterion that the decoder
// never returns wrong bytes under any injected silent-corruption mix).
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

/// One silent-corruption sweep point.
struct IntegrityMix {
  double rot_rate = 0.0;            ///< FaultSpec::bitrot_rate
  double byzantine_fraction = 0.0;  ///< FaultSpec::byzantine_fraction
};

struct IntegritySweepParams : DeploymentParams {
  /// Loud-fault backdrop applied at every point (timeouts, CRC-caught
  /// corruption, ...); the silent knobs inside it are overwritten per
  /// point from `mixes`.
  net::FaultSpec faults;
  std::vector<IntegrityMix> mixes;  ///< at least one point
  RetryPolicy retry;
};

struct IntegrityPoint {
  double rot_rate = 0;
  double byzantine_fraction = 0;
  double mean_decoded_levels = 0;
  double ci95_decoded_levels = 0;
  double mean_blocks_retrieved = 0;
  double mean_blocks_lost = 0;
  double mean_integrity_violations = 0;
  double mean_quarantined_nodes = 0;
  double mean_wire_errors = 0;
  double mean_retries = 0;
  /// Detected violations / silent frames the channel actually served
  /// (1 when nothing silent was served). Anything below 1 means a forged
  /// frame slipped past the fingerprint.
  double detection_ratio = 1.0;
  /// Fraction of decoded source blocks that differ from the original —
  /// the zero-wrong-bytes acceptance criterion.
  double wrong_decode_fraction = 0;
  double degraded_fraction = 0;
};

/// Run the sweep; one deployment + manifest per trial, one independent
/// channel and decoder per (trial, mix) point.
std::vector<IntegrityPoint> run_integrity_experiment(const IntegritySweepParams& params);

}  // namespace prlc::proto
