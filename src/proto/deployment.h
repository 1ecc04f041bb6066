// One deployment-trial harness for the system-level experiments.
//
// The persistence, fault and refresh experiments all test the paper's
// system claim with one procedure: deploy an overlay, pre-distribute PRLC
// blocks by in-network encoding (Sec. 4), perturb the network, collect,
// and count the levels that still decode. Deployment is the shared first
// half of that procedure; run_sweep is the shared trial loop around it. A
// driver keeps only its axis validation, its per-point body (churn wave,
// fault plan — loud or silent — , kill + refresh) and the mapping from
// column statistics to its Point struct.
//
// Draw order per trial, from the trial's counter-seeded Rng: overlay seed
// (one rng() draw), source payloads, dissemination — then, only when the
// driver asks, the manifest seed (manifest(rng)); the fault sweep asks
// after its churn wave, and only when a point injects silent faults.
// Drivers that never build a manifest keep the draw stream they had
// before it existed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "codes/decoder.h"
#include "codes/source_data.h"
#include "net/overlay.h"
#include "proto/experiment_config.h"
#include "proto/predistribution.h"
#include "util/gf64_fingerprint.h"
#include "util/random.h"
#include "util/stats.h"

namespace prlc::proto {

enum class OverlayKind { kSensor, kChord };

const char* to_string(OverlayKind kind);

/// The one place the experiments construct an overlay.
std::unique_ptr<net::Overlay> make_overlay(OverlayKind kind, std::size_t nodes,
                                           std::size_t locations, bool two_choices,
                                           std::uint64_t seed);

/// What every trial of a sweep deploys. The sweep param structs inherit
/// it, so `params.nodes = ...` reads the same at every call site.
struct DeploymentParams {
  OverlayKind overlay = OverlayKind::kSensor;
  std::size_t nodes = 300;
  std::size_t locations = 0;  ///< 0 = auto: 2x the source-block count
  bool two_choices = false;
  /// Monte-Carlo execution: trials, root seed, threads, scheme, spec.
  ExperimentConfig experiment;
  ProtocolParams protocol;  ///< scheme field is overwritten from experiment.scheme
};

/// One trial's deployment: overlay, pre-distribution and the source data,
/// already disseminated.
class Deployment {
 public:
  Deployment(const DeploymentParams& params, Rng& rng);

  net::Overlay& overlay() { return *overlay_; }
  Predistribution& predist() { return predist_; }
  const codes::SourceData<Field>& source() const { return source_; }
  const DisseminationStats& stats() const { return stats_; }

  /// A fresh decoder for this deployment's scheme, spec and block size.
  codes::PriorityDecoder<Field> decoder() const;

  /// GF(2^64) fingerprint manifest of the source blocks (8 bytes per
  /// block), built from one rng() draw.
  util::FingerprintManifest manifest(Rng& rng) const;

 private:
  std::unique_ptr<net::Overlay> overlay_;
  Predistribution predist_;
  codes::SourceData<Field> source_;
  DisseminationStats stats_;
};

/// One trial's result: one row per sweep point, one column per statistic.
using SweepTable = std::vector<std::vector<double>>;
/// Column statistics per sweep point, [point][column].
using SweepStats = std::vector<std::vector<RunningStats>>;

/// Run `params.experiment.trials` trials through runtime::TrialRunner.
/// Each trial builds a Deployment and hands it to `body`, which returns a
/// `points`-row table; the tables merge into RunningStats in trial order,
/// so the result is bit-identical at any thread count. A nonempty
/// `category` counts trials on `<category>.trials` and wraps each in a
/// "trial" span of that category.
SweepStats run_sweep(const DeploymentParams& params, std::size_t points,
                     std::string_view category,
                     const std::function<SweepTable(Deployment&, Rng&)>& body);

}  // namespace prlc::proto
