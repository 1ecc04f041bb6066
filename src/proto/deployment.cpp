#include "proto/deployment.h"

#include <optional>
#include <string>

#include "net/chord_network.h"
#include "net/sensor_network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "util/check.h"

namespace prlc::proto {

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kSensor:
      return "sensor";
    case OverlayKind::kChord:
      return "chord";
  }
  PRLC_ASSERT(false, "unknown overlay kind");
}

std::unique_ptr<net::Overlay> make_overlay(OverlayKind kind, std::size_t nodes,
                                           std::size_t locations, bool two_choices,
                                           std::uint64_t seed) {
  switch (kind) {
    case OverlayKind::kSensor: {
      net::SensorParams sp;
      sp.nodes = nodes;
      sp.locations = locations;
      sp.seed = seed;
      sp.two_choices = two_choices;
      return std::make_unique<net::SensorNetwork>(sp);
    }
    case OverlayKind::kChord: {
      net::ChordParams cp;
      cp.nodes = nodes;
      cp.locations = locations;
      cp.seed = seed;
      cp.two_choices = two_choices;
      return std::make_unique<net::ChordNetwork>(cp);
    }
  }
  PRLC_ASSERT(false, "unknown overlay kind");
}

namespace {

ProtocolParams protocol_of(const DeploymentParams& params) {
  ProtocolParams proto = params.protocol;
  proto.scheme = params.experiment.scheme;
  return proto;
}

}  // namespace

Deployment::Deployment(const DeploymentParams& params, Rng& rng)
    : overlay_(make_overlay(params.overlay, params.nodes,
                            params.locations > 0 ? params.locations
                                                 : 2 * params.experiment.spec().total(),
                            params.two_choices, rng())),
      predist_(*overlay_, params.experiment.spec(), params.experiment.distribution(),
               protocol_of(params)),
      source_(codes::SourceData<Field>::random(predist_.spec().total(),
                                               params.protocol.block_size, rng)),
      stats_(predist_.disseminate(source_, rng)) {}

codes::PriorityDecoder<Field> Deployment::decoder() const {
  return codes::PriorityDecoder<Field>(predist_.params().scheme, predist_.spec(),
                                       predist_.params().block_size);
}

util::FingerprintManifest Deployment::manifest(Rng& rng) const {
  const std::size_t block_size = source_.block_size();
  std::vector<std::uint8_t> flat;
  flat.reserve(source_.blocks() * block_size);
  for (std::size_t j = 0; j < source_.blocks(); ++j) {
    const auto row = source_.block(j);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return util::build_manifest(rng(), flat, block_size);
}

SweepStats run_sweep(const DeploymentParams& params, std::size_t points,
                     std::string_view category,
                     const std::function<SweepTable(Deployment&, Rng&)>& body) {
  obs::Counter* trials_run =
      category.empty() ? nullptr : &obs::counter(std::string(category) + ".trials");
  runtime::TrialRunner runner(params.experiment.threads);
  const auto tables = runner.run(
      params.experiment.trials, params.experiment.root_seed,
      [&](std::size_t t, Rng& rng) {
        std::optional<obs::ScopedSpan> trial_span;
        if (trials_run != nullptr) {
          trials_run->add();
          trial_span.emplace(
              "trial", category,
              std::initializer_list<obs::TraceArg>{
                  {"trial", static_cast<double>(t)},
                  {"scheme",
                   static_cast<double>(static_cast<int>(params.experiment.scheme))}});
        }
        Deployment deployment(params, rng);
        return body(deployment, rng);
      });

  // Ordered merge: accumulate in trial order so the floating-point sums
  // are identical regardless of how many threads ran the trials.
  SweepStats stats(points);
  for (const SweepTable& table : tables) {
    PRLC_ASSERT(table.size() == points, "sweep body must return one row per point");
    for (std::size_t point = 0; point < points; ++point) {
      if (stats[point].empty()) stats[point].resize(table[point].size());
      PRLC_ASSERT(table[point].size() == stats[point].size(),
                  "sweep rows must have one width");
      for (std::size_t col = 0; col < table[point].size(); ++col) {
        stats[point][col].add(table[point][col]);
      }
    }
  }
  return stats;
}

}  // namespace prlc::proto
