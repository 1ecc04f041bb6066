#include "proto/integrity_experiment.h"

#include <algorithm>

#include "obs/events.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

/// Per-point statistics, in SweepTable column order.
enum Column {
  kLevels, kRetrieved, kLost, kViolations, kQuarantined,
  kWireErrors, kRetries, kDetection, kWrong, kDegraded
};

}  // namespace

std::vector<IntegrityPoint> run_integrity_experiment(const IntegritySweepParams& params) {
  params.experiment.validate();
  params.faults.validate();
  params.retry.validate();
  PRLC_REQUIRE(!params.mixes.empty(), "need at least one silent-corruption mix");
  for (const IntegrityMix& mix : params.mixes) {
    PRLC_REQUIRE(mix.rot_rate >= 0.0 && mix.rot_rate <= 1.0,
                 "rot rate must be a probability in [0,1]");
    PRLC_REQUIRE(mix.byzantine_fraction >= 0.0 && mix.byzantine_fraction <= 1.0,
                 "byzantine fraction must be in [0,1]");
  }

  const std::size_t points = params.mixes.size();

  // Detection pressure and decode outcome per mix step; logical time is
  // the step index of the sweep.
  struct SeriesIds {
    obs::SeriesId decoded_levels;
    obs::SeriesId violations;
    obs::SeriesId quarantined;
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::telemetry_enabled();
  if (want_timeseries) {
    ts.decoded_levels = obs::timeseries("integrity.decoded_levels");
    ts.violations = obs::timeseries("integrity.violations");
    ts.quarantined = obs::timeseries("integrity.quarantined_nodes");
  }

  const SweepStats stats = run_sweep(
      params, points, "integrity_experiment", [&](Deployment& d, Rng& rng) {
        // The manifest travels beside the data, built once per deployment
        // from a trial-seeded fingerprint point.
        const util::FingerprintManifest manifest = d.manifest(rng);
        const auto& source = d.source();
        SweepTable rows;
        rows.reserve(points);
        for (std::size_t point = 0; point < points; ++point) {
          const IntegrityMix& mix = params.mixes[point];
          obs::set_logical_time(point);
          net::FaultSpec faults = params.faults;
          faults.bitrot_rate = mix.rot_rate;
          faults.byzantine_fraction = mix.byzantine_fraction;
          net::FaultPlan plan(faults, d.overlay().nodes(), rng);
          FaultyChannel channel(d.predist(), std::move(plan));
          auto decoder = d.decoder();
          CollectorOptions options;
          options.retry = params.retry;
          options.manifest = &manifest;
          const CollectionOutcome c = collect(channel, decoder, options, rng);

          // Silent frames the channel actually served vs violations the
          // fingerprint caught: every served forgery parses cleanly, so
          // detection below 1 means a forged frame reached the decoder.
          const std::size_t injected_silent =
              channel.injected().bitrot_frames + channel.injected().byzantine_frames;
          const double detection =
              injected_silent == 0
                  ? 1.0
                  : static_cast<double>(c.faults.integrity_violations) /
                        static_cast<double>(injected_silent);

          // Zero-wrong-bytes criterion: everything decoded must be
          // byte-identical to the source.
          std::size_t decoded = 0, wrong = 0;
          for (std::size_t j = 0; j < source.blocks(); ++j) {
            if (!decoder.is_block_decoded(j)) continue;
            ++decoded;
            const auto got = decoder.recovered(j);
            const auto want = source.block(j);
            if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) ++wrong;
          }

          const double wrong_fraction =
              decoded == 0 ? 0.0 : static_cast<double>(wrong) / static_cast<double>(decoded);
          rows.push_back({static_cast<double>(c.result.decoded_levels),
                          static_cast<double>(c.result.blocks_retrieved),
                          static_cast<double>(c.blocks_lost),
                          static_cast<double>(c.faults.integrity_violations),
                          static_cast<double>(c.quarantined_nodes),
                          static_cast<double>(c.faults.wire_errors),
                          static_cast<double>(c.retries),
                          detection,
                          wrong_fraction,
                          c.degraded ? 1.0 : 0.0});
          if (want_timeseries) {
            obs::sample(ts.decoded_levels, static_cast<double>(c.result.decoded_levels));
            obs::sample(ts.violations, static_cast<double>(c.faults.integrity_violations));
            obs::sample(ts.quarantined, static_cast<double>(c.quarantined_nodes));
          }
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "integrity_point", "integrity_experiment",
                {{"rot_rate", mix.rot_rate},
                 {"byzantine_fraction", mix.byzantine_fraction},
                 {"violations", static_cast<double>(c.faults.integrity_violations)}});
          }
        }
        return rows;
      });

  std::vector<IntegrityPoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    const auto& s = stats[i];
    out[i].rot_rate = params.mixes[i].rot_rate;
    out[i].byzantine_fraction = params.mixes[i].byzantine_fraction;
    out[i].mean_decoded_levels = s[kLevels].mean();
    out[i].ci95_decoded_levels = s[kLevels].ci95_halfwidth();
    out[i].mean_blocks_retrieved = s[kRetrieved].mean();
    out[i].mean_blocks_lost = s[kLost].mean();
    out[i].mean_integrity_violations = s[kViolations].mean();
    out[i].mean_quarantined_nodes = s[kQuarantined].mean();
    out[i].mean_wire_errors = s[kWireErrors].mean();
    out[i].mean_retries = s[kRetries].mean();
    out[i].detection_ratio = s[kDetection].mean();
    out[i].wrong_decode_fraction = s[kWrong].mean();
    out[i].degraded_fraction = s[kDegraded].mean();
  }
  return out;
}

}  // namespace prlc::proto
