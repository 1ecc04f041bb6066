#include "proto/fault_experiment.h"

#include <iterator>
#include <optional>
#include <utility>

#include "net/churn.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

/// FaultPoint's statistics in SweepTable column order. A trial's row holds
/// its own value of each; the merged point holds their mean.
constexpr double FaultPoint::*kColumns[] = {
    &FaultPoint::mean_decoded_levels,       &FaultPoint::mean_decoded_blocks,
    &FaultPoint::mean_blocks_retrieved,     &FaultPoint::mean_blocks_lost,
    &FaultPoint::mean_retries,              &FaultPoint::mean_hedges,
    &FaultPoint::mean_wire_errors,          &FaultPoint::mean_timeouts,
    &FaultPoint::mean_transient_errors,     &FaultPoint::mean_crashes,
    &FaultPoint::mean_blacklisted,          &FaultPoint::mean_integrity_violations,
    &FaultPoint::mean_quarantined_nodes,    &FaultPoint::detection_ratio,
    &FaultPoint::wrong_decode_fraction,     &FaultPoint::degraded_fraction};

}  // namespace

std::vector<FaultPoint> run_fault_experiment(const FaultSweepParams& params) {
  params.experiment.validate();
  PRLC_REQUIRE(params.churn_fraction >= 0.0 && params.churn_fraction <= 1.0,
               "churn fraction must be in [0,1]");
  PRLC_REQUIRE(!params.faults.empty(), "need at least one fault profile");
  // Verify against a fingerprint manifest exactly when some point injects
  // silent faults; a loud-only sweep keeps the draw stream it had before
  // manifests existed.
  bool verify = false;
  for (const net::FaultSpec& spec : params.faults) {
    spec.validate();
    verify = verify || spec.bitrot_rate > 0 || spec.byzantine_fraction > 0;
  }
  const std::size_t points = params.faults.size();

  // Retry/hedge pressure, detections and decode outcome per sweep step;
  // logical time is the step index of the sweep. The integrity series
  // (the last two) exist only when the sweep verifies.
  constexpr std::pair<const char*, double FaultPoint::*> kSeries[] = {
      {"fault.decoded_levels", &FaultPoint::mean_decoded_levels},
      {"fault.blocks_lost", &FaultPoint::mean_blocks_lost},
      {"fault.retries", &FaultPoint::mean_retries},
      {"fault.hedges", &FaultPoint::mean_hedges},
      {"fault.integrity_violations", &FaultPoint::mean_integrity_violations},
      {"fault.quarantined_nodes", &FaultPoint::mean_quarantined_nodes}};
  std::vector<obs::SeriesId> series;
  if (obs::telemetry_enabled()) {
    for (std::size_t i = 0; i < std::size(kSeries) - (verify ? 0 : 2); ++i) {
      series.push_back(obs::timeseries(kSeries[i].first));
    }
  }

  const SweepStats stats = run_sweep(
      params, points, "fault_experiment", [&](Deployment& d, Rng& rng) {
        if (params.churn_fraction > 0) {
          net::kill_uniform_fraction(d.overlay(), params.churn_fraction, rng);
        }
        // The manifest travels beside the data, built once per deployment
        // from a trial-seeded fingerprint point.
        std::optional<util::FingerprintManifest> manifest;
        if (verify) manifest = d.manifest(rng);
        SweepTable rows;
        rows.reserve(points);
        for (std::size_t point = 0; point < points; ++point) {
          obs::set_logical_time(point);
          net::FaultPlan plan(params.faults[point], d.overlay().nodes(), rng);
          FaultyChannel channel(d.predist(), std::move(plan));
          auto decoder = d.decoder();
          CollectorOptions options;
          if (manifest.has_value()) options.manifest = &*manifest;
          const CollectionOutcome c = collect(channel, decoder, options, rng);

          // Silent frames the channel actually served vs violations the
          // fingerprint caught: every served forgery parses cleanly, so
          // detection below 1 means a forged frame reached the decoder.
          const std::size_t injected_silent =
              channel.injected().bitrot_frames + channel.injected().byzantine_frames;
          FaultPoint trial;
          trial.mean_decoded_levels = static_cast<double>(c.result.decoded_levels);
          trial.mean_decoded_blocks = static_cast<double>(c.result.decoded_blocks);
          trial.mean_blocks_retrieved = static_cast<double>(c.result.blocks_retrieved);
          trial.mean_blocks_lost = static_cast<double>(c.blocks_lost);
          trial.mean_retries = static_cast<double>(c.retries);
          trial.mean_hedges = static_cast<double>(c.hedges);
          trial.mean_wire_errors = static_cast<double>(c.faults.wire_errors);
          trial.mean_timeouts = static_cast<double>(c.faults.timeouts);
          trial.mean_transient_errors = static_cast<double>(c.faults.transient_errors);
          trial.mean_crashes = static_cast<double>(c.faults.crashes);
          trial.mean_blacklisted = static_cast<double>(c.blacklisted_nodes);
          trial.mean_integrity_violations = static_cast<double>(c.faults.integrity_violations);
          trial.mean_quarantined_nodes = static_cast<double>(c.quarantined_nodes);
          if (injected_silent > 0) {
            trial.detection_ratio = trial.mean_integrity_violations /
                                    static_cast<double>(injected_silent);
          }
          trial.wrong_decode_fraction = wrong_decode_fraction(decoder, d.source());
          trial.degraded_fraction = c.degraded ? 1.0 : 0.0;
          std::vector<double>& row = rows.emplace_back();
          for (const auto column : kColumns) row.push_back(trial.*column);
          for (std::size_t i = 0; i < series.size(); ++i) {
            obs::sample(series[i], trial.*kSeries[i].second);
          }
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "fault_point", "fault_experiment",
                {{"point", static_cast<double>(point)},
                 {"decoded_levels", static_cast<double>(c.result.decoded_levels)},
                 {"blocks_lost", static_cast<double>(c.blocks_lost)},
                 {"violations", static_cast<double>(c.faults.integrity_violations)}});
          }
        }
        return rows;
      });

  std::vector<FaultPoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    for (std::size_t col = 0; col < std::size(kColumns); ++col) {
      out[i].*kColumns[col] = stats[i][col].mean();
    }
    out[i].ci95_decoded_levels = stats[i][0].ci95_halfwidth();  // column 0: levels
  }
  return out;
}

}  // namespace prlc::proto
