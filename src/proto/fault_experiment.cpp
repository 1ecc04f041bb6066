#include "proto/fault_experiment.h"

#include "net/churn.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

/// Per-point statistics, in SweepTable column order.
enum Column {
  kLevels, kBlocks, kRetrieved, kLost, kRetries, kHedges,
  kWireErrors, kTimeouts, kTransients, kCrashes, kBlacklisted, kDegraded
};

}  // namespace

std::vector<FaultPoint> run_fault_experiment(const FaultSweepParams& params) {
  params.experiment.validate();
  params.faults.validate();
  params.retry.validate();
  PRLC_REQUIRE(params.churn_fraction >= 0.0 && params.churn_fraction <= 1.0,
               "churn fraction must be in [0,1]");
  PRLC_REQUIRE(!params.fault_scales.empty(), "need at least one fault scale");
  for (std::size_t i = 0; i < params.fault_scales.size(); ++i) {
    PRLC_REQUIRE(params.fault_scales[i] >= 0.0, "fault scales must be nonnegative");
    PRLC_REQUIRE(i == 0 || params.fault_scales[i - 1] <= params.fault_scales[i],
                 "fault scales must be ascending");
  }

  const std::size_t points = params.fault_scales.size();

  // Retry/hedge pressure and decode outcome per fault-scale step; logical
  // time is the step index of the sweep.
  struct SeriesIds {
    obs::SeriesId decoded_levels;
    obs::SeriesId blocks_lost;
    obs::SeriesId retries;
    obs::SeriesId hedges;
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::telemetry_enabled();
  if (want_timeseries) {
    ts.decoded_levels = obs::timeseries("fault.decoded_levels");
    ts.blocks_lost = obs::timeseries("fault.blocks_lost");
    ts.retries = obs::timeseries("fault.retries");
    ts.hedges = obs::timeseries("fault.hedges");
  }

  const SweepStats stats = run_sweep(
      params, points, "fault_experiment", [&](Deployment& d, Rng& rng) {
        if (params.churn_fraction > 0) {
          net::kill_uniform_fraction(d.overlay(), params.churn_fraction, rng);
        }
        SweepTable rows;
        rows.reserve(points);
        for (std::size_t point = 0; point < points; ++point) {
          const double scale = params.fault_scales[point];
          obs::set_logical_time(point);
          net::FaultPlan plan(params.faults.scaled(scale), d.overlay().nodes(), rng);
          FaultyChannel channel(d.predist(), std::move(plan));
          auto decoder = d.decoder();
          CollectorOptions options;
          options.retry = params.retry;
          const CollectionOutcome c = collect(channel, decoder, options, rng);
          rows.push_back({static_cast<double>(c.result.decoded_levels),
                          static_cast<double>(c.result.decoded_blocks),
                          static_cast<double>(c.result.blocks_retrieved),
                          static_cast<double>(c.blocks_lost),
                          static_cast<double>(c.retries),
                          static_cast<double>(c.hedges),
                          static_cast<double>(c.faults.wire_errors),
                          static_cast<double>(c.faults.timeouts),
                          static_cast<double>(c.faults.transient_errors),
                          static_cast<double>(c.faults.crashes),
                          static_cast<double>(c.blacklisted_nodes),
                          c.degraded ? 1.0 : 0.0});
          if (want_timeseries) {
            obs::sample(ts.decoded_levels, static_cast<double>(c.result.decoded_levels));
            obs::sample(ts.blocks_lost, static_cast<double>(c.blocks_lost));
            obs::sample(ts.retries, static_cast<double>(c.retries));
            obs::sample(ts.hedges, static_cast<double>(c.hedges));
          }
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "fault_point", "fault_experiment",
                {{"fault_scale", scale},
                 {"decoded_levels", static_cast<double>(c.result.decoded_levels)},
                 {"blocks_lost", static_cast<double>(c.blocks_lost)}});
          }
        }
        return rows;
      });

  std::vector<FaultPoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    const auto& s = stats[i];
    out[i].fault_scale = params.fault_scales[i];
    out[i].mean_decoded_levels = s[kLevels].mean();
    out[i].ci95_decoded_levels = s[kLevels].ci95_halfwidth();
    out[i].mean_decoded_blocks = s[kBlocks].mean();
    out[i].mean_blocks_retrieved = s[kRetrieved].mean();
    out[i].mean_blocks_lost = s[kLost].mean();
    out[i].mean_retries = s[kRetries].mean();
    out[i].mean_hedges = s[kHedges].mean();
    out[i].mean_wire_errors = s[kWireErrors].mean();
    out[i].mean_timeouts = s[kTimeouts].mean();
    out[i].mean_transient_errors = s[kTransients].mean();
    out[i].mean_crashes = s[kCrashes].mean();
    out[i].mean_blacklisted = s[kBlacklisted].mean();
    out[i].degraded_fraction = s[kDegraded].mean();
  }
  return out;
}

}  // namespace prlc::proto
