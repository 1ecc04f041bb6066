#include "proto/persistence_experiment.h"

#include "net/churn.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/collector.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

/// Per-point statistics, in SweepTable column order.
enum Column { kSurvivors, kLevels, kBlocks, kHops };

}  // namespace

std::vector<PersistencePoint> run_persistence_experiment(const PersistenceParams& params) {
  params.experiment.validate();
  PRLC_REQUIRE(!params.failure_fractions.empty(), "need at least one failure fraction");
  for (std::size_t i = 0; i < params.failure_fractions.size(); ++i) {
    const double f = params.failure_fractions[i];
    PRLC_REQUIRE(f >= 0.0 && f <= 1.0, "failure fractions must be in [0,1]");
    PRLC_REQUIRE(i == 0 || params.failure_fractions[i - 1] <= f,
                 "failure fractions must be ascending");
  }

  const codes::PrioritySpec spec = params.experiment.spec();
  const std::size_t points = params.failure_fractions.size();

  // Translate the cumulative failure-fraction sweep into one wave per
  // point: to reach fraction f of the *original* nodes at point t, the
  // wave kills the increment relative to what earlier waves killed, as a
  // fraction of the nodes still alive. The schedule holds no randomness,
  // so every trial shares it. A point whose fraction does not rise gets 0
  // and fires no wave at all (not a zero-size one): it draws nothing and
  // records no churn.
  std::vector<double> wave(points, 0.0);
  double killed_so_far = 0.0;
  for (std::size_t point = 0; point < points; ++point) {
    const double f = params.failure_fractions[point];
    const double remaining = 1.0 - killed_so_far;
    if (f > killed_so_far && remaining > 0) {
      wave[point] = (f - killed_so_far) / remaining;
      killed_so_far = f;
    }
  }

  static obs::LatencyHistogram& survivors_hist = obs::histogram("persistence.survivors");

  // Time-series handles, resolved once outside the trial loop (resolution
  // takes a mutex; sampling through the id is lock-free). Logical time is
  // the churn-point index of the failure-fraction sweep.
  struct SeriesIds {
    obs::SeriesId survivors;
    obs::SeriesId decoded_levels;
    std::vector<obs::SeriesId> level_survivors;  ///< per priority level
    std::vector<obs::SeriesId> margin;           ///< decodability margin per level
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::telemetry_enabled();
  if (want_timeseries) {
    ts.survivors = obs::timeseries("persistence.survivors");
    ts.decoded_levels = obs::timeseries("persistence.decoded_levels");
    for (std::size_t l = 0; l < spec.levels(); ++l) {
      const std::string suffix = ".l" + std::to_string(l + 1);
      ts.level_survivors.push_back(obs::timeseries("persistence.level_survivors" + suffix));
      ts.margin.push_back(obs::timeseries("persistence.margin" + suffix));
    }
  }

  const SweepStats stats = run_sweep(
      params, points, "persistence", [&](Deployment& d, Rng& rng) {
        const DisseminationStats& dissem = d.stats();
        const double hops_per_msg =
            dissem.messages > dissem.failed_routes
                ? static_cast<double>(dissem.total_hops) /
                      static_cast<double>(dissem.messages - dissem.failed_routes)
                : 0.0;
        Predistribution& predist = d.predist();
        SweepTable rows;
        rows.reserve(points);
        for (std::size_t point = 0; point < points; ++point) {
          // Logical time for telemetry = churn-point index of the sweep.
          obs::set_logical_time(point);
          const double f = params.failure_fractions[point];
          if (wave[point] > 0) net::kill_uniform_fraction(d.overlay(), wave[point], rng);
          auto decoder = d.decoder();
          const auto result = collect(predist, decoder, {}, rng).result;
          survivors_hist.record(result.surviving_locations);
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "churn_point", "persistence",
                {{"failure_fraction", f},
                 {"survivors", static_cast<double>(result.surviving_locations)},
                 {"decoded_levels", static_cast<double>(result.decoded_levels)}});
          }
          if (want_timeseries) {
            obs::sample(ts.survivors, static_cast<double>(result.surviving_locations));
            obs::sample(ts.decoded_levels, static_cast<double>(result.decoded_levels));
            // Per-level surviving blocks and the decodability margin: the
            // priority-l prefix (level_end(l) source blocks) needs at least
            // that many surviving blocks of levels <= l to be decodable, so
            // margin = cumulative survivors - prefix size. Negative margin
            // at point t is the telemetry signature of losing level l.
            std::vector<std::size_t> per_level(spec.levels(), 0);
            for (const net::LocationId loc : predist.surviving_locations()) {
              ++per_level[predist.level_of_location(loc)];
            }
            std::size_t cumulative = 0;
            for (std::size_t l = 0; l < spec.levels(); ++l) {
              cumulative += per_level[l];
              obs::sample(ts.level_survivors[l], static_cast<double>(per_level[l]));
              obs::sample(ts.margin[l], static_cast<double>(cumulative) -
                                            static_cast<double>(spec.level_end(l)));
            }
          }
          rows.push_back({static_cast<double>(result.surviving_locations),
                          static_cast<double>(result.decoded_levels),
                          static_cast<double>(result.decoded_blocks), hops_per_msg});
        }
        return rows;
      });

  std::vector<PersistencePoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    const auto& s = stats[i];
    out[i].failure_fraction = params.failure_fractions[i];
    out[i].mean_surviving_blocks = s[kSurvivors].mean();
    out[i].mean_decoded_levels = s[kLevels].mean();
    out[i].ci95_decoded_levels = s[kLevels].ci95_halfwidth();
    out[i].mean_decoded_blocks = s[kBlocks].mean();
    out[i].mean_dissemination_hops = s[kHops].mean();
  }
  return out;
}

}  // namespace prlc::proto
