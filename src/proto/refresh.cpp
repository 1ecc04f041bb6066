#include "proto/refresh.h"

#include "codes/decoder.h"
#include "net/churn.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/collector.h"
#include "proto/deployment.h"
#include "util/check.h"

namespace prlc::proto {

RefreshResult refresh(Predistribution& dist, net::NodeId maintainer, Rng& rng) {
  net::Overlay& overlay = dist.overlay();
  PRLC_REQUIRE(maintainer < overlay.nodes() && overlay.alive(maintainer),
               "maintainer must be an alive node");

  RefreshResult result;
  obs::ScopedSpan span("refresh", "refresh");

  // 1. Decode everything the surviving blocks determine.
  codes::PriorityDecoder<Field> decoder(dist.params().scheme, dist.spec(),
                                        dist.params().block_size);
  collect(dist, decoder, {}, rng);
  result.decoded_levels = decoder.decoded_levels();
  result.decoded_blocks = decoder.decoded_prefix_blocks();

  // 2. Rebuild repairable lost locations from the recovered payloads.
  const auto& spec = dist.spec();
  for (net::LocationId loc : dist.lost_locations()) {
    ++result.lost_locations;
    const std::size_t level = dist.level_of_location(loc);

    const auto [begin, end] = spec.support(dist.params().scheme, level);
    // Repairable only when every supported source block is decoded. For
    // SLC that means the whole level; for PLC/RLC the prefix covers it.
    bool repairable = true;
    for (std::size_t j = begin; j < end && repairable; ++j) {
      repairable = decoder.is_block_decoded(j);
    }
    if (!repairable) {
      ++result.unrecoverable;
      continue;
    }

    // Fresh random combination over the support — identically distributed
    // to an original dense coded block.
    codes::CodedBlock<Field> block;
    block.level = level;
    block.coeffs.assign(spec.total(), 0);
    block.payload.assign(dist.params().block_size, 0);
    bool any = false;
    for (std::size_t j = begin; j < end; ++j) {
      const auto beta = static_cast<Field::Symbol>(rng.uniform(Field::order()));
      if (beta == 0) continue;
      any = true;
      block.coeffs[j] = beta;
      Field::axpy(std::span<Field::Symbol>(block.payload), beta, decoder.recovered(j));
    }
    if (!any) {
      // All-zero draw (possible only for width-1 supports): force one.
      const auto beta = static_cast<Field::Symbol>(1 + rng.uniform(Field::order() - 1));
      block.coeffs[begin] = beta;
      Field::axpy(std::span<Field::Symbol>(block.payload), beta, decoder.recovered(begin));
    }

    // Ship it from the maintainer to the location's current owner.
    const auto route = overlay.route(maintainer, dist.overlay_locations()[loc]);
    ++result.messages;
    if (!route.delivered) continue;  // partitioned; stays lost this round
    result.total_hops += route.hops;
    dist.store_rebuilt(loc, std::move(block));
    ++result.rebuilt_locations;
  }

  static obs::Counter& rounds = obs::counter("refresh.rounds");
  static obs::Counter& rebuilt = obs::counter("refresh.rebuilt_locations");
  static obs::Counter& unrecoverable = obs::counter("refresh.unrecoverable");
  static obs::Counter& repair_messages = obs::counter("refresh.repair_messages");
  static obs::Counter& repair_hops = obs::counter("refresh.repair_hops");
  rounds.add();
  rebuilt.add(result.rebuilt_locations);
  unrecoverable.add(result.unrecoverable);
  repair_messages.add(result.messages);
  repair_hops.add(result.total_hops);
  obs::emit(obs::EventType::kRefreshRound, static_cast<double>(result.rebuilt_locations),
            static_cast<double>(result.unrecoverable),
            static_cast<double>(result.lost_locations));
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().instant(
        "refresh_done", "refresh",
        {{"lost", static_cast<double>(result.lost_locations)},
         {"rebuilt", static_cast<double>(result.rebuilt_locations)},
         {"unrecoverable", static_cast<double>(result.unrecoverable)}});
  }
  return result;
}

namespace {

/// Per-wave statistics, in SweepTable column order.
enum Column { kLevels, kBlocks, kSurviving, kRebuilt };

}  // namespace

std::vector<RefreshWavePoint> run_refresh_experiment(const RefreshExperimentParams& params) {
  params.experiment.validate();
  PRLC_REQUIRE(params.waves > 0, "need at least one churn wave");
  PRLC_REQUIRE(params.kill_fraction > 0 && params.kill_fraction < 1,
               "kill fraction must be in (0, 1)");

  const DeploymentParams deployment{OverlayKind::kChord, params.nodes, params.locations,
                                    /*two_choices=*/false, params.experiment,
                                    params.protocol};

  // Per-wave health series; logical time is the churn-wave index.
  struct SeriesIds {
    obs::SeriesId decoded_levels;
    obs::SeriesId surviving;
    obs::SeriesId rebuilt;
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::telemetry_enabled();
  if (want_timeseries) {
    ts.decoded_levels = obs::timeseries("refresh.decoded_levels");
    ts.surviving = obs::timeseries("refresh.surviving_locations");
    ts.rebuilt = obs::timeseries("refresh.rebuilt_locations");
  }

  const SweepStats stats = run_sweep(
      deployment, params.waves, {}, [&](Deployment& d, Rng& rng) {
        net::Overlay& overlay = d.overlay();
        SweepTable rows;
        rows.reserve(params.waves);
        for (std::size_t wave = 0; wave < params.waves; ++wave) {
          obs::set_logical_time(wave);
          net::kill_uniform_fraction(overlay, params.kill_fraction, rng);
          std::size_t rebuilt = 0;
          if (params.use_refresh && overlay.alive_count() > 0) {
            rebuilt =
                refresh(d.predist(), overlay.random_alive_node(rng), rng).rebuilt_locations;
          }
          auto dec = d.decoder();
          const auto result = collect(d.predist(), dec, {}, rng).result;
          if (want_timeseries) {
            obs::sample(ts.decoded_levels, static_cast<double>(result.decoded_levels));
            obs::sample(ts.surviving, static_cast<double>(result.surviving_locations));
            obs::sample(ts.rebuilt, static_cast<double>(rebuilt));
          }
          rows.push_back({static_cast<double>(result.decoded_levels),
                          static_cast<double>(result.decoded_blocks),
                          static_cast<double>(result.surviving_locations),
                          static_cast<double>(rebuilt)});
        }
        return rows;
      });

  std::vector<RefreshWavePoint> out(params.waves);
  for (std::size_t wave = 0; wave < params.waves; ++wave) {
    const auto& s = stats[wave];
    out[wave].wave = wave + 1;
    out[wave].mean_decoded_levels = s[kLevels].mean();
    out[wave].ci95_decoded_levels = s[kLevels].ci95_halfwidth();
    out[wave].mean_decoded_blocks = s[kBlocks].mean();
    out[wave].mean_surviving_locations = s[kSurviving].mean();
    out[wave].mean_rebuilt_locations = s[kRebuilt].mean();
  }
  return out;
}

}  // namespace prlc::proto
