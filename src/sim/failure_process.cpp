#include "sim/failure_process.h"

#include <cmath>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::sim {

WaveFailureProcess::WaveFailureProcess(std::vector<Wave> waves) : waves_(std::move(waves)) {
  for (std::size_t i = 0; i < waves_.size(); ++i) {
    PRLC_REQUIRE(waves_[i].fraction >= 0.0 && waves_[i].fraction <= 1.0,
                 "wave fraction must be in [0,1]");
    PRLC_REQUIRE(i == 0 || waves_[i - 1].time <= waves_[i].time,
                 "waves must be sorted by time");
  }
}

std::optional<FailureEvent> WaveFailureProcess::next(const MembershipView& view, Rng& rng,
                                                     double until) {
  while (true) {
    if (cursor_ < pending_.size()) {
      return FailureEvent{pending_time_, pending_[cursor_++]};
    }
    if (wave_ >= waves_.size()) return std::nullopt;
    // The horizon fences randomness: a wave materializes (draws its
    // victims) only once the caller's clock reaches it.
    if (waves_[wave_].time > until) return std::nullopt;
    const Wave wave = waves_[wave_++];
    // Draw discipline matches the historical kill_uniform_fraction exactly:
    // enumerate the alive ids in id order, then one sample_without_replacement
    // of floor(fraction * alive) indices. A zero-fraction wave makes the
    // same (zero-draw) sample call, so streams stay aligned either way.
    std::vector<net::NodeId> alive_nodes;
    alive_nodes.reserve(view.alive_count());
    for (net::NodeId v = 0; v < view.nodes(); ++v) {
      if (view.alive(v)) alive_nodes.push_back(v);
    }
    const auto kills = static_cast<std::size_t>(
        wave.fraction * static_cast<double>(alive_nodes.size()));
    pending_.clear();
    pending_.reserve(kills);
    for (std::size_t idx : rng.sample_without_replacement(alive_nodes.size(), kills)) {
      pending_.push_back(alive_nodes[idx]);
    }
    cursor_ = 0;
    pending_time_ = wave.time;
  }
}

PoissonFailureProcess::PoissonFailureProcess(double rate) : rate_(rate) {
  PRLC_REQUIRE(rate > 0.0, "poisson churn rate must be positive");
}

std::optional<FailureEvent> PoissonFailureProcess::next(const MembershipView& view, Rng& rng,
                                                        double until) {
  if (!pending_time_.has_value()) {
    const std::size_t alive = view.alive_count();
    if (alive == 0) return std::nullopt;
    // Superposition of `alive` iid Exp(rate) clocks: the next failure is
    // Exp(alive * rate) away and hits a uniformly random alive node.
    const double u = rng.uniform_double();  // in [0, 1) => 1 - u > 0
    pending_time_ = now_ - std::log(1.0 - u) / (rate_ * static_cast<double>(alive));
  }
  if (*pending_time_ > until) return std::nullopt;  // keep the drawn gap cached
  now_ = *pending_time_;
  pending_time_.reset();
  // Rejection-sample the victim over the id space. Expected iterations
  // are nodes/alive — O(1) while the population stays healthy, which the
  // simulator's replacement model guarantees.
  while (true) {
    const auto v = static_cast<net::NodeId>(rng.uniform(view.nodes()));
    if (view.alive(v)) return FailureEvent{now_, v};
  }
}

void FailureModelConfig::validate() const {
  switch (kind) {
    case Kind::kWave:
      for (const double f : wave_fractions) {
        PRLC_REQUIRE(f >= 0.0 && f <= 1.0, "wave fraction must be in [0,1]");
      }
      return;
    case Kind::kPoisson:
      PRLC_REQUIRE(churn_rate > 0.0, "poisson churn rate must be positive");
      return;
  }
  PRLC_ASSERT(false, "unknown failure model kind");
}

std::unique_ptr<FailureProcess> make_failure_process(const FailureModelConfig& config) {
  config.validate();
  switch (config.kind) {
    case FailureModelConfig::Kind::kWave: {
      std::vector<WaveFailureProcess::Wave> waves;
      waves.reserve(config.wave_fractions.size());
      for (std::size_t i = 0; i < config.wave_fractions.size(); ++i) {
        waves.push_back({static_cast<double>(i), config.wave_fractions[i]});
      }
      return std::make_unique<WaveFailureProcess>(std::move(waves));
    }
    case FailureModelConfig::Kind::kPoisson:
      return std::make_unique<PoissonFailureProcess>(config.churn_rate);
  }
  PRLC_ASSERT(false, "unknown failure model kind");
}

void record_churn(const char* model, std::span<const net::NodeId> killed,
                  std::size_t alive_after) {
  static obs::Counter& total = obs::counter("churn.nodes_killed");
  static obs::Counter& waves = obs::counter("churn.waves");
  total.add(killed.size());
  waves.add();
  obs::gauge("churn.last_alive").set(static_cast<std::int64_t>(alive_after));
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().instant(model, "churn",
                                         {{"killed", static_cast<double>(killed.size())},
                                          {"alive_after", static_cast<double>(alive_after)}});
    obs::TraceRecorder::global().count("alive_nodes", "churn",
                                       {{"alive", static_cast<double>(alive_after)}});
  }
  if (obs::telemetry_enabled()) {
    for (const net::NodeId v : killed) {
      obs::emit(obs::EventType::kNodeFailed, static_cast<double>(v));
    }
  }
}

std::vector<net::NodeId> FailureDriver::advance_to(double until, Rng& rng) {
  std::vector<net::NodeId> killed;
  while (auto event = process_.next(view_, rng, until)) {
    overlay_.fail_node(event->node);
    killed.push_back(event->node);
  }
  record_churn(process_.name(), killed, overlay_.alive_count());
  return killed;
}

}  // namespace prlc::sim
