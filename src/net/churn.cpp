#include "net/churn.h"

#include <cmath>
#include <span>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::net {
namespace {

/// The churn telemetry of one batch of deaths: the churn.nodes_killed and
/// churn.waves counters, one trace instant named `model` plus one
/// alive_nodes trace counter per batch, and one kNodeFailed journal event
/// per death, in `killed` order.
void record_churn(const char* model, std::span<const NodeId> killed, std::size_t alive_after) {
  static obs::Counter& total = obs::counter("churn.nodes_killed");
  static obs::Counter& waves = obs::counter("churn.waves");
  total.add(killed.size());
  waves.add();
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().instant(model, "churn",
                                         {{"killed", static_cast<double>(killed.size())},
                                          {"alive_after", static_cast<double>(alive_after)}});
    obs::TraceRecorder::global().count("alive_nodes", "churn",
                                       {{"alive", static_cast<double>(alive_after)}});
  }
  if (obs::telemetry_enabled()) {
    for (const NodeId v : killed) {
      obs::emit(obs::EventType::kNodeFailed, static_cast<double>(v));
    }
  }
}

}  // namespace

std::vector<NodeId> kill_uniform_fraction(Overlay& overlay, double fraction, Rng& rng) {
  PRLC_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "failure fraction must be in [0,1]");
  // One sample_without_replacement of floor(fraction * alive) indices into
  // the alive ids in id order; the victims die in sample order.
  const std::vector<NodeId> alive = overlay.alive_nodes();
  const auto kills = static_cast<std::size_t>(fraction * static_cast<double>(alive.size()));
  std::vector<NodeId> killed;
  killed.reserve(kills);
  for (const std::size_t idx : rng.sample_without_replacement(alive.size(), kills)) {
    overlay.fail_node(alive[idx]);
    killed.push_back(alive[idx]);
  }
  record_churn("mass_failure", killed, overlay.alive_count());
  return killed;
}

double exponential_death_probability(double mean_lifetime, double elapsed) {
  PRLC_REQUIRE(mean_lifetime > 0.0, "mean lifetime must be positive");
  PRLC_REQUIRE(elapsed >= 0.0, "elapsed time must be nonnegative");
  return 1.0 - std::exp(-elapsed / mean_lifetime);
}

std::vector<NodeId> apply_exponential_churn(Overlay& overlay, double mean_lifetime,
                                            double elapsed, Rng& rng) {
  const double p = exponential_death_probability(mean_lifetime, elapsed);
  std::vector<NodeId> killed;
  for (NodeId v = 0; v < overlay.nodes(); ++v) {
    if (overlay.alive(v) && rng.bernoulli(p)) {
      overlay.fail_node(v);
      killed.push_back(v);
    }
  }
  record_churn("exponential_churn", killed, overlay.alive_count());
  return killed;
}

std::pair<std::size_t, std::size_t> apply_session_churn(Overlay& overlay, double leave_prob,
                                                        double rejoin_prob, Rng& rng) {
  PRLC_REQUIRE(leave_prob >= 0.0 && leave_prob <= 1.0, "leave probability must be in [0,1]");
  PRLC_REQUIRE(rejoin_prob >= 0.0 && rejoin_prob <= 1.0, "rejoin probability must be in [0,1]");
  std::vector<NodeId> left;
  std::size_t rejoined = 0;
  for (NodeId v = 0; v < overlay.nodes(); ++v) {
    if (overlay.alive(v)) {
      if (rng.bernoulli(leave_prob)) {
        overlay.fail_node(v);
        left.push_back(v);
      }
    } else if (rng.bernoulli(rejoin_prob)) {
      overlay.revive_node(v);
      ++rejoined;
    }
  }
  static obs::Counter& rejoin_counter = obs::counter("churn.nodes_rejoined");
  rejoin_counter.add(rejoined);
  record_churn("session_churn", left, overlay.alive_count());
  if (rejoined > 0 && obs::trace_enabled()) {
    obs::TraceRecorder::global().instant("node_join_wave", "churn",
                                         {{"rejoined", static_cast<double>(rejoined)}});
  }
  return {left.size(), rejoined};
}

}  // namespace prlc::net
