#include "net/churn.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/failure_process.h"
#include "util/check.h"

namespace prlc::net {

std::vector<NodeId> kill_uniform_fraction(Overlay& overlay, double fraction, Rng& rng) {
  PRLC_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "failure fraction must be in [0,1]");
  // One single-wave FailureProcess behind the unified event-stream API
  // (sim/failure_process.h). The process makes byte-identical Rng draws to
  // the historical in-place implementation, and FailureDriver emits the
  // same churn telemetry — committed experiment baselines are unchanged.
  sim::WaveFailureProcess process({{0.0, fraction}});
  sim::FailureDriver driver(process, overlay);
  return driver.advance_to(0.0, rng);
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
  sim::record_churn("exponential_churn", killed, overlay.alive_count());
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
  sim::record_churn("session_churn", left, overlay.alive_count());
  if (rejoined > 0 && obs::trace_enabled()) {
    obs::TraceRecorder::global().instant("node_join_wave", "churn",
                                         {{"rejoined", static_cast<double>(rejoined)}});
  }
  return {left.size(), rejoined};
}

}  // namespace prlc::net
