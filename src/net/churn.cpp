#include "net/churn.h"

#include <cmath>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/failure_process.h"
#include "util/check.h"

namespace prlc::net {

namespace {

/// Count the wave and leave a timeline marker; per-node instants would
/// swamp a trace at simulation scale, so one event summarizes the batch.
void note_failures(const char* model, std::size_t killed, std::size_t alive_after) {
  static obs::Counter& total = obs::counter("churn.nodes_killed");
  static obs::Counter& waves = obs::counter("churn.waves");
  total.add(killed);
  waves.add();
  obs::gauge("churn.last_alive").set(static_cast<std::int64_t>(alive_after));
  if (obs::trace_enabled()) {
    obs::TraceRecorder::global().instant(model, "churn",
                                         {{"killed", static_cast<double>(killed)},
                                          {"alive_after", static_cast<double>(alive_after)}});
    obs::TraceRecorder::global().count("alive_nodes", "churn",
                                       {{"alive", static_cast<double>(alive_after)}});
  }
}

/// Journal every death individually — unlike the trace (see note_failures
/// above), the event journal is bounded per trial and meant for per-node
/// failure-timeline reconstruction.
void journal_failures(const std::vector<NodeId>& killed) {
  if (!obs::telemetry_enabled()) return;
  for (const NodeId v : killed) {
    obs::emit(obs::EventType::kNodeFailed, static_cast<double>(v));
  }
}

}  // namespace

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
  note_failures("exponential_churn", killed.size(), overlay.alive_count());
  journal_failures(killed);
  return killed;
}

std::pair<std::size_t, std::size_t> apply_session_churn(Overlay& overlay, double leave_prob,
                                                        double rejoin_prob, Rng& rng) {
  PRLC_REQUIRE(leave_prob >= 0.0 && leave_prob <= 1.0, "leave probability must be in [0,1]");
  PRLC_REQUIRE(rejoin_prob >= 0.0 && rejoin_prob <= 1.0, "rejoin probability must be in [0,1]");
  std::size_t left = 0;
  std::size_t rejoined = 0;
  for (NodeId v = 0; v < overlay.nodes(); ++v) {
    if (overlay.alive(v)) {
      if (rng.bernoulli(leave_prob)) {
        overlay.fail_node(v);
        obs::emit(obs::EventType::kNodeFailed, static_cast<double>(v));
        ++left;
      }
    } else if (rng.bernoulli(rejoin_prob)) {
      overlay.revive_node(v);
      ++rejoined;
    }
  }
  static obs::Counter& rejoin_counter = obs::counter("churn.nodes_rejoined");
  rejoin_counter.add(rejoined);
  note_failures("session_churn", left, overlay.alive_count());
  if (rejoined > 0 && obs::trace_enabled()) {
    obs::TraceRecorder::global().instant("node_join_wave", "churn",
                                         {{"rejoined", static_cast<double>(rejoined)}});
  }
  return {left, rejoined};
}

}  // namespace prlc::net
