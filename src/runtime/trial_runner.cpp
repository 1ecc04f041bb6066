#include "runtime/trial_runner.h"

#include "obs/metrics.h"

namespace prlc::runtime {

std::uint64_t TrialRunner::trial_clock_ns() {
  return obs::enabled() ? obs::now_ns() : 0;
}

void TrialRunner::record_trial_start() {
  static obs::Counter& started = obs::counter("runtime.trials_started");
  started.add();
}

void TrialRunner::record_trial_done(std::uint64_t elapsed_ns) {
  static obs::Counter& done = obs::counter("runtime.trials_done");
  static obs::LatencyHistogram& latency = obs::histogram("runtime.trial_ns");
  done.add();
  if (obs::enabled()) latency.record(elapsed_ns);
}

}  // namespace prlc::runtime
