#include "runtime/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace prlc::runtime {

TrialRunner::TrialRunner(std::size_t threads) : threads_(threads) {
  PRLC_REQUIRE(threads <= kMaxThreads, "got " + std::to_string(threads) + " threads");
  if (threads_ == 0) {
    threads_ = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
  }
}

void TrialRunner::for_each_index(std::size_t n, void (*call)(const void*, std::size_t),
                                 const void* fn) const {
  const std::size_t threads = std::max<std::size_t>(1, std::min(threads_, n));  // the caller, at least
  obs::gauge("runtime.pool.threads").set(static_cast<std::int64_t>(threads));
  // Resolved before any thread starts: registry lookups take a mutex and may throw.
  std::vector<std::pair<obs::Counter*, obs::Counter*>> probes;  // (busy_ns, tasks) per thread
  for (std::size_t t = 0; t < threads; ++t) {
    const std::string prefix = "runtime.pool.t" + std::to_string(t);
    probes.emplace_back(&obs::counter(prefix + ".busy_ns"), &obs::counter(prefix + ".tasks"));
  }
  std::atomic<std::size_t> next{0};  // next index to claim
  std::mutex error_mu;               // guards the error slot
  std::size_t error_index = n;
  std::exception_ptr error;
  const auto drain = [&](std::size_t thread) {
    const auto [busy_ns, tasks] = probes[thread];
    std::size_t i = 0;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
      const bool timed = obs::enabled();
      const std::uint64_t t0 = timed ? obs::now_ns() : 0;
      try {
        call(fn, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      tasks->add();
      if (timed) busy_ns->add(obs::now_ns() - t0);
    }
  };
  // If a thread cannot start, the ones already started run every index and
  // are joined as the error unwinds; declared last, they go before the rest.
  std::vector<std::jthread> workers;
  workers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(drain, t);
  drain(0);
  workers.clear();  // joins them
  if (error) std::rethrow_exception(error);
}

std::uint64_t TrialRunner::record_trial_start() {
  static obs::Counter& started = obs::counter("runtime.trials_started");
  started.add();
  return obs::enabled() ? obs::now_ns() : 0;
}

void TrialRunner::record_trial_done(std::uint64_t start_ns) {
  static obs::Counter& done = obs::counter("runtime.trials_done");
  static obs::LatencyHistogram& latency = obs::histogram("runtime.trial_ns");
  done.add();
  if (obs::enabled()) latency.record(obs::now_ns() - start_ns);
}

}  // namespace prlc::runtime
