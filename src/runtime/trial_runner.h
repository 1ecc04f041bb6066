// Deterministic parallel Monte-Carlo trial engine.
//
// Every figure in the paper is an average over independent experiments.
// TrialRunner::run() starts its threads, lets them and the calling thread
// claim trial indices from one atomic counter (one at a time, which
// balances trials whose latencies vary 10x) and joins them before it
// returns; nothing is kept between runs. Results stay bit-identical at any
// thread count because of two rules:
//
//   * Counter-based seed streams. Trial i always draws from
//     Rng(trial_seed(root_seed, i)) — a stateless hash of (root_seed, i)
//     — never from a generator advanced trial-by-trial. Which thread runs
//     the trial, and in what order, cannot influence its random stream.
//   * Ordered merge at a single barrier. Each trial writes its result
//     into slot i of a pre-sized vector; aggregation (Welford stats,
//     histograms — both order-sensitive in floating point) happens after
//     the join barrier, by walking the slots in trial order on one
//     thread.
//
// Contract: run(trials, root_seed, fn) returns exactly the same bytes for
// threads = 1 and threads = N. proto::run_sweep (proto/deployment, under
// the persistence, fault (loud and silent) and refresh experiments and
// the capacity and session-churn benches), codes/decoding_curve, the
// cluster simulator and their tests rely on this.
//
// Each run sets the obs gauge runtime.pool.threads and adds each thread's
// load to runtime.pool.t<i>.busy_ns and .tasks (t0: the calling thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "obs/events.h"
#include "util/random.h"

namespace prlc::runtime {

/// Stateless per-trial seed: a SplitMix64 hash of (root_seed, trial).
/// Changing either input decorrelates the whole stream; equal inputs give
/// equal seeds on every platform, thread count and call order.
inline std::uint64_t trial_seed(std::uint64_t root_seed, std::uint64_t trial) {
  // Offset the counter by one golden-ratio step so trial_seed(s, 0) is not
  // the plain SplitMix64 of s (which Rng::reseed would correlate with).
  std::uint64_t state = root_seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
  const std::uint64_t a = splitmix64_next(state);
  return a ^ splitmix64_next(state);
}

/// The most threads a TrialRunner runs on, the calling thread included.
inline constexpr std::size_t kMaxThreads = 1024;

/// Shards independent trials over threads (the header comment has the contract).
class TrialRunner {
 public:
  /// Trials run on `threads` threads, the calling thread included; 0: one
  /// per hardware thread, at most kMaxThreads. 1 runs them inline on the
  /// calling thread. More than kMaxThreads is a PreconditionError.
  explicit TrialRunner(std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  /// Run fn(trial_index, rng) for every trial, each with its own
  /// counter-seeded Rng, and return the per-trial results in trial order.
  /// Every trial runs even when some throw; run() then rethrows the
  /// exception of the lowest failing trial, at any thread count.
  template <typename Fn>
  auto run(std::size_t trials, std::uint64_t root_seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t, Rng&>> {
    using Result = std::invoke_result_t<Fn&, std::size_t, Rng&>;
    static_assert(std::is_default_constructible_v<Result>,
                  "per-trial results are slotted into a pre-sized vector");
    std::vector<Result> results(trials);
    // One telemetry run id per run() invocation, allocated here on the
    // calling thread so ids follow the program's experiment order; each
    // trial journals under (run, trial), thread count invisible.
    const std::uint64_t telemetry_run = obs::begin_telemetry_run();
    const auto one_trial = [&](std::size_t i) {
      obs::TrialScope telemetry(telemetry_run, i);
      const std::uint64_t start_ns = record_trial_start();
      Rng rng(trial_seed(root_seed, i));
      results[i] = fn(i, rng);
      record_trial_done(start_ns);
    };
    using Trial = decltype(one_trial);
    for_each_index(
        trials, [](const void* trial, std::size_t i) { (*static_cast<Trial*>(trial))(i); },
        &one_trial);
    return results;
  }

 private:
  /// call(fn, i) for every i in [0, n) on min(threads_, n) threads; then
  /// rethrow the exception of the lowest index that threw, if any.
  void for_each_index(std::size_t n, void (*call)(const void*, std::size_t),
                      const void* fn) const;

  // obs probes, out-of-line so this header does not pull in the registry.
  static std::uint64_t record_trial_start();  // its clock reading; 0 with metrics off
  static void record_trial_done(std::uint64_t start_ns);

  std::size_t threads_;
};

}  // namespace prlc::runtime
