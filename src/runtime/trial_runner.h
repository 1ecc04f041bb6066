// Deterministic parallel Monte-Carlo trial engine.
//
// Every figure in the paper is an average over independent experiments;
// TrialRunner shards those trials across a work-stealing ThreadPool while
// keeping the results bit-identical at any thread count. Two rules make
// that hold:
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
// the persistence, fault, integrity and refresh experiments and the
// capacity and session-churn benches), codes/decoding_curve, the cluster
// simulator and their tests rely on this.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
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

/// Shards independent trials over a ThreadPool; see the header comment
/// for the determinism contract.
class TrialRunner {
 public:
  /// `threads` = 0: one per hardware thread; 1: inline on the calling
  /// thread (no pool spun up — the serial baseline for speedup numbers).
  explicit TrialRunner(std::size_t threads = 0)
      : threads_(threads == 0 ? ThreadPool::default_thread_count() : threads) {}

  std::size_t threads() const { return threads_; }

  /// Run fn(trial_index, rng) for every trial, each with its own
  /// counter-seeded Rng, and return the per-trial results in trial order.
  /// Exceptions from trials propagate after all trials finished.
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
    auto one_trial = [&](std::size_t i) {
      obs::TrialScope telemetry(telemetry_run, i);
      record_trial_start();
      const std::uint64_t t0 = trial_clock_ns();
      Rng rng(trial_seed(root_seed, i));
      results[i] = fn(i, rng);
      record_trial_done(trial_clock_ns() - t0);
    };
    if (threads_ <= 1 || trials <= 1) {
      for (std::size_t i = 0; i < trials; ++i) one_trial(i);
    } else {
      ThreadPool pool(std::min(threads_, trials));
      pool.for_each_index(trials, one_trial);
    }
    return results;
  }

 private:
  // obs probes, out-of-line so this header does not pull in the registry.
  static std::uint64_t trial_clock_ns();
  static void record_trial_start();
  static void record_trial_done(std::uint64_t elapsed_ns);

  std::size_t threads_;
};

}  // namespace prlc::runtime
