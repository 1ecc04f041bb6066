// Continuous churn for the cluster simulator: memoryless lifetimes over
// an alive bitmap.
//
// Every alive node's remaining lifetime is Exp(rate), so the cluster-wide
// failure stream is a Poisson process of rate alive*rate with a uniform
// victim among the alive (by memorylessness). The stream is drawn lazily —
// no per-node timer is ever scheduled, which is what lets one stream drive
// 10^6 nodes. The fixed churn waves of the overlay experiments are a
// different model with a different owner: net::kill_uniform_fraction.
//
// A process is a cheap per-trial object: construct one per cluster
// lifetime, drive it with the trial's Rng, never share it across trials.
// All randomness flows through the Rng argument, so trials stay
// counter-seeded and bit-identical at any thread count (see
// runtime/trial_runner.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "util/random.h"

namespace prlc::sim {

/// One failure: node slot `node` dies at simulation time `time`.
struct FailureEvent {
  double time = 0;
  std::uint32_t node = 0;
};

class PoissonFailureProcess {
 public:
  /// `rate`: failures per node per unit time (1 / mean lifetime). Must be
  /// positive.
  explicit PoissonFailureProcess(double rate);

  /// Next failure with time <= until, or nullopt when the next death lies
  /// further out or nobody is alive. `alive` holds one nonzero byte per
  /// alive slot and `alive_count` counts them; the caller fails the
  /// returned node before asking again.
  ///
  /// The horizon is a hard randomness fence: asking about [0, until]
  /// consumes no draws that belong to later events. A gap drawn past the
  /// horizon is cached, not redrawn, and the victim is drawn only when the
  /// event is released, so a caller that interleaves other work on the
  /// same Rng (repair placement between deaths) keeps a reproducible draw
  /// order. Horizons across calls must not decrease.
  std::optional<FailureEvent> next(std::span<const std::uint8_t> alive, std::size_t alive_count,
                                   Rng& rng, double until);

 private:
  double rate_;
  double now_ = 0;
  /// Gap already drawn but beyond the caller's horizon. It is kept even
  /// though membership may change before it fires — the standard
  /// lazy-superposition approximation.
  std::optional<double> pending_time_;
};

/// The cluster simulator's churn model as a value, so ClusterExperiment
/// (sim/cluster_sim.h) can carry it across threads and trials (each trial
/// builds its own process).
struct FailureModelConfig {
  enum class Kind {
    kNone,     ///< no loud failures: blocks die only by silent rot
    kPoisson,  ///< exponential lifetimes at churn_rate
  };
  Kind kind = Kind::kPoisson;
  /// kPoisson: failures per node per unit time (1 / mean lifetime).
  double churn_rate = 0.02;

  void validate() const;
};

}  // namespace prlc::sim
