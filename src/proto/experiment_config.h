// Shared Monte-Carlo execution config for experiment entry points.
//
// Every system-level experiment (persistence sweep, refresh epochs,
// decoding curves) repeats independent trials and averages; before this
// struct each entry point grew its own loose (trials, seed, scheme, ...)
// parameter tail. ExperimentConfig bundles the knobs that describe *how*
// the Monte-Carlo run executes — trial count, root seed, thread budget,
// coding scheme and priority structure — so drivers pass one value and
// CLI/bench flag parsing targets one shape.
//
// `threads` feeds runtime::TrialRunner: 0 means one per hardware thread,
// 1 forces the serial baseline. Thanks to the counter-based seed streams
// (see runtime/trial_runner.h) the thread count never changes results,
// only wall-clock.
#pragma once

#include <cstdint>
#include <vector>

#include "codes/priority_spec.h"
#include "codes/scheme.h"
#include "util/check.h"

namespace prlc::proto {

struct ExperimentConfig {
  std::size_t trials = 20;
  std::uint64_t root_seed = 7;
  std::size_t threads = 0;  ///< TrialRunner convention: 0 = hardware, 1 = serial
  codes::Scheme scheme = codes::Scheme::kPlc;
  std::vector<std::size_t> level_sizes;       ///< priority spec (required)
  std::vector<double> priority_distribution;  ///< empty = uniform

  /// Materialize the priority spec (throws if level_sizes is empty).
  codes::PrioritySpec spec() const {
    PRLC_REQUIRE(!level_sizes.empty(), "experiment config needs a priority spec");
    return codes::PrioritySpec{std::vector<std::size_t>(level_sizes)};
  }

  /// Materialize the distribution, defaulting to uniform over the levels.
  codes::PriorityDistribution distribution() const {
    return priority_distribution.empty()
               ? codes::PriorityDistribution::uniform(level_sizes.size())
               : codes::PriorityDistribution{std::vector<double>(priority_distribution)};
  }

  /// Fail fast on configs no experiment can run.
  void validate() const {
    PRLC_REQUIRE(trials > 0, "need at least one trial");
    PRLC_REQUIRE(!level_sizes.empty(), "experiment config needs a priority spec");
    PRLC_REQUIRE(priority_distribution.empty() ||
                     priority_distribution.size() == level_sizes.size(),
                 "priority distribution must match the level count");
  }
};

}  // namespace prlc::proto
