// Utility-based priority-distribution design — the paper's stated open
// problem (Sec. 2: "a less stringent priority model ... requires the
// specification of an application-specific utility function over the
// priority levels ... outside the scope of this paper").
//
// Instead of hard feasibility constraints, the application assigns a
// marginal utility u_i >= 0 to each priority level (the value of getting
// level i back, given levels 1..i-1 are back; strict-priority decoding
// makes the cumulative utility U(k) = sum_{i<=k} u_i). Survival severity
// is a distribution over scenarios (M_s surviving coded blocks with
// probability w_s), and the optimizer picks the priority distribution
// maximizing expected utility
//
//   E[U] = sum_s w_s sum_{k>=1} u_k Pr(X_{M_s} >= k | p).
//
// Built on the same exact analysis + Nelder-Mead machinery as the
// feasibility solver; with a single scenario and 0/1 utilities this
// degenerates to soft feasibility.
#pragma once

#include <vector>

#include "codes/priority_spec.h"
#include "codes/scheme.h"

namespace prlc::design {

/// One survival scenario: `coded_blocks` survive with weight `weight`.
struct SurvivalScenario {
  std::size_t coded_blocks = 0;
  double weight = 1.0;
};

struct UtilityProblem {
  codes::Scheme scheme = codes::Scheme::kPlc;
  /// Placeholder single-level spec; callers must overwrite.
  codes::PrioritySpec spec{std::vector<std::size_t>{1}};
  /// u_i per level (size = spec.levels()), nonnegative.
  std::vector<double> marginal_utility;
  /// Scenario mix; weights need not sum to 1 (normalized internally).
  std::vector<SurvivalScenario> scenarios;
};

struct UtilityOptions {
  std::size_t max_evaluations_per_start = 400;
  std::size_t restarts = 4;
};

struct UtilityResult {
  std::vector<double> distribution;
  double expected_utility = 0;
  std::size_t evaluations = 0;
};

/// Expected utility of a given distribution under the problem.
double expected_utility(const UtilityProblem& problem, const std::vector<double>& distribution);

/// Maximize expected utility over the simplex (uniform start + restarts).
UtilityResult maximize_utility(const UtilityProblem& problem, const UtilityOptions& options = {});

}  // namespace prlc::design
