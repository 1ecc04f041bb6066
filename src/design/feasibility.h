// Priority-distribution design by constrained feasibility search
// (Sec. 3.4; Table 1 of the paper).
//
// Given decoding constraints (M_i, k_i) — "M_i randomly accumulated coded
// blocks must decode k_i levels in expectation", equation (9) — plus the
// optional full-recovery constraint Pr(X_{alpha N} = n) > 1 - epsilon,
// equation (10), and the simplex constraints (11), find a feasible
// priority distribution p.
//
// The paper hands this to MATLAB starting from the uniform distribution
// and keeps the first feasible point. We reproduce that with Nelder–Mead
// on a softmax-parameterised simplex, minimizing total constraint
// violation and stopping at the first zero; deterministic multi-starts
// cover the (rare) case where the uniform start stalls in a flat spot.
// Any feasible point is a valid solution, so matching the paper's exact
// Table-1 numbers is not expected — verifying that the paper's published
// distributions satisfy the constraints is (see bench/table1).
#pragma once

#include <optional>
#include <vector>

#include "codes/priority_spec.h"
#include "codes/scheme.h"

namespace prlc::design {

/// Equation (9): E(X_{coded_blocks}) >= min_levels.
struct DecodingConstraint {
  std::size_t coded_blocks = 0;
  double min_levels = 0;
};

/// Equation (10): Pr(X_{ceil(alpha*N)} = n) > 1 - epsilon.
struct FullRecoveryConstraint {
  double alpha = 2.0;
  double epsilon = 0.01;
};

struct FeasibilityProblem {
  codes::Scheme scheme = codes::Scheme::kPlc;
  /// Placeholder single-level spec; callers must overwrite.
  codes::PrioritySpec spec{std::vector<std::size_t>{1}};
  std::vector<DecodingConstraint> decoding;
  std::optional<FullRecoveryConstraint> full_recovery;
};

struct FeasibilityOptions {
  std::size_t max_evaluations_per_start = 600;
  std::size_t restarts = 8;  ///< deterministic extra starts after uniform
};

/// Per-constraint achieved-vs-required values, for reporting.
struct ConstraintReport {
  std::vector<double> achieved_levels;        ///< E(X_{M_i}) per constraint
  std::optional<double> achieved_full_recovery;  ///< Pr(X_{alpha N} = n)
  double violation = 0;                       ///< total squared shortfall
  double max_shortfall = 0;                   ///< worst single-constraint gap
};

struct FeasibilityResult {
  bool feasible = false;
  std::vector<double> distribution;  ///< best p found (always a valid pmf)
  ConstraintReport report;           ///< evaluated at `distribution`
  std::size_t evaluations = 0;
  std::size_t starts_used = 0;
};

/// Evaluate a candidate distribution against the problem's constraints.
ConstraintReport evaluate_constraints(const FeasibilityProblem& problem,
                                      const std::vector<double>& distribution);

/// Search for a feasible priority distribution (uniform start first).
FeasibilityResult solve_feasibility(const FeasibilityProblem& problem,
                                    const FeasibilityOptions& options = {});

}  // namespace prlc::design
