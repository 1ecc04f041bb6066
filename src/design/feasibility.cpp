#include "design/feasibility.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <cmath>

#include "analysis/plc_analysis.h"
#include "analysis/slc_analysis.h"
#include "design/nelder_mead.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::design {

namespace {

/// A constraint counts as satisfied when its shortfall (required minus
/// achieved, in levels / probability) is at most this. The paper's Table-1
/// problems are *tight* — their published solutions sit within ~1e-3 of
/// the constraint boundaries under the exact analysis (MATLAB declared
/// them feasible under its own tolerances) — so the tolerance mirrors that
/// behaviour.
constexpr double kValueTolerance = 5e-3;
/// Seed of the restarts' starting points.
constexpr std::uint64_t kRestartSeed = 0x5eedf00dULL;

/// softmax over (theta_1..theta_{n-1}, 0) — an unconstrained chart of the
/// open probability simplex.
std::vector<double> softmax_to_simplex(const std::vector<double>& theta) {
  std::vector<double> p(theta.size() + 1);
  double max_t = 0.0;  // the pinned last coordinate is 0
  for (double t : theta) max_t = std::max(max_t, t);
  double sum = 0.0;
  for (std::size_t i = 0; i < theta.size(); ++i) {
    p[i] = std::exp(theta[i] - max_t);
    sum += p[i];
  }
  p.back() = std::exp(-max_t);
  sum += p.back();
  for (double& v : p) v /= sum;
  return p;
}

double expected_levels(const FeasibilityProblem& problem, const codes::PriorityDistribution& dist,
                       std::size_t coded_blocks) {
  switch (problem.scheme) {
    case codes::Scheme::kSlc: {
      analysis::SlcAnalysis slc(problem.spec, dist);
      return slc.expected_levels(coded_blocks);
    }
    case codes::Scheme::kPlc: {
      analysis::PlcAnalysis plc(problem.spec, dist);
      return plc.expected_levels(coded_blocks);
    }
    case codes::Scheme::kRlc:
      return coded_blocks >= problem.spec.total() ? static_cast<double>(problem.spec.levels())
                                                  : 0.0;
  }
  PRLC_ASSERT(false, "unknown scheme");
}

double full_recovery_probability(const FeasibilityProblem& problem,
                                 const codes::PriorityDistribution& dist,
                                 std::size_t coded_blocks) {
  switch (problem.scheme) {
    case codes::Scheme::kSlc: {
      analysis::SlcAnalysis slc(problem.spec, dist);
      return slc.prob_decode_all(coded_blocks);
    }
    case codes::Scheme::kPlc: {
      analysis::PlcAnalysis plc(problem.spec, dist);
      return plc.prob_decode_all(coded_blocks);
    }
    case codes::Scheme::kRlc:
      return coded_blocks >= problem.spec.total() ? 1.0 : 0.0;
  }
  PRLC_ASSERT(false, "unknown scheme");
}

}  // namespace

ConstraintReport evaluate_constraints(const FeasibilityProblem& problem,
                                      const std::vector<double>& distribution) {
  PRLC_REQUIRE(distribution.size() == problem.spec.levels(),
               "distribution width must match the spec");
  const codes::PriorityDistribution dist{std::vector<double>(distribution)};

  ConstraintReport report;
  double violation = 0.0;
  double max_shortfall = 0.0;
  for (const auto& c : problem.decoding) {
    const double achieved = expected_levels(problem, dist, c.coded_blocks);
    report.achieved_levels.push_back(achieved);
    const double shortfall = std::max(0.0, c.min_levels - achieved);
    violation += shortfall * shortfall;
    max_shortfall = std::max(max_shortfall, shortfall);
  }
  if (problem.full_recovery.has_value()) {
    const auto& fr = *problem.full_recovery;
    const auto m = static_cast<std::size_t>(
        std::ceil(fr.alpha * static_cast<double>(problem.spec.total())));
    const double achieved = full_recovery_probability(problem, dist, m);
    report.achieved_full_recovery = achieved;
    const double shortfall = std::max(0.0, (1.0 - fr.epsilon) - achieved);
    violation += shortfall * shortfall;
    max_shortfall = std::max(max_shortfall, shortfall);
  }
  report.violation = violation;
  report.max_shortfall = max_shortfall;
  return report;
}

FeasibilityResult solve_feasibility(const FeasibilityProblem& problem,
                                    const FeasibilityOptions& options) {
  PRLC_REQUIRE(!problem.decoding.empty() || problem.full_recovery.has_value(),
               "feasibility problem has no constraints");
  for (const auto& c : problem.decoding) {
    PRLC_REQUIRE(c.min_levels <= static_cast<double>(problem.spec.levels()),
                 "a constraint requires more levels than exist");
  }

  const std::size_t n = problem.spec.levels();
  FeasibilityResult result;

  const double constraint_count =
      static_cast<double>(problem.decoding.size() + (problem.full_recovery ? 1 : 0));
  const double stop_threshold =
      constraint_count * kValueTolerance * kValueTolerance;
  auto objective = [&](const std::vector<double>& theta) {
    return evaluate_constraints(problem, softmax_to_simplex(theta)).violation;
  };

  Rng rng(kRestartSeed);
  std::vector<double> best_theta(n > 1 ? n - 1 : 0, 0.0);
  double best_violation = std::numeric_limits<double>::infinity();

  for (std::size_t start = 0; start <= options.restarts; ++start) {
    std::vector<double> theta(n > 1 ? n - 1 : 0, 0.0);
    if (start > 0) {
      for (double& t : theta) t = (rng.uniform_double() - 0.5) * 4.0;
    }
    if (theta.empty()) {
      // Single-level problems have a unique distribution.
      const double v = objective(theta);
      ++result.evaluations;
      best_theta = theta;
      best_violation = v;
      result.starts_used = 1;
      break;
    }
    NelderMeadOptions nm;
    nm.max_evaluations = options.max_evaluations_per_start;
    const auto run = nelder_mead(objective, theta, nm,
                                 [&](double best) { return best <= stop_threshold; });
    result.evaluations += run.evaluations;
    ++result.starts_used;
    if (run.value < best_violation) {
      best_violation = run.value;
      best_theta = run.x;
    }
    if (best_violation <= stop_threshold) break;
  }

  result.distribution = softmax_to_simplex(best_theta);
  result.report = evaluate_constraints(problem, result.distribution);
  result.feasible = result.report.max_shortfall <= kValueTolerance;
  return result;
}

}  // namespace prlc::design
