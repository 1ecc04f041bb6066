#include "design/utility_optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "analysis/plc_analysis.h"
#include "analysis/slc_analysis.h"
#include "design/nelder_mead.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::design {

namespace {

/// Seed of the restarts' starting points.
constexpr std::uint64_t kRestartSeed = 0x071117ULL;

std::vector<double> softmax_to_simplex(const std::vector<double>& theta) {
  std::vector<double> p(theta.size() + 1);
  double max_t = 0.0;
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

void validate(const UtilityProblem& problem) {
  PRLC_REQUIRE(problem.marginal_utility.size() == problem.spec.levels(),
               "one marginal utility per priority level is required");
  for (double u : problem.marginal_utility) {
    PRLC_REQUIRE(u >= 0.0, "marginal utilities must be nonnegative");
  }
  PRLC_REQUIRE(!problem.scenarios.empty(), "at least one survival scenario is required");
  double total_weight = 0;
  for (const auto& s : problem.scenarios) {
    PRLC_REQUIRE(s.weight >= 0.0, "scenario weights must be nonnegative");
    total_weight += s.weight;
  }
  PRLC_REQUIRE(total_weight > 0.0, "scenario weights must not all be zero");
}

/// Pr(X_M >= k) for k = 1..n under the problem's scheme.
std::vector<double> prefix_probabilities(const UtilityProblem& problem,
                                         const codes::PriorityDistribution& dist,
                                         std::size_t coded_blocks) {
  const std::size_t n = problem.spec.levels();
  switch (problem.scheme) {
    case codes::Scheme::kSlc: {
      analysis::SlcAnalysis slc(problem.spec, dist);
      return slc.prefix_probabilities(coded_blocks);
    }
    case codes::Scheme::kPlc: {
      analysis::PlcAnalysis plc(problem.spec, dist);
      const auto pmf = plc.level_pmf(coded_blocks);
      std::vector<double> probs(n, 0.0);
      double tail = 0.0;
      for (std::size_t k = n; k >= 1; --k) {
        tail += pmf[k];
        probs[k - 1] = std::min(tail, 1.0);
      }
      return probs;
    }
    case codes::Scheme::kRlc: {
      std::vector<double> probs(n, coded_blocks >= problem.spec.total() ? 1.0 : 0.0);
      return probs;
    }
  }
  PRLC_ASSERT(false, "unknown scheme");
}

}  // namespace

double expected_utility(const UtilityProblem& problem, const std::vector<double>& distribution) {
  validate(problem);
  PRLC_REQUIRE(distribution.size() == problem.spec.levels(),
               "distribution width must match the spec");
  const codes::PriorityDistribution dist{std::vector<double>(distribution)};

  double total_weight = 0;
  for (const auto& s : problem.scenarios) total_weight += s.weight;

  double utility = 0.0;
  for (const auto& scenario : problem.scenarios) {
    if (scenario.weight == 0) continue;
    const auto probs = prefix_probabilities(problem, dist, scenario.coded_blocks);
    double scenario_utility = 0.0;
    for (std::size_t k = 0; k < probs.size(); ++k) {
      scenario_utility += problem.marginal_utility[k] * probs[k];
    }
    utility += scenario.weight / total_weight * scenario_utility;
  }
  return utility;
}

UtilityResult maximize_utility(const UtilityProblem& problem, const UtilityOptions& options) {
  validate(problem);
  const std::size_t n = problem.spec.levels();
  UtilityResult result;

  auto objective = [&](const std::vector<double>& theta) {
    return -expected_utility(problem, softmax_to_simplex(theta));
  };

  if (n == 1) {
    result.distribution = {1.0};
    result.expected_utility = expected_utility(problem, result.distribution);
    result.evaluations = 1;
    return result;
  }

  Rng rng(kRestartSeed);
  std::vector<double> best_theta(n - 1, 0.0);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t start = 0; start <= options.restarts; ++start) {
    std::vector<double> theta(n - 1, 0.0);
    if (start > 0) {
      for (double& t : theta) t = (rng.uniform_double() - 0.5) * 4.0;
    }
    NelderMeadOptions nm;
    nm.max_evaluations = options.max_evaluations_per_start;
    const auto run = nelder_mead(objective, theta, nm);
    result.evaluations += run.evaluations;
    if (run.value < best) {
      best = run.value;
      best_theta = run.x;
    }
  }
  result.distribution = softmax_to_simplex(best_theta);
  result.expected_utility = expected_utility(problem, result.distribution);
  return result;
}

}  // namespace prlc::design
