// Derivative-free simplex minimizer (Nelder–Mead).
//
// Used by the feasibility solver of Sec. 3.4: the constraint functions
// E(X_M) come out of the analysis DP, so no gradients exist and the
// dimension is tiny (n-1 for n priority levels). Standard reflection /
// expansion / contraction / shrink rules with an early-stop predicate so
// the feasibility search can halt at the first zero-violation point,
// mirroring the paper's "MATLAB terminates at the first feasible
// solution" behaviour.
#pragma once

#include <functional>
#include <vector>

namespace prlc::design {

struct NelderMeadOptions {
  std::size_t max_evaluations = 2000;
};

struct NelderMeadResult {
  std::vector<double> x;
  double value = 0;
  std::size_t evaluations = 0;
  bool early_stopped = false;  ///< the stop predicate fired
};

/// Minimize `f` from `start`. If `stop` is provided it is consulted after
/// every evaluation with the best value so far; returning true ends the
/// search immediately (used for "first feasible point" searches).
NelderMeadResult nelder_mead(const std::function<double(const std::vector<double>&)>& f,
                             std::vector<double> start, const NelderMeadOptions& options = {},
                             const std::function<bool(double)>& stop = nullptr);

}  // namespace prlc::design
