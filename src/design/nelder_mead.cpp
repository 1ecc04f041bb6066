#include "design/nelder_mead.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace prlc::design {

namespace {

/// Stop when both the simplex's objective spread and its coordinate spread
/// fall below these.
constexpr double kFTolerance = 1e-10;
constexpr double kXTolerance = 1e-10;
/// Initial simplex edge length around the starting point.
constexpr double kInitialStep = 0.5;

struct Vertex {
  std::vector<double> x;
  double f = 0;
};

}  // namespace

NelderMeadResult nelder_mead(const std::function<double(const std::vector<double>&)>& f,
                             std::vector<double> start, const NelderMeadOptions& options,
                             const std::function<bool(double)>& stop) {
  PRLC_REQUIRE(static_cast<bool>(f), "objective function is required");
  PRLC_REQUIRE(!start.empty(), "starting point must be nonempty");
  const std::size_t d = start.size();

  NelderMeadResult result;
  result.x = start;

  auto evaluate = [&](const std::vector<double>& x) {
    const double v = f(x);
    ++result.evaluations;
    if (result.evaluations == 1 || v < result.value) {
      result.value = v;
      result.x = x;
    }
    if (stop && stop(result.value)) result.early_stopped = true;
    return v;
  };

  // Initial simplex: start plus a step along each axis.
  std::vector<Vertex> simplex(d + 1);
  simplex[0].x = start;
  simplex[0].f = evaluate(start);
  for (std::size_t i = 0; i < d && !result.early_stopped; ++i) {
    simplex[i + 1].x = start;
    simplex[i + 1].x[i] += kInitialStep;
    simplex[i + 1].f = evaluate(simplex[i + 1].x);
  }

  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  while (!result.early_stopped && result.evaluations < options.max_evaluations) {
    std::sort(simplex.begin(), simplex.end(),
              [](const Vertex& a, const Vertex& b) { return a.f < b.f; });

    // Convergence checks.
    const double f_spread = std::abs(simplex.back().f - simplex.front().f);
    double x_spread = 0;
    for (std::size_t i = 0; i < d; ++i) {
      double lo = simplex[0].x[i];
      double hi = lo;
      for (const auto& v : simplex) {
        lo = std::min(lo, v.x[i]);
        hi = std::max(hi, v.x[i]);
      }
      x_spread = std::max(x_spread, hi - lo);
    }
    if (f_spread < kFTolerance && x_spread < kXTolerance) break;

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(d, 0.0);
    for (std::size_t v = 0; v < d; ++v) {
      for (std::size_t i = 0; i < d; ++i) centroid[i] += simplex[v].x[i];
    }
    for (double& c : centroid) c /= static_cast<double>(d);

    auto blend = [&](double t, const std::vector<double>& away) {
      std::vector<double> out(d);
      for (std::size_t i = 0; i < d; ++i) out[i] = centroid[i] + t * (centroid[i] - away[i]);
      return out;
    };

    Vertex& worst = simplex.back();
    const std::vector<double> reflected = blend(kReflect, worst.x);
    const double f_reflected = evaluate(reflected);
    if (result.early_stopped) break;

    if (f_reflected < simplex[0].f) {
      const std::vector<double> expanded = blend(kExpand, worst.x);
      const double f_expanded = evaluate(expanded);
      if (result.early_stopped) break;
      if (f_expanded < f_reflected) {
        worst = {expanded, f_expanded};
      } else {
        worst = {reflected, f_reflected};
      }
      continue;
    }
    if (f_reflected < simplex[d - 1].f) {
      worst = {reflected, f_reflected};
      continue;
    }
    // Contraction (outside if the reflection improved on the worst).
    const bool outside = f_reflected < worst.f;
    const std::vector<double> contracted =
        outside ? blend(kReflect * kContract, worst.x) : blend(-kContract, worst.x);
    const double f_contracted = evaluate(contracted);
    if (result.early_stopped) break;
    if (f_contracted < std::min(f_reflected, worst.f)) {
      worst = {contracted, f_contracted};
      continue;
    }
    // Shrink toward the best vertex.
    for (std::size_t v = 1; v <= d && !result.early_stopped; ++v) {
      for (std::size_t i = 0; i < d; ++i) {
        simplex[v].x[i] = simplex[0].x[i] + kShrink * (simplex[v].x[i] - simplex[0].x[i]);
      }
      simplex[v].f = evaluate(simplex[v].x);
    }
  }
  return result;
}

}  // namespace prlc::design
