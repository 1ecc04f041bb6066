// Streaming statistics and confidence intervals for experiment outputs.
//
// Every data point in the paper's figures is "the average and the 95%
// confidence intervals from 100 independent experiments"; RunningStats
// provides exactly that (Welford accumulation, normal-approximation CI).
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace prlc {

/// Single-pass mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  /// Add one observation.
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return count_; }
  /// Sample mean; 0 when empty.
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  /// Standard error of the mean; 0 when empty.
  double stderr_mean() const {
    return count_ > 0 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
  }
  /// Half-width of the 95% confidence interval for the mean
  /// (normal approximation, z = 1.96 — matches the paper's methodology).
  double ci95_halfwidth() const { return 1.96 * stderr_mean(); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Exact quantile of a sample (linear interpolation between order
/// statistics). `q` in [0,1]. NaN entries are ignored; the sample must
/// contain at least one non-NaN value. Copies and sorts: O(n log n).
double quantile(std::span<const double> sample, double q);

}  // namespace prlc
