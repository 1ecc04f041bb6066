#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/check.h"

namespace prlc {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(RunningStats, Ci95Formula) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i % 10));
  EXPECT_NEAR(s.ci95_halfwidth(), 1.96 * s.stddev() / 10.0, 1e-12);
}

TEST(Quantile, OrderStatistics) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Quantile, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.35), 3.5);
}

TEST(Quantile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), PreconditionError);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(quantile(xs, 1.5), PreconditionError);
}

TEST(Quantile, IgnoresNaNs) {
  const double nan = std::nan("");
  const std::vector<double> xs = {nan, 5.0, 1.0, nan, 3.0, 2.0, 4.0, nan};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  const std::vector<double> all_nan = {nan, nan};
  EXPECT_THROW(quantile(all_nan, 0.5), PreconditionError);
}

}  // namespace
}  // namespace prlc
