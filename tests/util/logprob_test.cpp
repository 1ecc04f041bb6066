#include "util/logprob.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"

namespace prlc {
namespace {

TEST(LogFactorial, SmallValuesExact) {
  LogFactorialTable lf(16);
  EXPECT_DOUBLE_EQ(lf(0), 0.0);
  EXPECT_DOUBLE_EQ(lf(1), 0.0);
  EXPECT_NEAR(lf(2), std::log(2.0), 1e-12);
  EXPECT_NEAR(lf(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(lf(10), std::log(3628800.0), 1e-9);
}

TEST(LogFactorial, GrowsOnDemand) {
  LogFactorialTable lf(4);
  EXPECT_NEAR(lf(100), 363.73937555556349, 1e-8);  // ln(100!)
}

TEST(LogFactorial, StirlingAgreement) {
  LogFactorialTable lf;
  const double n = 5000;
  const double stirling = n * std::log(n) - n + 0.5 * std::log(2 * M_PI * n);
  EXPECT_NEAR(lf(5000), stirling, 0.01);
}

TEST(LogBinomial, MatchesDirect) {
  LogFactorialTable lf;
  EXPECT_NEAR(std::exp(lf.log_binomial(10, 3)), 120.0, 1e-9);
  EXPECT_NEAR(std::exp(lf.log_binomial(52, 5)), 2598960.0, 1e-3);
  EXPECT_EQ(lf.log_binomial(3, 5), -std::numeric_limits<double>::infinity());
}

TEST(BinomialPmf, SumsToOne) {
  LogFactorialTable lf;
  for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    double total = 0;
    for (std::size_t k = 0; k <= 40; ++k) total += lf.binomial_pmf(40, p, k);
    EXPECT_NEAR(total, 1.0, 1e-10) << "p=" << p;
  }
}

TEST(BinomialPmf, EdgeCases) {
  LogFactorialTable lf;
  EXPECT_DOUBLE_EQ(lf.binomial_pmf(10, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(lf.binomial_pmf(10, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(lf.binomial_pmf(10, 1.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(lf.binomial_pmf(10, 0.5, 11), 0.0);
  EXPECT_THROW(lf.binomial_pmf(10, 1.5, 3), PreconditionError);
}

TEST(BinomialTail, MatchesSummation) {
  LogFactorialTable lf;
  const std::size_t n = 30;
  const double p = 0.37;
  for (std::size_t k = 0; k <= n + 1; ++k) {
    double direct = 0;
    for (std::size_t j = k; j <= n; ++j) direct += lf.binomial_pmf(n, p, j);
    EXPECT_NEAR(lf.binomial_tail_ge(n, p, k), direct, 1e-10) << "k=" << k;
  }
}

TEST(Normalize, ScalesToUnitSum) {
  std::vector<double> w = {1.0, 3.0, 0.0, 4.0};
  normalize(w);
  EXPECT_NEAR(w[0], 0.125, 1e-12);
  EXPECT_NEAR(w[1], 0.375, 1e-12);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
  EXPECT_NEAR(w[3], 0.5, 1e-12);
}

TEST(Normalize, RejectsBadInput) {
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(normalize(zeros), PreconditionError);
  std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(normalize(negative), PreconditionError);
}

}  // namespace
}  // namespace prlc
