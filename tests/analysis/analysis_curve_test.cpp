#include "analysis/analysis_curve.h"

#include <gtest/gtest.h>

#include "analysis/plc_analysis.h"
#include "util/check.h"

namespace prlc::analysis {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

TEST(AnalysisCurve, RlcStepFunction) {
  const auto spec = PrioritySpec::uniform(3, 10);  // N = 30
  const auto dist = PriorityDistribution::uniform(3);
  const std::vector<std::size_t> ms = {10, 29, 30, 50};
  const auto curve = analysis_curve(Scheme::kRlc, spec, dist, ms);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].expected_levels, 0.0);
  EXPECT_DOUBLE_EQ(curve[1].expected_levels, 0.0);
  EXPECT_DOUBLE_EQ(curve[2].expected_levels, 3.0);
  EXPECT_DOUBLE_EQ(curve[3].expected_levels, 3.0);
  for (const auto& p : curve) EXPECT_TRUE(p.exact);
}

TEST(AnalysisCurve, PlcSmallUsesExactBackend) {
  const auto spec = PrioritySpec::uniform(4, 5);
  const auto dist = PriorityDistribution::uniform(4);
  const std::vector<std::size_t> ms = {5, 15, 25};
  const auto curve = analysis_curve(Scheme::kPlc, spec, dist, ms);
  PlcAnalysis exact(spec, dist);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_TRUE(curve[i].exact);
    EXPECT_NEAR(curve[i].expected_levels, exact.expected_levels(ms[i]), 1e-12);
  }
}

TEST(AnalysisCurve, PlcIsExactUpTo12Levels) {
  AnalysisCurveOptions opt;
  opt.mc_trials = 100;
  const std::vector<std::size_t> ms = {12};
  for (const std::size_t levels : {12u, 13u}) {
    const auto spec = PrioritySpec::uniform(levels, 1);
    const auto dist = PriorityDistribution::uniform(levels);
    const auto curve = analysis_curve(Scheme::kPlc, spec, dist, ms, opt);
    EXPECT_EQ(curve[0].exact, levels <= 12) << levels << " levels";
  }
}

TEST(AnalysisCurve, PlcManyLevelsFallsBackToMonteCarlo) {
  const auto spec = PrioritySpec::uniform(20, 2);
  const auto dist = PriorityDistribution::uniform(20);
  const std::vector<std::size_t> ms = {40, 80};
  AnalysisCurveOptions opt;
  opt.mc_trials = 3000;
  const auto curve = analysis_curve(Scheme::kPlc, spec, dist, ms, opt);
  for (const auto& p : curve) EXPECT_FALSE(p.exact);
  EXPECT_GE(curve[1].expected_levels, curve[0].expected_levels);
}

TEST(AnalysisCurve, SlcAlwaysExact) {
  const auto spec = PrioritySpec::uniform(30, 2);
  const auto dist = PriorityDistribution::uniform(30);
  const std::vector<std::size_t> ms = {30, 90, 200};
  const auto curve = analysis_curve(Scheme::kSlc, spec, dist, ms);
  for (const auto& p : curve) EXPECT_TRUE(p.exact);
  EXPECT_LE(curve[0].expected_levels, curve[2].expected_levels);
}

TEST(AnalysisCurve, RejectsEmptyGrid) {
  const auto spec = PrioritySpec::uniform(2, 2);
  const auto dist = PriorityDistribution::uniform(2);
  const std::vector<std::size_t> empty;
  EXPECT_THROW(analysis_curve(Scheme::kPlc, spec, dist, empty), PreconditionError);
}

}  // namespace
}  // namespace prlc::analysis
