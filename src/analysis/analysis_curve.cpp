#include "analysis/analysis_curve.h"

#include "analysis/count_model.h"
#include "analysis/plc_analysis.h"
#include "analysis/slc_analysis.h"
#include "util/check.h"

namespace prlc::analysis {

namespace {

/// PLC switches from the exact DP to count-model MC above this many levels.
constexpr std::size_t kExactLevelLimit = 12;

}  // namespace

std::vector<AnalysisPoint> analysis_curve(codes::Scheme scheme, const codes::PrioritySpec& spec,
                                          const codes::PriorityDistribution& dist,
                                          std::span<const std::size_t> block_counts,
                                          const AnalysisCurveOptions& options) {
  PRLC_REQUIRE(!block_counts.empty(), "need at least one block count");
  std::vector<AnalysisPoint> out;
  out.reserve(block_counts.size());

  const bool plc_exact =
      scheme != codes::Scheme::kPlc || spec.levels() <= kExactLevelLimit;

  if (scheme == codes::Scheme::kRlc) {
    for (std::size_t m : block_counts) {
      out.push_back({m, m >= spec.total() ? static_cast<double>(spec.levels()) : 0.0, true});
    }
    return out;
  }

  if (scheme == codes::Scheme::kSlc) {
    SlcAnalysis slc(spec, dist);
    for (std::size_t m : block_counts) {
      out.push_back({m, slc.expected_levels(m), true});
    }
    return out;
  }

  if (plc_exact) {
    PlcAnalysis plc(spec, dist);
    for (std::size_t m : block_counts) {
      out.push_back({m, plc.expected_levels(m), true});
    }
    return out;
  }

  const auto mc =
      mc_count_curve(scheme, spec, dist, block_counts, options.mc_trials, options.mc_seed);
  for (const auto& point : mc) {
    out.push_back({point.coded_blocks, point.mean_levels, false});
  }
  return out;
}

}  // namespace prlc::analysis
