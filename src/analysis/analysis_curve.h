// Analytical decoding curves E(X_M) vs M, backend-dispatched.
//
// SLC always uses the exact polynomial DP. PLC uses the exact Theorem-1
// DP up to 12 levels (the DP is O(n^2 M^2) per curve point), beyond which
// it switches to the count-model Monte-Carlo backend (the role the
// paper's tech-report approximation plays — see DESIGN.md substitutions).
// RLC is the trivial step function at M = N under the idealized-field
// model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codes/priority_spec.h"
#include "codes/scheme.h"

namespace prlc::analysis {

struct AnalysisPoint {
  std::size_t coded_blocks = 0;
  double expected_levels = 0;
  bool exact = true;  ///< false when the Monte-Carlo backend produced it
};

struct AnalysisCurveOptions {
  /// Trials for the MC backend.
  std::size_t mc_trials = 20000;
  std::uint64_t mc_seed = 0x9d5c6e71b2a4f083ULL;
};

/// E(X_M) for each M in `block_counts` (strictly increasing).
std::vector<AnalysisPoint> analysis_curve(codes::Scheme scheme, const codes::PrioritySpec& spec,
                                          const codes::PriorityDistribution& dist,
                                          std::span<const std::size_t> block_counts,
                                          const AnalysisCurveOptions& options = {});

}  // namespace prlc::analysis
