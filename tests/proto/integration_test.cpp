// Cross-module integration: the decentralized protocol must reproduce the
// behaviour of the centralized coding model, and the analysis engine must
// predict what the network experiment measures.
#include <gtest/gtest.h>

#include "analysis/count_model.h"
#include "analysis/plc_analysis.h"
#include "codes/decoder.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "proto/predistribution.h"
#include "util/stats.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

TEST(Integration, ProtocolBlocksDecodeLikeCentralizedEncoding) {
  // Read the first M blocks from the network many times; the mean
  // decoded-level count must match the count-model prediction for M
  // blocks drawn with the location partition's level proportions.
  const PrioritySpec spec({3, 5, 8});  // N = 16
  const PriorityDistribution dist({0.25, 0.3, 0.45});
  net::ChordParams np;
  np.nodes = 60;
  np.locations = 40;
  np.seed = 41;

  const std::size_t m = 14;
  const std::size_t trials = 120;
  RunningStats network_levels;
  Rng rng(42);
  for (std::size_t t = 0; t < trials; ++t) {
    net::ChordNetwork overlay(np);
    ProtocolParams params;
    params.scheme = Scheme::kPlc;
    Predistribution pd(overlay, spec, dist, params);
    const auto source = codes::SourceData<Field>::random(spec.total(), params.block_size, rng);
    pd.disseminate(source, rng);
    codes::PriorityDecoder<Field> decoder(params.scheme, spec, params.block_size);
    // The levels decoded after the first m retrievals of a full read (a
    // fault-free fetch draws nothing, so reading on costs no Rng draw).
    CollectorOptions opt;
    opt.trace = true;
    const auto result = collect(pd, decoder, opt, rng).result;
    ASSERT_GE(result.level_trace.size(), m);
    network_levels.add(static_cast<double>(result.level_trace[m - 1]));
  }

  // Prediction: M blocks whose levels follow the *location partition*
  // proportions (hypergeometric ~ multinomial at these sizes). Use the
  // count-model MC with the partition's empirical distribution.
  const auto parts = codes::apportion_largest_remainder(np.locations, dist.values());
  std::vector<double> part_dist;
  for (std::size_t c : parts) part_dist.push_back(static_cast<double>(c));
  normalize(std::span<double>(part_dist));
  const auto predicted = analysis::mc_expected_levels(
      Scheme::kPlc, spec, PriorityDistribution{std::move(part_dist)}, m, 30000, 43);

  EXPECT_NEAR(network_levels.mean(), predicted.mean_levels,
              3 * (network_levels.ci95_halfwidth() + predicted.ci95_levels) + 0.15);
}

TEST(Integration, SparseProtocolStillDecodesWithOverprovisioning) {
  const PrioritySpec spec({10, 20, 30});  // N = 60
  const PriorityDistribution dist = PriorityDistribution::uniform(3);
  net::ChordParams np;
  np.nodes = 100;
  np.locations = 180;  // 3x overprovisioning
  np.seed = 47;
  net::ChordNetwork overlay(np);
  ProtocolParams params;
  params.scheme = Scheme::kPlc;
  params.sparse = true;
  Predistribution pd(overlay, spec, dist, params);
  Rng rng(48);
  const auto source = codes::SourceData<Field>::random(spec.total(), params.block_size, rng);
  const auto stats = pd.disseminate(source, rng);
  // Sparse mode must cost far fewer messages than dense (which would be
  // sum of supports ~ 180 * 30 on average).
  EXPECT_LT(stats.messages, 180u * 16u);
  const auto [result, verified] = collect_and_verify(pd, source, rng);
  EXPECT_EQ(result.decoded_levels, 3u);
  EXPECT_TRUE(verified);
}

TEST(Integration, PriorityOrderingUnderChurnMatchesAnalysis) {
  // After heavy churn the surviving-block count S determines (via the
  // analysis) how many levels should decode; verify the experiment
  // tracks the analysis prediction using the actual S of each trial.
  const PrioritySpec spec({3, 5, 8});
  const PriorityDistribution dist({0.4, 0.3, 0.3});
  analysis::PlcAnalysis plc(spec, dist);
  Rng rng(51);
  RunningStats diff;
  for (int t = 0; t < 40; ++t) {
    net::ChordParams np;
    np.nodes = 60;
    np.locations = 32;
    np.seed = rng();
    net::ChordNetwork overlay(np);
    ProtocolParams params;
    params.scheme = Scheme::kPlc;
    Predistribution pd(overlay, spec, dist, params);
    const auto source = codes::SourceData<Field>::random(spec.total(), params.block_size, rng);
    pd.disseminate(source, rng);
    net::kill_uniform_fraction(overlay, 0.5, rng);
    codes::PriorityDecoder<Field> decoder(params.scheme, spec, params.block_size);
    const auto result = collect(pd, decoder, {}, rng).result;
    // Analysis prediction conditioned on the surviving count. The
    // surviving blocks are a random subset of locations, whose levels are
    // close to multinomial(dist) again.
    const double predicted = plc.expected_levels(result.surviving_locations);
    diff.add(static_cast<double>(result.decoded_levels) - predicted);
  }
  EXPECT_NEAR(diff.mean(), 0.0, 0.35);
}

}  // namespace
}  // namespace prlc::proto
