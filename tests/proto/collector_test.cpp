#include "proto/collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/count_model.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/gf64_fingerprint.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

struct TestHarness {
  PrioritySpec spec{std::vector<std::size_t>{4, 6, 10}};  // N = 20
  PriorityDistribution dist{std::vector<double>{0.3, 0.3, 0.4}};
  net::ChordNetwork overlay;
  ProtocolParams params;
  Rng rng{55};

  explicit TestHarness(Scheme scheme = Scheme::kPlc, std::size_t locations = 60,
                       std::uint64_t seed = 55)
      : overlay(make_net(locations)), rng(seed) {
    params.scheme = scheme;
    params.block_size = 6;
  }

  static net::ChordParams make_net(std::size_t locations) {
    net::ChordParams p;
    p.nodes = 80;
    p.locations = locations;
    p.seed = 21;
    return p;
  }
};

TEST(Collector, FullCollectionDecodesEverything) {
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  // 60 locations for 20 unknowns: decoding everything is near-certain.
  const auto [result, verified] = collect_and_verify(pd, source, s.rng);
  EXPECT_EQ(result.surviving_locations, 60u);
  EXPECT_EQ(result.decoded_levels, 3u);
  EXPECT_EQ(result.decoded_blocks, 20u);
  EXPECT_TRUE(verified);
  EXPECT_EQ(result.innovative_blocks, 20u);
}

TEST(Collector, TargetLevelsStopsEarly) {
  // 18 of the 60 locations hold level 0 (4 blocks). With no churn and no
  // faults a level-1 read fetches nothing else, under PLC and SLC alike.
  for (const Scheme scheme : {Scheme::kPlc, Scheme::kSlc}) {
    SCOPED_TRACE(codes::to_string(scheme));
    TestHarness s(scheme);
    Predistribution pd(s.overlay, s.spec, s.dist, s.params);
    const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
    pd.disseminate(source, s.rng);
    codes::PriorityDecoder<Field> decoder(s.params.scheme, s.spec, s.params.block_size);
    CollectorOptions opt;
    opt.target_levels = 1;
    opt.trace = true;
    const CollectionOutcome outcome = collect(pd, decoder, opt, s.rng);
    EXPECT_TRUE(outcome.result.target_met);
    EXPECT_GE(outcome.result.decoded_levels, 1u);
    EXPECT_LT(outcome.result.blocks_retrieved, 60u);  // stopped before draining
    ASSERT_FALSE(outcome.fetch_log.empty());
    for (const FetchAttempt& a : outcome.fetch_log) {
      EXPECT_EQ(pd.level_of_location(a.location), 0u) << a.location;
    }
    EXPECT_EQ(wrong_decode_fraction(decoder, source), 0.0);
  }
}

TEST(Collector, TraceRecordsProgression) {
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  codes::PriorityDecoder<Field> decoder(s.params.scheme, s.spec, s.params.block_size);
  CollectorOptions opt;
  opt.trace = true;
  const auto result = collect(pd, decoder, opt, s.rng).result;
  ASSERT_EQ(result.level_trace.size(), result.blocks_retrieved);
  for (std::size_t i = 1; i < result.level_trace.size(); ++i) {
    EXPECT_GE(result.level_trace[i], result.level_trace[i - 1]);  // monotone
  }
  EXPECT_EQ(result.level_trace.back(), result.decoded_levels);
}

TEST(Collector, ChurnDegradesGracefully) {
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  net::kill_uniform_fraction(s.overlay, 0.9, s.rng);
  codes::PriorityDecoder<Field> decoder(s.params.scheme, s.spec, s.params.block_size);
  const auto result = collect(pd, decoder, {}, s.rng).result;
  EXPECT_LT(result.surviving_locations, 60u);
  EXPECT_LE(result.decoded_levels, 3u);
  // Whatever did decode must still verify against the original data.
  EXPECT_EQ(wrong_decode_fraction(decoder, source), 0.0);
}

TEST(Collector, SlcSchemeEndToEnd) {
  TestHarness s(Scheme::kSlc);
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  const auto [result, verified] = collect_and_verify(pd, source, s.rng);
  EXPECT_EQ(result.decoded_levels, 3u);
  EXPECT_TRUE(verified);
}

TEST(Collector, FrameOutsideItsLevelSupportIsAWireError) {
  // A CRC-valid frame whose coefficients leave its level's support is
  // malformed: the collector counts it as a wire error instead of feeding
  // it to the decoder, never throws, and decodes every block intact. A
  // refetch would serve the same bytes, so the block is written off at
  // once: no retry, and nothing charged to the serving node.
  for (const Scheme scheme : {Scheme::kSlc, Scheme::kPlc}) {
    SCOPED_TRACE(codes::to_string(scheme));
    TestHarness s(scheme);
    Predistribution pd(s.overlay, s.spec, s.dist, s.params);
    const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
    pd.disseminate(source, s.rng);
    net::LocationId target = 0;
    while (pd.stored(target) == nullptr || pd.level_of_location(target) != 0) ++target;
    codes::CodedBlock<Field> stray = pd.stored(target)->block;
    stray.coeffs[19] = 7;  // source block 19 lies in level 2
    pd.store_rebuilt(target, stray);

    codes::PriorityDecoder<Field> decoder(scheme, s.spec, s.params.block_size);
    CollectionOutcome outcome;
    ASSERT_NO_THROW(outcome = collect(pd, decoder, {}, s.rng));
    EXPECT_EQ(outcome.faults.wire_errors, 1u);
    EXPECT_EQ(outcome.retries, 0u);
    EXPECT_EQ(outcome.blocks_lost, 1u);
    EXPECT_EQ(outcome.blacklisted_nodes, 0u);
    EXPECT_EQ(outcome.result.decoded_levels, 3u);
    EXPECT_EQ(wrong_decode_fraction(decoder, source), 0.0);
  }
}

TEST(Collector, OptionsValidated) {
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  codes::PriorityDecoder<Field> decoder(s.params.scheme, s.spec, s.params.block_size);
  CollectorOptions too_many_levels;
  too_many_levels.target_levels = s.spec.levels() + 1;  // previously never met
  EXPECT_THROW(collect(pd, decoder, too_many_levels, s.rng), PreconditionError);
  CollectorOptions zero_levels;
  zero_levels.target_levels = 0;  // previously met at once with nothing fetched
  EXPECT_THROW(collect(pd, decoder, zero_levels, s.rng), PreconditionError);
  // target_levels == levels() is the boundary and stays legal.
  CollectorOptions all_levels;
  all_levels.target_levels = s.spec.levels();
  const auto result = collect(pd, decoder, all_levels, s.rng).result;
  EXPECT_TRUE(result.target_met);
}

TEST(Collector, MismatchedDecoderRejected) {
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  codes::PriorityDecoder<Field> wrong_scheme(Scheme::kSlc, s.spec, s.params.block_size);
  EXPECT_THROW(collect(pd, wrong_scheme, {}, s.rng), PreconditionError);
  codes::PriorityDecoder<Field> wrong_spec(Scheme::kPlc, PrioritySpec({5, 5}),
                                           s.params.block_size);
  EXPECT_THROW(collect(pd, wrong_spec, {}, s.rng), PreconditionError);
}

// --- resilient collection over a FaultyChannel ---------------------------

namespace {

/// Deploy and hand back the pieces a resilient-collection test needs.
/// `churn` is the fraction of nodes killed after dissemination.
struct FaultHarness : TestHarness {
  Predistribution pd;
  codes::SourceData<Field> source;

  explicit FaultHarness(Scheme scheme = Scheme::kPlc, double churn = 0.0,
                        std::uint64_t seed = 55)
      : TestHarness(scheme, 60, seed),
        pd(overlay, spec, dist, params),
        source(codes::SourceData<Field>::random(spec.total(), 6, rng)) {
    pd.disseminate(source, rng);
    if (churn > 0.0) net::kill_uniform_fraction(overlay, churn, rng);
  }

  FaultyChannel channel(const net::FaultSpec& fault_spec) {
    return FaultyChannel(pd, net::FaultPlan(fault_spec, overlay.nodes(), rng));
  }

  codes::PriorityDecoder<Field> decoder() {
    return codes::PriorityDecoder<Field>(params.scheme, spec, params.block_size);
  }

  /// Every decoded payload must match the original source data.
  void expect_verified(const codes::PriorityDecoder<Field>& d) {
    EXPECT_EQ(wrong_decode_fraction(d, source), 0.0);
  }

  /// Surviving blocks per level: the counts the Theorem-1 model reads.
  std::vector<std::size_t> survivor_counts() const {
    std::vector<std::size_t> counts(spec.levels(), 0);
    for (const net::LocationId loc : pd.surviving_locations()) ++counts[pd.level_of_location(loc)];
    return counts;
  }
};

}  // namespace

TEST(ResilientCollector, NullChannelMatchesPlainCollect) {
  // A full read and partial reads alike: the null-plan channel is the
  // plain path, fetch for fetch and draw for draw.
  FaultHarness h;
  for (const std::optional<std::size_t> target :
       {std::optional<std::size_t>{}, std::optional<std::size_t>{1},
        std::optional<std::size_t>{2}}) {
    SCOPED_TRACE(target.value_or(0));
    CollectorOptions options;
    options.target_levels = target;
    options.trace = true;
    auto d1 = h.decoder();
    Rng r1(9);
    const CollectionOutcome plain = collect(h.pd, d1, options, r1);
    auto d2 = h.decoder();
    Rng r2(9);
    FaultyChannel channel(h.pd);
    const CollectionOutcome outcome = collect(channel, d2, options, r2);
    EXPECT_EQ(outcome.result.decoded_levels, plain.result.decoded_levels);
    EXPECT_EQ(outcome.result.blocks_retrieved, plain.result.blocks_retrieved);
    EXPECT_EQ(outcome.result.innovative_blocks, plain.result.innovative_blocks);
    EXPECT_EQ(outcome.result.target_met, plain.result.target_met);
    ASSERT_EQ(outcome.fetch_log.size(), plain.fetch_log.size());
    for (std::size_t i = 0; i < plain.fetch_log.size(); ++i) {
      EXPECT_EQ(outcome.fetch_log[i].location, plain.fetch_log[i].location);
    }
    EXPECT_EQ(outcome.faults.total(), 0u);
    EXPECT_EQ(outcome.retries, 0u);
    EXPECT_EQ(outcome.hedges, 0u);
    EXPECT_FALSE(outcome.degraded);
    EXPECT_EQ(r1(), r2());  // identical draw streams
  }
}

TEST(ResilientCollector, RetriesHealTransientCorruption) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.corrupt_rate = 0.5;  // every attempt is a coin flip; 4 attempts
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  const CollectionOutcome outcome = collect(channel, decoder, {}, h.rng);
  // 60 locations for 20 unknowns and corruption heals on retry: still full.
  EXPECT_EQ(outcome.result.decoded_levels, 3u);
  EXPECT_GT(outcome.faults.wire_errors, 0u);
  EXPECT_GT(outcome.retries, 0u);
  h.expect_verified(decoder);
}

TEST(ResilientCollector, TotalCorruptionDegradesGracefullyNeverThrows) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.corrupt_rate = 1.0;  // every attempt of every fetch is corrupt
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectionOutcome outcome;
  ASSERT_NO_THROW(outcome = collect(channel, decoder, {}, h.rng));
  EXPECT_EQ(outcome.result.decoded_levels, 0u);
  EXPECT_EQ(outcome.result.blocks_retrieved, 0u);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_GT(outcome.faults.wire_errors, 0u);
  // Nothing corrupt ever reached the decoder as a "good" block.
  h.expect_verified(decoder);
}

TEST(ResilientCollector, CorruptedPayloadsNeverVerifyAsCorrect) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.corrupt_rate = 0.3;
  faults.truncate_rate = 0.2;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  const CollectionOutcome outcome = collect(channel, decoder, {}, h.rng);
  EXPECT_GT(outcome.faults.wire_errors, 0u);
  // Whatever decoded must be byte-identical to the original source.
  h.expect_verified(decoder);
}

TEST(ResilientCollector, FailureBudgetBlacklistsHopelessNodes) {
  // Every attempt fails with a retryable fault and takes no time, so the
  // fetch log and sim_elapsed_us show the fixed schedule whole: 4 attempts
  // per location, a node blacklisted at its 8th retryable fault, and
  // retry k backing off 200 * 2^(k-1) us +-25%.
  FaultHarness h;
  net::FaultSpec faults;
  faults.transient_rate = 1.0;  // every attempt on every node fails
  faults.mean_latency_us = 0;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.trace = true;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  EXPECT_EQ(outcome.result.blocks_retrieved, 0u);
  EXPECT_EQ(outcome.blocks_lost, outcome.result.surviving_locations);
  EXPECT_TRUE(outcome.degraded);

  // Without wire errors or slow replies a location's attempts run back to
  // back; a node's faults add up across its locations.
  const std::vector<FetchAttempt>& log = outcome.fetch_log;
  std::unordered_map<net::NodeId, std::size_t> node_faults;
  std::unordered_set<net::NodeId> blacklisted;
  std::unordered_set<net::LocationId> fetched;
  std::size_t retries = 0;
  double nominal = 0;
  for (std::size_t i = 0; i < log.size();) {
    const net::LocationId loc = log[i].location;
    const net::NodeId node = channel.owner_of(loc);
    EXPECT_TRUE(fetched.insert(loc).second) << "location " << loc << " fetched twice";
    EXPECT_FALSE(blacklisted.contains(node)) << "blacklisted node " << node << " fetched";
    std::size_t attempts = 0;
    for (; i < log.size() && log[i].location == loc; ++i) {
      EXPECT_EQ(log[i].node, node);
      EXPECT_EQ(log[i].fault, net::FaultClass::kTransient);
      if (attempts > 0) nominal += 200.0 * static_cast<double>(1u << (attempts - 1));
      ++attempts;
      if (++node_faults[node] == 8) blacklisted.insert(node);
    }
    // Four attempts, unless the node's 8th fault cut them short.
    if (!blacklisted.contains(node)) {
      EXPECT_EQ(attempts, 4u) << "location " << loc;
    }
    EXPECT_LE(attempts, 4u) << "location " << loc;
    retries += attempts - 1;
  }
  EXPECT_EQ(outcome.retries, retries);
  EXPECT_EQ(outcome.blacklisted_nodes, blacklisted.size());
  EXPECT_GT(blacklisted.size(), 0u);
  // Some blacklisted node still owned locations: they were written off
  // unfetched.
  EXPECT_LT(fetched.size(), outcome.result.surviving_locations);
  // Zero latency: the elapsed time is the backoffs alone, each within 25%
  // of its nominal delay, and jittered.
  EXPECT_GE(static_cast<double>(outcome.sim_elapsed_us), 0.75 * nominal);
  EXPECT_LE(static_cast<double>(outcome.sim_elapsed_us), 1.25 * nominal);
  EXPECT_NE(static_cast<double>(outcome.sim_elapsed_us), nominal);
}

TEST(ResilientCollector, EachBackoffIsItsNominalDelayWithin25Percent) {
  // One stored location and a fault on half the attempts: the elapsed
  // time of a zero-latency read is the sum of its r backoffs, and r = 1
  // shows the first backoff alone.
  net::ChordNetwork overlay(TestHarness::make_net(1));
  const PrioritySpec spec({4});
  const PriorityDistribution dist(std::vector<double>{1.0});
  ProtocolParams params;
  params.block_size = 6;
  net::FaultSpec faults;
  faults.transient_rate = 0.5;
  faults.mean_latency_us = 0;
  std::size_t singles = 0, wide = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Predistribution pd(overlay, spec, dist, params);
    pd.disseminate(codes::SourceData<Field>::random(spec.total(), 6, rng), rng);
    FaultyChannel channel(pd, net::FaultPlan(faults, overlay.nodes(), rng));
    codes::PriorityDecoder<Field> decoder(params.scheme, spec, params.block_size);
    const CollectionOutcome outcome = collect(channel, decoder, {}, rng);
    ASSERT_LE(outcome.retries, 3u);
    double nominal = 0;
    for (std::size_t k = 0; k < outcome.retries; ++k) nominal += 200.0 * (1u << k);
    const auto elapsed = static_cast<double>(outcome.sim_elapsed_us);
    EXPECT_GE(elapsed, 0.75 * nominal);
    EXPECT_LE(elapsed, 1.25 * nominal);
    if (outcome.retries == 1) {
      ++singles;
      if (std::abs(elapsed - 200.0) > 25.0) ++wide;
    }
  }
  // The jitter is drawn, and it spans the whole +-25%, not a narrower band.
  EXPECT_GT(singles, 8u);
  EXPECT_GT(wide, 0u);
}

TEST(ResilientCollector, SlowNodesTriggerHedges) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.slow_fraction = 0.5;
  faults.slow_multiplier = 64.0;
  faults.mean_latency_us = 1000;  // slow draws land far beyond the deadline
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  const CollectionOutcome outcome = collect(channel, decoder, {}, h.rng);
  EXPECT_GT(outcome.hedges, 0u);
  EXPECT_GT(outcome.sim_elapsed_us, 0u);
  // Hedging costs nothing correctness-wise: everything still decodes.
  EXPECT_EQ(outcome.result.decoded_levels, 3u);
  h.expect_verified(decoder);
}

TEST(ResilientCollector, MidCollectionCrashesLoseBlocksNotLevels) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.crash_rate = 0.1;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  const CollectionOutcome outcome = collect(channel, decoder, {}, h.rng);
  EXPECT_GT(outcome.faults.crashes, 0u);
  EXPECT_GT(outcome.blocks_lost, 0u);
  EXPECT_GT(channel.crashed_nodes(), 0u);
  // 60 locations for 20 unknowns: ~10% crash losses leave plenty of margin.
  EXPECT_EQ(outcome.result.decoded_levels, 3u);
  h.expect_verified(decoder);
}

TEST(ResilientCollector, TargetLevelsStillStopsEarlyUnderFaults) {
  // Corruption, timeouts and slow nodes: retries, hedges and deferrals all
  // read the one planned order (levels 1, 0, then 2 for a level-2 read). A
  // hedge is logged before the slow reply that triggered it, so a first
  // attempt may come one entry ahead of a lower-ranked one, never further.
  std::size_t hedges = 0, rejections = 0;
  for (const Scheme scheme : {Scheme::kPlc, Scheme::kSlc}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      SCOPED_TRACE(::testing::Message() << codes::to_string(scheme) << " seed=" << seed);
      FaultHarness h(scheme, 0.0, seed);
      net::FaultSpec faults;
      faults.corrupt_rate = 0.2;
      faults.timeout_rate = 0.1;
      faults.slow_fraction = 0.5;
      faults.slow_multiplier = 64.0;
      faults.mean_latency_us = 1000;
      auto channel = h.channel(faults);
      auto decoder = h.decoder();
      CollectorOptions options;
      options.target_levels = 2;
      options.trace = true;
      const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
      EXPECT_TRUE(outcome.result.target_met);
      EXPECT_GE(outcome.result.decoded_levels, 2u);
      EXPECT_LT(outcome.result.blocks_retrieved, 60u);
      h.expect_verified(decoder);
      hedges += outcome.hedges;

      std::unordered_set<net::LocationId> tried;
      std::size_t high = 0, previous = 0;  // highest rank before the previous first attempt
      for (const FetchAttempt& a : outcome.fetch_log) {
        if (!tried.insert(a.location).second) continue;
        const std::size_t level = h.pd.level_of_location(a.location);
        const std::size_t rank = level < 2 ? 1 - level : level;
        EXPECT_GE(rank, high) << a.location;
        high = std::max(high, previous);
        previous = rank;
      }
      // A wire-rejected location is deferred, never refetched next.
      for (std::size_t i = 0; i + 1 < outcome.fetch_log.size(); ++i) {
        if (!outcome.fetch_log[i].wire_rejected) continue;
        ++rejections;
        EXPECT_NE(outcome.fetch_log[i + 1].location, outcome.fetch_log[i].location);
      }
    }
  }
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(rejections, 0u);
}

// --- satellite regression: CRC rejection routes around the bad node ------

TEST(ResilientCollector, WireRejectedBlockRetriesAgainstADifferentNode) {
  FaultHarness h;
  obs::set_enabled(true);
  const std::uint64_t corrupt_before = obs::counter("collector.corrupt_blocks").value();
  net::FaultSpec faults;
  faults.corrupt_rate = 0.5;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.trace = true;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  ASSERT_GT(outcome.faults.wire_errors, 0u);
  // Every CRC rejection increments collector.corrupt_blocks...
  EXPECT_EQ(obs::counter("collector.corrupt_blocks").value() - corrupt_before,
            outcome.faults.wire_errors);
  // ...and the rejected frame never reached the decoder: only delivered
  // frames count as retrieved, and everything decoded verifies.
  std::size_t delivered = 0;
  for (const FetchAttempt& a : outcome.fetch_log) delivered += a.delivered ? 1 : 0;
  EXPECT_EQ(delivered, outcome.result.blocks_retrieved);
  h.expect_verified(decoder);
  // A wire rejection defers the location: the immediately following fetch
  // targets a *different* location — i.e. the collector routes around the
  // node that just served garbage instead of hammering it in place.
  std::size_t rejections_followed = 0, different_node = 0;
  for (std::size_t i = 0; i + 1 < outcome.fetch_log.size(); ++i) {
    if (!outcome.fetch_log[i].wire_rejected) continue;
    ++rejections_followed;
    EXPECT_NE(outcome.fetch_log[i + 1].location, outcome.fetch_log[i].location);
    different_node += outcome.fetch_log[i + 1].node != outcome.fetch_log[i].node ? 1 : 0;
  }
  ASSERT_GT(rejections_followed, 0u);
  EXPECT_GT(different_node, 0u);
}

// --- partial reads: the level plan ------------------------------------------

TEST(PartialRead, SlcNeverFetchesALevelAtOrAboveTheTarget) {
  // No SLC block straddles a level boundary, so a block of level >= k
  // cannot help the first k levels: the read leaves those locations alone
  // even when churn leaves too few survivors to meet the target.
  std::size_t reads = 0, unmet = 0;
  for (const std::size_t k : {1u, 2u}) {
    for (const double churn : {0.5, 0.8, 0.9}) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        FaultHarness h(Scheme::kSlc, churn, seed);
        auto decoder = h.decoder();
        CollectorOptions options;
        options.target_levels = k;
        options.trace = true;
        const CollectionOutcome outcome = collect(h.pd, decoder, options, h.rng);
        for (const FetchAttempt& a : outcome.fetch_log) {
          EXPECT_LT(h.pd.level_of_location(a.location), k) << "k=" << k << " seed=" << seed;
        }
        EXPECT_EQ(outcome.blocks_lost, 0u);  // a dropped location is untried, not lost
        ++reads;
        unmet += outcome.result.target_met ? 0 : 1;
      }
    }
  }
  EXPECT_GT(unmet, 0u);
  EXPECT_LT(unmet, reads);
}

TEST(PartialRead, PlcFetchesTheTopTargetLevelFirst) {
  // Target 2: every level-1 block covers the whole target prefix b_2, so
  // level 1 comes before level 0, and no level >= 2 is fetched while a
  // location of level 0 or 1 is still pending.
  std::size_t both_lower = 0, beyond = 0;
  for (const double churn : {0.0, 0.5, 0.7}) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << "churn=" << churn << " seed=" << seed);
      FaultHarness h(Scheme::kPlc, churn, seed);
      const std::vector<std::size_t> counts = h.survivor_counts();
      auto decoder = h.decoder();
      CollectorOptions options;
      options.target_levels = 2;
      options.trace = true;
      const CollectionOutcome outcome = collect(h.pd, decoder, options, h.rng);
      std::size_t fetched[2] = {0, 0};
      for (const FetchAttempt& a : outcome.fetch_log) {
        const std::size_t level = h.pd.level_of_location(a.location);
        if (level == 1) {
          EXPECT_EQ(fetched[0], 0u) << "level 1 after level 0";
        }
        if (level >= 2) {
          EXPECT_EQ(fetched[0], counts[0]);
          EXPECT_EQ(fetched[1], counts[1]);
        } else {
          ++fetched[level];
        }
      }
      both_lower += fetched[0] > 0 && fetched[1] > 0 ? 1 : 0;
      beyond += outcome.fetch_log.size() > fetched[0] + fetched[1] ? 1 : 0;
      h.expect_verified(decoder);
    }
  }
  // Both clauses were exercised.
  EXPECT_GT(both_lower, 0u);
  EXPECT_GT(beyond, 0u);
}

TEST(PartialRead, MeetsTheTargetWheneverTheSurvivorsCan) {
  // On a fault-free channel the plan gives up no target: a met target has
  // the Theorem-1 counts, and a missed one is missed by a full read of
  // the same survivors too, so it misses only by GF(256) rank deficiency.
  for (const Scheme scheme : {Scheme::kPlc, Scheme::kSlc}) {
    for (const std::size_t k : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message() << codes::to_string(scheme) << " k=" << k);
      std::size_t reads = 0, met = 0, deficient = 0;
      for (const double churn : {0.4, 0.6, 0.75, 0.85}) {
        for (std::uint64_t seed = 0; seed < 25; ++seed) {
          FaultHarness h(scheme, churn, seed);
          const std::size_t predicted =
              analysis::levels_from_counts(scheme, h.spec, h.survivor_counts());
          auto partial = h.decoder();
          CollectorOptions options;
          options.target_levels = k;
          const CollectionResult read = collect(h.pd, partial, options, h.rng).result;
          auto all = h.decoder();
          const CollectionResult full = collect(h.pd, all, {}, h.rng).result;
          if (read.target_met) {
            EXPECT_GE(predicted, k) << "churn=" << churn << " seed=" << seed;
          }
          EXPECT_EQ(read.target_met, full.decoded_levels >= k)
              << "churn=" << churn << " seed=" << seed;
          ++reads;
          met += read.target_met ? 1 : 0;
          deficient += predicted >= k && !read.target_met ? 1 : 0;
        }
      }
      EXPECT_GT(met, 0u);
      EXPECT_LT(met, reads);
      EXPECT_LE(deficient, reads / 20);
    }
  }
}

// --- integrity: fingerprint manifest against silent corruption -----------

/// Flatten the harness's source data and fingerprint it.
util::FingerprintManifest make_manifest(const FaultHarness& h,
                                        std::uint64_t seed = 4242) {
  std::vector<std::uint8_t> flat;
  for (std::size_t j = 0; j < h.spec.total(); ++j) {
    const auto row = h.source.block(j);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return util::build_manifest(seed, flat, h.params.block_size);
}

TEST(IntegrityCollector, CleanChannelWithManifestHasZeroViolations) {
  FaultHarness h;
  const auto manifest = make_manifest(h);
  FaultyChannel channel(h.pd);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.manifest = &manifest;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  EXPECT_EQ(outcome.faults.integrity_violations, 0u);
  EXPECT_EQ(outcome.quarantined_nodes, 0u);
  EXPECT_EQ(outcome.result.decoded_levels, 3u);
  h.expect_verified(decoder);
}

TEST(IntegrityCollector, BitRotIsDetectedLocalizedAndQuarantined) {
  FaultHarness h;
  const auto manifest = make_manifest(h);
  net::FaultSpec faults;
  faults.bitrot_rate = 1.0;  // every stored replica rots on first touch
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.manifest = &manifest;
  options.trace = true;
  CollectionOutcome outcome;
  ASSERT_NO_THROW(outcome = collect(channel, decoder, options, h.rng));
  // Every delivered frame was rotten; the fingerprint caught each one and
  // not a single wrong byte reached the decoder.
  EXPECT_GT(outcome.faults.integrity_violations, 0u);
  EXPECT_GT(outcome.quarantined_nodes, 0u);
  EXPECT_EQ(outcome.result.blocks_retrieved, 0u);
  EXPECT_EQ(outcome.result.decoded_levels, 0u);
  EXPECT_TRUE(outcome.degraded);
  // Localization: each violation names a location the channel really rotted.
  for (const FetchAttempt& a : outcome.fetch_log) {
    if (a.integrity_rejected) {
      EXPECT_TRUE(channel.location_rotten(a.location));
    }
    EXPECT_FALSE(a.delivered);
  }
  h.expect_verified(decoder);  // vacuous but proves no garbage decoded
}

TEST(IntegrityCollector, ByzantineMinorityIsLocalizedAndDecodingSurvives) {
  FaultHarness h;
  const auto manifest = make_manifest(h);
  net::FaultSpec faults;
  faults.byzantine_fraction = 0.2;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.manifest = &manifest;
  options.trace = true;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  // Violations localize exactly: only genuinely Byzantine nodes are ever
  // accused, and every quarantine followed a real forgery.
  std::size_t violations = 0;
  for (const FetchAttempt& a : outcome.fetch_log) {
    if (!a.integrity_rejected) continue;
    ++violations;
    EXPECT_TRUE(channel.plan().profile(a.node).byzantine) << a.node;
  }
  EXPECT_EQ(violations, outcome.faults.integrity_violations);
  EXPECT_GT(outcome.faults.integrity_violations, 0u);
  EXPECT_GT(outcome.quarantined_nodes, 0u);
  // 60 locations for 20 unknowns: the honest majority still decodes all
  // levels, and every decoded byte is correct.
  EXPECT_EQ(outcome.result.decoded_levels, 3u);
  h.expect_verified(decoder);
}

TEST(IntegrityCollector, WithoutAManifestForgedPayloadsPoisonTheDecode) {
  // The counterfactual that makes the manifest load-bearing: an all-
  // Byzantine channel serves CRC-valid forgeries, the decoder happily
  // solves the forged system, and the output is wrong.
  FaultHarness h;
  net::FaultSpec faults;
  faults.byzantine_fraction = 1.0;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  const CollectionOutcome outcome = collect(channel, decoder, {}, h.rng);
  EXPECT_EQ(outcome.faults.integrity_violations, 0u);  // nothing to catch it
  ASSERT_EQ(outcome.result.decoded_levels, 3u);
  EXPECT_GT(wrong_decode_fraction(decoder, h.source), 0.0);
}

TEST(IntegrityCollector, MixedSilentAndLoudFaultsNeverYieldWrongBytes) {
  // The acceptance criterion: under any injected silent-corruption mix the
  // decoder must never return wrong source bytes.
  FaultHarness h;
  const auto manifest = make_manifest(h);
  net::FaultSpec faults;
  faults.bitrot_rate = 0.1;
  faults.byzantine_fraction = 0.15;
  faults.corrupt_rate = 0.1;
  faults.truncate_rate = 0.05;
  faults.timeout_rate = 0.1;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.manifest = &manifest;
  CollectionOutcome outcome;
  ASSERT_NO_THROW(outcome = collect(channel, decoder, options, h.rng));
  h.expect_verified(decoder);
  EXPECT_GT(outcome.faults.integrity_violations, 0u);
}

TEST(IntegrityCollector, ManifestMustMatchTheSpec) {
  FaultHarness h;
  util::FingerprintManifest wrong;
  wrong.seed = 1;
  wrong.block_size = h.params.block_size;
  wrong.fingerprints.resize(h.spec.total() + 1);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.manifest = &wrong;
  EXPECT_THROW(collect(h.pd, decoder, options, h.rng), PreconditionError);
}

}  // namespace
}  // namespace prlc::proto
