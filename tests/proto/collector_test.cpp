#include "proto/collector.h"

#include <gtest/gtest.h>

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

  explicit TestHarness(Scheme scheme = Scheme::kPlc, std::size_t locations = 60)
      : overlay(make_net(locations)) {
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
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  codes::PriorityDecoder<Field> decoder(s.params.scheme, s.spec, s.params.block_size);
  CollectorOptions opt;
  opt.target_levels = 1;
  const auto result = collect(pd, decoder, opt, s.rng).result;
  EXPECT_TRUE(result.target_met);
  EXPECT_GE(result.decoded_levels, 1u);
  EXPECT_LT(result.blocks_retrieved, 60u);  // stopped before draining
}

TEST(Collector, MaxBlocksCapsRetrieval) {
  TestHarness s;
  Predistribution pd(s.overlay, s.spec, s.dist, s.params);
  const auto source = codes::SourceData<Field>::random(s.spec.total(), 6, s.rng);
  pd.disseminate(source, s.rng);
  codes::PriorityDecoder<Field> decoder(s.params.scheme, s.spec, s.params.block_size);
  CollectorOptions opt;
  opt.max_blocks = 7;
  const auto result = collect(pd, decoder, opt, s.rng).result;
  EXPECT_EQ(result.blocks_retrieved, 7u);
  EXPECT_FALSE(result.target_met);
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
  CollectorOptions zero_blocks;
  zero_blocks.max_blocks = 0;  // previously silently collected nothing
  EXPECT_THROW(collect(pd, decoder, zero_blocks, s.rng), PreconditionError);
  CollectorOptions too_many_levels;
  too_many_levels.target_levels = s.spec.levels() + 1;  // previously never met
  EXPECT_THROW(collect(pd, decoder, too_many_levels, s.rng), PreconditionError);
  CollectorOptions bad_retry;
  bad_retry.retry.max_attempts = 0;
  EXPECT_THROW(collect(pd, decoder, bad_retry, s.rng), PreconditionError);
  CollectorOptions bad_jitter;
  bad_jitter.retry.jitter = 1.5;
  EXPECT_THROW(collect(pd, decoder, bad_jitter, s.rng), PreconditionError);
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
struct FaultHarness : TestHarness {
  Predistribution pd;
  codes::SourceData<Field> source;

  FaultHarness()
      : pd(overlay, spec, dist, params),
        source(codes::SourceData<Field>::random(spec.total(), 6, rng)) {
    pd.disseminate(source, rng);
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
};

}  // namespace

TEST(ResilientCollector, NullChannelMatchesPlainCollect) {
  FaultHarness h;
  auto d1 = h.decoder();
  Rng r1(9);
  const CollectionResult plain = collect(h.pd, d1, {}, r1).result;
  auto d2 = h.decoder();
  Rng r2(9);
  FaultyChannel channel(h.pd);
  const CollectionOutcome outcome = collect(channel, d2, {}, r2);
  EXPECT_EQ(outcome.result.decoded_levels, plain.decoded_levels);
  EXPECT_EQ(outcome.result.blocks_retrieved, plain.blocks_retrieved);
  EXPECT_EQ(outcome.result.innovative_blocks, plain.innovative_blocks);
  EXPECT_EQ(outcome.faults.total(), 0u);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.hedges, 0u);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(r1(), r2());  // identical draw streams
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
  FaultHarness h;
  net::FaultSpec faults;
  faults.transient_rate = 1.0;  // every attempt on every node fails
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  const CollectionOutcome outcome = collect(channel, decoder, {}, h.rng);
  EXPECT_EQ(outcome.result.blocks_retrieved, 0u);
  EXPECT_GT(outcome.blacklisted_nodes, 0u);
  EXPECT_GT(outcome.retries, 0u);
  EXPECT_EQ(outcome.blocks_lost, outcome.result.surviving_locations);
  EXPECT_TRUE(outcome.degraded);
}

TEST(ResilientCollector, SlowNodesTriggerHedges) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.slow_fraction = 0.5;
  faults.slow_multiplier = 64.0;
  faults.mean_latency_us = 1000;  // slow draws land far beyond the deadline
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.retry.hedge_deadline_us = 2000;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  EXPECT_GT(outcome.hedges, 0u);
  EXPECT_GT(outcome.sim_elapsed_us, 0u);
  // Hedging costs nothing correctness-wise: everything still decodes.
  EXPECT_EQ(outcome.result.decoded_levels, 3u);
  h.expect_verified(decoder);
}

TEST(ResilientCollector, HedgingCanBeDisabled) {
  FaultHarness h;
  net::FaultSpec faults;
  faults.slow_fraction = 0.5;
  faults.slow_multiplier = 64.0;
  faults.mean_latency_us = 1000;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.retry.hedging = false;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  EXPECT_EQ(outcome.hedges, 0u);
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
  FaultHarness h;
  net::FaultSpec faults;
  faults.corrupt_rate = 0.2;
  faults.timeout_rate = 0.1;
  auto channel = h.channel(faults);
  auto decoder = h.decoder();
  CollectorOptions options;
  options.target_levels = 1;
  const CollectionOutcome outcome = collect(channel, decoder, options, h.rng);
  EXPECT_TRUE(outcome.result.target_met);
  EXPECT_GE(outcome.result.decoded_levels, 1u);
  EXPECT_LT(outcome.result.blocks_retrieved, 60u);
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
