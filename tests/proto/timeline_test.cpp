#include "proto/timeline.h"

#include <gtest/gtest.h>

#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "util/check.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;

struct World {
  PrioritySpec spec{std::vector<std::size_t>{3, 5, 8}};  // N = 16
  PriorityDistribution dist{PriorityDistribution::uniform(3)};
  net::ChordNetwork overlay;
  Rng rng{101};

  explicit World(std::size_t locations = 160) : overlay(make_net(locations)) {}

  static net::ChordParams make_net(std::size_t locations) {
    net::ChordParams p;
    p.nodes = 100;
    p.locations = locations;
    p.seed = 51;
    return p;
  }

  codes::SourceData<Field> snapshot() {
    return codes::SourceData<Field>::random(spec.total(), 16, rng);
  }

  TimelineParams params(RetentionPolicy policy, std::size_t window = 4) {
    TimelineParams p;
    p.policy = policy;
    p.window = window;
    return p;
  }
};

TEST(Timeline, FirstRoundDecodesFully) {
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist, w.params(RetentionPolicy::kSlidingWindow));
  const auto snap = w.snapshot();
  const auto stats = store.ingest(snap, w.rng);
  EXPECT_EQ(stats.round_id, 0u);
  EXPECT_EQ(stats.locations_assigned, 40u);  // 160 / window 4
  const auto q = store.query(0, w.rng);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->decoded_levels, 3u);
  EXPECT_EQ(q->blocks_retrievable, 40u);
}

TEST(Timeline, SlidingWindowSharesEqually) {
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist, w.params(RetentionPolicy::kSlidingWindow));
  for (int r = 0; r < 4; ++r) store.ingest(w.snapshot(), w.rng);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto q = store.query(r, w.rng);
    ASSERT_TRUE(q.has_value()) << r;
    EXPECT_EQ(q->locations_allotted, 40u) << r;
    EXPECT_EQ(q->decoded_levels, 3u) << r;  // 40 blocks for 16 unknowns
  }
}

TEST(Timeline, EvictionBeyondWindow) {
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist,
                      w.params(RetentionPolicy::kSlidingWindow, 3));
  for (int r = 0; r < 5; ++r) store.ingest(w.snapshot(), w.rng);
  EXPECT_EQ(store.retained_rounds(), (std::vector<std::size_t>{4, 3, 2}));
  EXPECT_EQ(store.query(0, w.rng), std::nullopt);
  EXPECT_EQ(store.query(1, w.rng), std::nullopt);
  ASSERT_TRUE(store.query(2, w.rng).has_value());
}

TEST(Timeline, DecaySharesShrinkWithAge) {
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist,
                      w.params(RetentionPolicy::kExponentialDecay, 4));
  for (int r = 0; r < 4; ++r) store.ingest(w.snapshot(), w.rng);
  std::vector<std::size_t> shares;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto q = store.query(r, w.rng);
    ASSERT_TRUE(q.has_value());
    shares.push_back(q->locations_allotted);
  }
  // rounds 0..3 have ages 3..0: shares must decrease with age.
  EXPECT_LT(shares[0], shares[1]);
  EXPECT_LT(shares[1], shares[2]);
  EXPECT_LT(shares[2], shares[3]);
  // Newest ~ budget * 1/(1+.5+.25+.125) ~ 85 of 160.
  EXPECT_NEAR(static_cast<double>(shares[3]), 160 / 1.875, 3.0);
}

TEST(Timeline, DecayAgesGracefullyByPriority) {
  // With heavy churn, old rounds (small budgets) keep high levels only —
  // the partial-recovery property applied to aging.
  World w(240);
  w.dist = PriorityDistribution({0.5, 0.3, 0.2});
  TimelineStore store(w.overlay, w.spec, w.dist,
                      w.params(RetentionPolicy::kExponentialDecay, 4));
  for (int r = 0; r < 4; ++r) {
    store.ingest(w.snapshot(), w.rng);
    net::kill_uniform_fraction(w.overlay, 0.25, w.rng);
  }
  const auto oldest = store.query(0, w.rng);
  const auto newest = store.query(3, w.rng);
  ASSERT_TRUE(oldest.has_value());
  ASSERT_TRUE(newest.has_value());
  EXPECT_LE(oldest->decoded_levels, newest->decoded_levels);
  EXPECT_LE(oldest->blocks_retrievable, newest->blocks_retrievable);
}

TEST(Timeline, RecyclingAccountsLocations) {
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist,
                      w.params(RetentionPolicy::kExponentialDecay, 4));
  store.ingest(w.snapshot(), w.rng);
  const auto s2 = store.ingest(w.snapshot(), w.rng);
  // Round 0 had the age-0 share (~85); as age 1 it keeps ~43: the rest is
  // recycled into round 1's budget.
  EXPECT_GT(s2.locations_recycled, 30u);
  EXPECT_GT(s2.locations_assigned, 60u);
}

TEST(Timeline, ShrinkingIsPriorityAware) {
  // After a decay shrink, the aged round must have kept its high-priority
  // blocks and shed the deep levels: its decodable prefix should still
  // cover level 1 even though most of its budget is gone.
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist,
                      w.params(RetentionPolicy::kExponentialDecay, 4));
  store.ingest(w.snapshot(), w.rng);
  for (int r = 0; r < 3; ++r) store.ingest(w.snapshot(), w.rng);
  const auto aged = store.query(0, w.rng);
  ASSERT_TRUE(aged.has_value());
  EXPECT_EQ(aged->age, 3u);
  // Age-3 share is ~160/16 = 10 locations; level 1 (3 unknowns, ~1/3 of
  // the original partition's front) must still decode.
  EXPECT_GE(aged->decoded_levels, 1u);
  EXPECT_LT(aged->blocks_retrievable, 20u);
}

TEST(Timeline, QueryUnknownRound) {
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist, w.params(RetentionPolicy::kSlidingWindow));
  EXPECT_EQ(store.query(0, w.rng), std::nullopt);
  store.ingest(w.snapshot(), w.rng);
  EXPECT_EQ(store.query(99, w.rng), std::nullopt);
}

TEST(Timeline, ValidatesConstructionAndInput) {
  World w;
  EXPECT_THROW(
      TimelineStore(w.overlay, w.spec, PriorityDistribution::uniform(2),
                    w.params(RetentionPolicy::kSlidingWindow)),
      PreconditionError);
  TimelineParams zero_window;
  zero_window.window = 0;
  EXPECT_THROW(TimelineStore(w.overlay, w.spec, w.dist, zero_window), PreconditionError);
  TimelineStore store(w.overlay, w.spec, w.dist, w.params(RetentionPolicy::kSlidingWindow));
  const auto wrong = codes::SourceData<Field>::random(5, 16, w.rng);
  EXPECT_THROW(store.ingest(wrong, w.rng), PreconditionError);
}

TEST(Timeline, RoundIsAStoreReadThroughCollect) {
  // Window 1: the round holds the whole budget, claimed last location
  // first. A Predistribution over the same overlay locations in the same
  // order, from an equal Rng state, draws exactly what the round draws,
  // and collect() on it reads exactly what query() reads.
  World w;
  TimelineStore store(w.overlay, w.spec, w.dist, w.params(RetentionPolicy::kSlidingWindow, 1));
  std::vector<net::LocationId> at(w.overlay.locations());
  for (std::size_t i = 0; i < at.size(); ++i) {
    at[i] = static_cast<net::LocationId>(at.size() - 1 - i);
  }
  Predistribution pd(w.overlay, w.spec, w.dist, ProtocolParams{}, at);
  const auto snap = w.snapshot();
  Rng round_rng(7);
  Rng store_rng(7);
  const IngestStats ingested = store.ingest(snap, round_rng);
  const DisseminationStats stored = pd.disseminate(snap, store_rng);
  EXPECT_EQ(ingested.locations_assigned, at.size());
  EXPECT_EQ(ingested.messages, stored.messages);
  EXPECT_EQ(ingested.total_hops, stored.total_hops);

  net::kill_uniform_fraction(w.overlay, 0.8, w.rng);
  const auto q = store.query(0, round_rng);
  codes::PriorityDecoder<Field> decoder(codes::Scheme::kPlc, w.spec, 16);
  const CollectionResult read = collect(pd, decoder, {}, store_rng).result;
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->blocks_retrievable, read.surviving_locations);
  EXPECT_EQ(q->decoded_levels, read.decoded_levels);
  EXPECT_EQ(q->decoded_blocks, read.decoded_blocks);
  EXPECT_EQ(round_rng(), store_rng());
}

}  // namespace
}  // namespace prlc::proto
