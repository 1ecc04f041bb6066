#include "codes/replication.h"

#include <gtest/gtest.h>

#include "analysis/coupon.h"
#include "util/check.h"
#include "util/stats.h"

namespace prlc::codes {
namespace {

TEST(Replication, ReplicaCarriesIndexAndLevel) {
  Rng rng(211);
  const PrioritySpec spec({2, 3});
  const ReplicationEncoder enc(spec);
  for (int t = 0; t < 50; ++t) {
    const auto r = enc.replicate(1, rng);
    EXPECT_EQ(r.level, 1u);
    EXPECT_GE(r.source_index, 2u);
    EXPECT_LT(r.source_index, 5u);
  }
}

TEST(Replication, CollectorTracksDistinctBlocks) {
  const PrioritySpec spec({2, 3});
  ReplicationCollector col(spec);
  auto add = [&](std::size_t idx) {
    ReplicaBlock r;
    r.source_index = idx;
    r.level = spec.level_of_block(idx);
    return col.add(r);
  };
  EXPECT_TRUE(add(3));
  EXPECT_EQ(col.distinct_blocks(), 1u);
  EXPECT_FALSE(add(3));  // duplicate
  EXPECT_TRUE(add(0));
  EXPECT_TRUE(add(1));
  EXPECT_TRUE(add(2));
  EXPECT_TRUE(add(4));
  EXPECT_TRUE(col.is_block_decoded(4));
}

TEST(Replication, MatchesCouponCollectorExpectation) {
  // Uniform replication over N blocks == coupon collection; compare the
  // mean distinct count to the closed form.
  Rng rng(212);
  const std::size_t n = 40;
  const PrioritySpec spec({n});
  const ReplicationEncoder enc(spec);
  const auto dist = PriorityDistribution::uniform(1);
  const std::size_t draws = 50;
  RunningStats distinct;
  for (int t = 0; t < 400; ++t) {
    ReplicationCollector col(spec);
    for (std::size_t d = 0; d < draws; ++d) col.add(enc.replicate_random(dist, rng));
    distinct.add(static_cast<double>(col.distinct_blocks()));
  }
  EXPECT_NEAR(distinct.mean(), analysis::coupon_expected_distinct(n, draws),
              4 * distinct.ci95_halfwidth() + 0.05);
}

TEST(Replication, NeedsFarMoreBlocksThanCodingForFullRecovery) {
  Rng rng(213);
  const std::size_t n = 50;
  const PrioritySpec spec({n});
  const ReplicationEncoder enc(spec);
  const auto dist = PriorityDistribution::uniform(1);
  RunningStats draws_needed;
  for (int t = 0; t < 100; ++t) {
    ReplicationCollector col(spec);
    std::size_t draws = 0;
    while (col.distinct_blocks() < n) {
      col.add(enc.replicate_random(dist, rng));
      ++draws;
    }
    draws_needed.add(static_cast<double>(draws));
  }
  // Coupon collector: ~ N H_N = 224.96 for N = 50; coding needs ~ 50.
  EXPECT_GT(draws_needed.mean(), 150.0);
  EXPECT_NEAR(draws_needed.mean(), analysis::coupon_expected_draws(n), 40.0);
}

TEST(Replication, ValidatesInputs) {
  const PrioritySpec spec({2, 3});
  Rng rng(214);
  const ReplicationEncoder enc(spec);
  EXPECT_THROW(enc.replicate(2, rng), PreconditionError);
  EXPECT_THROW(enc.replicate_random(PriorityDistribution::uniform(3), rng),
               PreconditionError);
  ReplicationCollector col(spec);
  ReplicaBlock bad;
  bad.source_index = 5;
  EXPECT_THROW(col.add(bad), PreconditionError);
}

}  // namespace
}  // namespace prlc::codes
