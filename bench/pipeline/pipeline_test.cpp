#include "pipeline.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace prlc::bench::pipeline {
namespace {

std::vector<double> shuffled_ranks(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  Rng rng(n);
  rng.shuffle(std::span<double>(v));
  return v;
}

TEST(TailRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(tail_of(shuffled_ranks(9)).has_value());
  EXPECT_FALSE(tail_of(shuffled_ranks(10)).has_value());
  EXPECT_FALSE(tail_of(shuffled_ranks(19)).has_value());

  const auto t20 = tail_of(shuffled_ranks(20));
  ASSERT_TRUE(t20.has_value());
  EXPECT_EQ(t20->percentile, 50.0);
  EXPECT_EQ(t20->value, 10.0);  // 10 samples (11..20) beyond it

  const auto t200 = tail_of(shuffled_ranks(200));
  ASSERT_TRUE(t200.has_value());
  EXPECT_EQ(t200->percentile, 95.0);
  EXPECT_EQ(t200->value, 190.0);

  const auto t2000 = tail_of(shuffled_ranks(2000));
  ASSERT_TRUE(t2000.has_value());
  EXPECT_EQ(t2000->percentile, 99.0);  // p99.9 would leave only 2 beyond
  EXPECT_EQ(t2000->value, 1980.0);
}

ObjectShape tiny_shape() {
  ObjectShape shape;
  shape.levels = 2;
  shape.per_level = 2;  // N = 4
  shape.block_size = 3;
  shape.nodes = 8;
  shape.locations = 4;
  shape.churn = 0.0;
  shape.target_levels = 2;
  shape.pool = 1;
  return shape;
}

TEST(AxpyBytes, MatchesAHandCountedDeployment) {
  // PLC, uniform over two levels: two level-0 locations combine the two
  // level-0 blocks, two level-1 locations combine all four. With every
  // node alive each source block reaches each location once.
  ObjectFixture fx(tiny_shape(), 3);
  const LifecycleSample s = run_lifecycle(fx, 3, 0, false);
  ASSERT_EQ(s.store.failed_routes, 0u);
  EXPECT_EQ(s.store.messages, 2u * 2u + 2u * 4u);
  EXPECT_EQ(s.axpy_bytes, (2u * 2u + 2u * 4u) * 3u);
  EXPECT_EQ(axpy_bytes(fx.predist()), s.axpy_bytes);
}

TEST(Inputs, SameSeedSameSourcesAndFaultPlans) {
  const ObjectShape shape = workload_spec(Workload::kFaultyL1).object;
  ObjectFixture a(shape, 5), b(shape, 5), c(shape, 6);
  for (std::size_t i = 0; i < a.pool(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.source_bytes(i), b.source_bytes(i)));
    EXPECT_FALSE(std::ranges::equal(a.source_bytes(i), c.source_bytes(i)));
  }

  // Everything a plan decides: per-node character and per-attempt draws.
  const auto plan_trace = [&](std::uint64_t seed, std::uint64_t op) {
    Rng rng(op_seed(seed, op));
    const net::FaultPlan plan(shape.faults, shape.nodes, rng);
    std::vector<int> trace;
    for (net::NodeId v = 0; v < shape.nodes; ++v) {
      const net::NodeFaultProfile& p = plan.profile(v);
      trace.push_back(p.slow + 2 * p.flaky + 4 * p.byzantine);
      trace.push_back(static_cast<int>(plan.draw_fault(v, rng)));
    }
    return trace;
  };
  EXPECT_EQ(plan_trace(5, 7), plan_trace(5, 7));
  EXPECT_NE(plan_trace(5, 7), plan_trace(6, 7));
  EXPECT_NE(plan_trace(5, 7), plan_trace(5, 8));
}

TEST(Verify, TamperedDecodedByteIsAFailedOp) {
  ObjectShape shape = tiny_shape();
  shape.per_level = 4;
  shape.block_size = 16;
  shape.nodes = 40;
  shape.locations = 24;
  ObjectFixture fx(shape, 9);
  LifecycleSample s = run_lifecycle(fx, 9, 0, false);
  ASSERT_EQ(s.decoded.size(), 8u * 16u);  // every block decodes without churn

  Tally tally;
  tally.record(lifecycle_correct(fx, s));
  s.decoded[37] ^= 0x01;
  tally.record(lifecycle_correct(fx, s));
  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.failed, 1u);
}

TEST(Verify, UncaughtSilentFaultIsAFailedOp) {
  ObjectFixture fx(tiny_shape(), 4);
  LifecycleSample s = run_lifecycle(fx, 4, 0, false);
  ASSERT_TRUE(lifecycle_correct(fx, s));
  ++s.injected.bitrot_frames;  // injected, yet the collector saw no violation
  EXPECT_FALSE(lifecycle_correct(fx, s));
}

}  // namespace
}  // namespace prlc::bench::pipeline
