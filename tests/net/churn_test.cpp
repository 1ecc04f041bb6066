#include "net/churn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "net/chord_network.h"
#include "net/sensor_network.h"
#include "util/check.h"

namespace prlc::net {
namespace {

TEST(Churn, UniformFractionKillsExactCount) {
  ChordParams p;
  p.nodes = 200;
  p.locations = 5;
  p.seed = 3;
  ChordNetwork net(p);
  Rng rng(91);
  const auto killed = kill_uniform_fraction(net, 0.25, rng);
  EXPECT_EQ(killed.size(), 50u);
  EXPECT_EQ(net.alive_count(), 150u);
  for (NodeId v : killed) EXPECT_FALSE(net.alive(v));
}

TEST(Churn, UniformFractionDrawsOneSampleOverAliveIds) {
  // The wave's draws: the alive ids in id order, then one
  // sample_without_replacement of floor(fraction * alive) indices, with
  // the victims killed in sample order. Every committed baseline of the
  // wave sweeps depends on exactly these draws.
  ChordParams p;
  p.nodes = 40;
  p.locations = 5;
  p.seed = 6;
  ChordNetwork net(p);
  net.fail_node(3);
  net.fail_node(17);  // 38 alive
  std::vector<NodeId> alive;
  for (NodeId v = 0; v < 40; ++v) {
    if (net.alive(v)) alive.push_back(v);
  }
  EXPECT_EQ(net.alive_nodes(), alive);

  Rng churn_rng(999), manual_rng(999);
  const auto killed = kill_uniform_fraction(net, 0.25, churn_rng);
  std::vector<NodeId> manual;
  // floor(0.25 * 38) = 9 victims.
  for (const std::size_t idx : manual_rng.sample_without_replacement(alive.size(), 9)) {
    manual.push_back(alive[idx]);
  }
  EXPECT_EQ(killed, manual);
  // Both Rngs must have consumed the same draws.
  EXPECT_EQ(churn_rng(), manual_rng());
}

TEST(Churn, UniformFractionOnAlreadyChurnedNetwork) {
  ChordParams p;
  p.nodes = 100;
  p.locations = 5;
  p.seed = 4;
  ChordNetwork net(p);
  Rng rng(92);
  kill_uniform_fraction(net, 0.5, rng);
  EXPECT_EQ(net.alive_count(), 50u);
  // A second 50% kill applies to the *remaining* population.
  kill_uniform_fraction(net, 0.5, rng);
  EXPECT_EQ(net.alive_count(), 25u);
}

TEST(Churn, ZeroAndFullFraction) {
  ChordParams p;
  p.nodes = 60;
  p.locations = 5;
  p.seed = 5;
  ChordNetwork net(p);
  Rng rng(93);
  EXPECT_TRUE(kill_uniform_fraction(net, 0.0, rng).empty());
  EXPECT_EQ(net.alive_count(), 60u);
  kill_uniform_fraction(net, 1.0, rng);
  EXPECT_EQ(net.alive_count(), 0u);
}

TEST(Churn, FractionValidated) {
  ChordParams p;
  p.nodes = 10;
  p.locations = 2;
  ChordNetwork net(p);
  Rng rng(94);
  EXPECT_THROW(kill_uniform_fraction(net, -0.1, rng), PreconditionError);
  EXPECT_THROW(kill_uniform_fraction(net, 1.1, rng), PreconditionError);
}

TEST(Churn, ExponentialDeathProbability) {
  EXPECT_DOUBLE_EQ(exponential_death_probability(10.0, 0.0), 0.0);
  EXPECT_NEAR(exponential_death_probability(10.0, 10.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(exponential_death_probability(10.0, 1000.0), 1.0, 1e-12);
  EXPECT_THROW(exponential_death_probability(0.0, 1.0), PreconditionError);
  EXPECT_THROW(exponential_death_probability(1.0, -1.0), PreconditionError);
}

TEST(Churn, ExponentialDeathProbabilityEdgeCases) {
  // The guards must reject every flavour of nonsense lifetime/elapsed,
  // not just the exact-zero case.
  EXPECT_THROW(exponential_death_probability(-5.0, 1.0), PreconditionError);
  EXPECT_THROW(exponential_death_probability(1.0, -1e-9), PreconditionError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(exponential_death_probability(nan, 1.0), PreconditionError);
  EXPECT_THROW(exponential_death_probability(1.0, nan), PreconditionError);
  // Infinite inputs are legal limits with well-defined probabilities.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(exponential_death_probability(inf, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(exponential_death_probability(1.0, inf), 1.0);
  // Tiny lifetimes / huge elapsed stay clamped inside [0, 1].
  const double p = exponential_death_probability(1e-300, 1e300);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(Churn, ApplyExponentialChurnRejectsBadArgsWithoutKilling) {
  SensorParams p;
  p.nodes = 50;
  p.locations = 5;
  p.seed = 8;
  SensorNetwork net(p);
  Rng rng(97);
  EXPECT_THROW(apply_exponential_churn(net, 0.0, 1.0, rng), PreconditionError);
  EXPECT_THROW(apply_exponential_churn(net, -2.0, 1.0, rng), PreconditionError);
  EXPECT_THROW(apply_exponential_churn(net, 1.0, -1.0, rng), PreconditionError);
  // The precondition fires before any node is touched.
  EXPECT_EQ(net.alive_count(), 50u);
}

TEST(Churn, ZeroElapsedKillsNothing) {
  SensorParams p;
  p.nodes = 50;
  p.locations = 5;
  p.seed = 9;
  SensorNetwork net(p);
  Rng rng(98);
  EXPECT_TRUE(apply_exponential_churn(net, 10.0, 0.0, rng).empty());
  EXPECT_EQ(net.alive_count(), 50u);
}

TEST(Churn, ExponentialChurnMatchesExpectation) {
  SensorParams p;
  p.nodes = 2000;
  p.locations = 5;
  p.seed = 6;
  SensorNetwork net(p);
  Rng rng(95);
  const auto killed = apply_exponential_churn(net, 10.0, 5.0, rng);
  const double expect = 2000 * (1.0 - std::exp(-0.5));
  EXPECT_NEAR(static_cast<double>(killed.size()), expect, 4 * std::sqrt(expect));
  EXPECT_EQ(net.alive_count(), 2000u - killed.size());
}

TEST(Churn, ExponentialChurnSkipsDeadNodes) {
  SensorParams p;
  p.nodes = 100;
  p.locations = 5;
  p.seed = 7;
  SensorNetwork net(p);
  Rng rng(96);
  kill_uniform_fraction(net, 1.0, rng);
  const auto killed = apply_exponential_churn(net, 1.0, 100.0, rng);
  EXPECT_TRUE(killed.empty());
}

}  // namespace
}  // namespace prlc::net
