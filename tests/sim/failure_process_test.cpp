#include "sim/failure_process.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace prlc::sim {
namespace {

/// An alive bitmap with its count, as the cluster simulator keeps them.
struct Slots {
  explicit Slots(std::size_t nodes) : alive(nodes, 1), count(nodes) {}
  void fail(std::uint32_t node) {
    alive[node] = 0;
    --count;
  }
  std::vector<std::uint8_t> alive;
  std::size_t count;
};

TEST(PoissonFailureProcess, EventsAreOrderedAliveAndRoughlyPoisson) {
  const double rate = 0.1;
  const std::size_t nodes = 500;
  Slots slots(nodes);
  Rng rng(2024);
  PoissonFailureProcess process(rate);
  double last = 0;
  std::size_t count = 0;
  while (auto event = process.next(slots.alive, slots.count, rng, 10.0)) {
    EXPECT_GE(event->time, last);
    EXPECT_LE(event->time, 10.0);
    EXPECT_EQ(slots.alive[event->node], 1);
    slots.fail(event->node);
    last = event->time;
    ++count;
    if (slots.count == 0) break;
  }
  // Pure-death process starting from 500 at per-node rate 0.1 over 10 time
  // units: E[deaths] = 500 * (1 - e^-1) ~ 316. Allow a wide band.
  EXPECT_GT(count, 250u);
  EXPECT_LT(count, 400u);
}

TEST(PoissonFailureProcess, HorizonKeepsCachedGapWithoutRedrawing) {
  // A gap drawn past the horizon is cached, not redrawn: probing with
  // small horizons then releasing gives the same first event as asking
  // for a big horizon outright on a fresh same-seeded process.
  Slots slots(50);
  PoissonFailureProcess probed(0.01);
  Rng probed_rng(77);
  for (double until = 0.0; until < 0.5; until += 0.1) {
    (void)probed.next(slots.alive, slots.count, probed_rng, until);  // likely nullopt; draws once
  }
  const auto released = probed.next(slots.alive, slots.count, probed_rng, 1e9);

  PoissonFailureProcess direct(0.01);
  Rng direct_rng(77);
  const auto straight = direct.next(slots.alive, slots.count, direct_rng, 1e9);
  ASSERT_TRUE(released.has_value());
  ASSERT_TRUE(straight.has_value());
  EXPECT_DOUBLE_EQ(released->time, straight->time);
  EXPECT_EQ(released->node, straight->node);
}

TEST(PoissonFailureProcess, EmptyClusterEndsTheStream) {
  Slots slots(3);
  slots.fail(0);
  slots.fail(1);
  slots.fail(2);
  Rng rng(1);
  PoissonFailureProcess process(1.0);
  EXPECT_FALSE(process.next(slots.alive, slots.count, rng, 1e9).has_value());
}

TEST(FailureModelConfig, ValidateRejectsBadConfigs) {
  FailureModelConfig bad_rate;
  bad_rate.kind = FailureModelConfig::Kind::kPoisson;
  bad_rate.churn_rate = 0.0;
  EXPECT_THROW(bad_rate.validate(), PreconditionError);
  EXPECT_THROW(PoissonFailureProcess(0.0), PreconditionError);

  FailureModelConfig ok;
  ok.kind = FailureModelConfig::Kind::kPoisson;
  ok.churn_rate = 0.25;
  EXPECT_NO_THROW(ok.validate());

  // No loud failures reads no rate.
  FailureModelConfig none;
  none.kind = FailureModelConfig::Kind::kNone;
  none.churn_rate = 0.0;
  EXPECT_NO_THROW(none.validate());
}

}  // namespace
}  // namespace prlc::sim
