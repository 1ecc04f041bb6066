#include "net/sensor_network.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/check.h"

namespace prlc::net {
namespace {

SensorParams make_params(std::size_t nodes = 300, std::size_t locations = 50,
                         std::uint64_t seed = 7) {
  SensorParams p;
  p.nodes = nodes;
  p.locations = locations;
  p.seed = seed;
  return p;
}

TEST(SensorNetwork, ConstructionBasics) {
  const SensorNetwork net(make_params());
  EXPECT_EQ(net.nodes(), 300u);
  EXPECT_EQ(net.locations(), 50u);
  EXPECT_EQ(net.alive_count(), 300u);
  EXPECT_GT(net.radius(), 0.0);
  for (NodeId v = 0; v < net.nodes(); ++v) {
    const auto& p = net.position(v);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 1.0);
  }
}

TEST(SensorNetwork, DefaultRadiusYieldsConnectivity) {
  // The auto radius is 2x the connectivity threshold; a few hundred
  // uniform nodes should be connected for typical seeds.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const SensorNetwork net(make_params(300, 10, seed));
    EXPECT_TRUE(net.alive_graph_connected()) << "seed " << seed;
  }
}

TEST(SensorNetwork, AdjacencyIsSymmetricAndRadiusBounded) {
  const SensorNetwork net(make_params(200));
  for (NodeId v = 0; v < net.nodes(); ++v) {
    for (NodeId u : net.neighbors(v)) {
      EXPECT_LE(distance(net.position(v), net.position(u)), net.radius() + 1e-12);
      const auto& back = net.neighbors(u);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
    }
  }
}

TEST(SensorNetwork, ClosestAliveIsExact) {
  const SensorNetwork net(make_params(250));
  Rng rng(71);
  for (int t = 0; t < 100; ++t) {
    const Point2D p{rng.uniform_double(), rng.uniform_double()};
    const NodeId got = net.closest_alive(p);
    double best = std::numeric_limits<double>::infinity();
    NodeId want = 0;
    for (NodeId v = 0; v < net.nodes(); ++v) {
      const double d = distance_sq(p, net.position(v));
      if (d < best) {
        best = d;
        want = v;
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST(SensorNetwork, OwnerIsClosestAliveToLocationPoint) {
  const SensorNetwork net(make_params());
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    EXPECT_EQ(net.owner_of(loc), net.closest_alive(net.location_point(loc)));
  }
}

TEST(SensorNetwork, RouteDeliversToOwner) {
  const SensorNetwork net(make_params(400, 30, 11));
  Rng rng(72);
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const NodeId from = net.random_alive_node(rng);
    const auto result = net.route(from, loc);
    ASSERT_TRUE(result.delivered);
    EXPECT_EQ(result.owner, net.owner_of(loc));
    EXPECT_LT(result.hops, net.nodes());
  }
}

TEST(SensorNetwork, RouteFromOwnerIsZeroHops) {
  const SensorNetwork net(make_params());
  const NodeId owner = net.owner_of(0);
  const auto result = net.route(owner, 0);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.hops, 0u);
}

TEST(SensorNetwork, GreedyHopsScaleWithDistance) {
  // A random route's hop count is at least the straight-line distance
  // divided by the radio radius (each hop covers at most one radius).
  const SensorNetwork net(make_params(500, 20, 13));
  Rng rng(73);
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const NodeId from = net.random_alive_node(rng);
    const auto result = net.route(from, loc);
    ASSERT_TRUE(result.delivered);
    const double d = distance(net.position(from), net.position(result.owner));
    EXPECT_GE(static_cast<double>(result.hops) + 1e-9, d / net.radius() - 1.0);
  }
}

TEST(SensorNetwork, FailuresChangeOwnership) {
  SensorNetwork net(make_params(150, 20, 17));
  const NodeId owner = net.owner_of(3);
  net.fail_node(owner);
  EXPECT_FALSE(net.alive(owner));
  EXPECT_EQ(net.alive_count(), 149u);
  const NodeId new_owner = net.owner_of(3);
  EXPECT_NE(new_owner, owner);
  EXPECT_TRUE(net.alive(new_owner));
}

TEST(SensorNetwork, RoutingAvoidsFailedNodes) {
  SensorNetwork net(make_params(400, 10, 19));
  Rng rng(74);
  // Kill 30% of nodes; routes must still deliver to the *current* owner
  // whenever the survivor graph stays connected.
  std::size_t killed = 0;
  for (NodeId v = 0; v < net.nodes() && killed < 120; v += 3) {
    net.fail_node(v);
    ++killed;
  }
  if (!net.alive_graph_connected()) GTEST_SKIP() << "survivor graph partitioned";
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const NodeId from = net.random_alive_node(rng);
    const auto result = net.route(from, loc);
    ASSERT_TRUE(result.delivered);
    EXPECT_TRUE(net.alive(result.owner));
    EXPECT_EQ(result.owner, net.owner_of(loc));
  }
}

TEST(SensorNetwork, BatchedRouteMatchesOneMessageAtATime) {
  // Churned until the field partitions, so some routes fail: every result
  // of one batched call, duplicate origins included, equals its message
  // routed alone.
  SensorNetwork net(make_params(200, 12, 29));
  for (NodeId v = 0; v < net.nodes(); ++v) {
    if (v % 4 != 3) net.fail_node(v);
  }
  std::size_t undelivered = 0;
  std::vector<NodeId> from;
  for (NodeId v = 0; v < net.nodes(); ++v) {
    if (net.alive(v)) from.push_back(v);
  }
  from.push_back(from.front());
  std::vector<RouteResult> out(from.size());
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    net.route(from, loc, out);
    for (std::size_t i = 0; i < from.size(); ++i) {
      const RouteResult alone = net.route(from[i], loc);
      ASSERT_EQ(out[i].delivered, alone.delivered) << from[i] << "->" << loc;
      ASSERT_EQ(out[i].owner, alone.owner) << from[i] << "->" << loc;
      ASSERT_EQ(out[i].hops, alone.hops) << from[i] << "->" << loc;
      undelivered += alone.delivered ? 0 : 1;
    }
  }
  EXPECT_GT(undelivered, 0u);
}

TEST(SensorNetwork, RouteFromDeadNodeRejected) {
  SensorNetwork net(make_params());
  net.fail_node(5);
  EXPECT_THROW(net.route(5, 0), PreconditionError);
}

TEST(SensorNetwork, TwoChoicesReducesMaxLoad) {
  // Compare max locations-per-node with and without the two-choices rule.
  SensorParams one = make_params(200, 2000, 23);
  SensorParams two = one;
  two.two_choices = true;
  const SensorNetwork net1(one);
  const SensorNetwork net2(two);
  auto max_load = [](const SensorNetwork& net) {
    std::vector<std::size_t> load(net.nodes(), 0);
    for (LocationId loc = 0; loc < net.locations(); ++loc) ++load[net.owner_of(loc)];
    std::size_t mx = 0;
    for (std::size_t l : load) mx = std::max(mx, l);
    return mx;
  };
  EXPECT_LT(max_load(net2), max_load(net1));
}

TEST(SensorNetwork, DeterministicPerSeed) {
  const SensorNetwork a(make_params(100, 10, 31));
  const SensorNetwork b(make_params(100, 10, 31));
  for (NodeId v = 0; v < a.nodes(); ++v) {
    EXPECT_DOUBLE_EQ(a.position(v).x, b.position(v).x);
    EXPECT_DOUBLE_EQ(a.position(v).y, b.position(v).y);
  }
  for (LocationId loc = 0; loc < a.locations(); ++loc) {
    EXPECT_EQ(a.owner_of(loc), b.owner_of(loc));
  }
}

TEST(SensorNetwork, ValidatesParameters) {
  SensorParams p;
  p.nodes = 1;
  EXPECT_THROW(SensorNetwork{p}, PreconditionError);
  p.nodes = 10;
  p.locations = 0;
  EXPECT_THROW(SensorNetwork{p}, PreconditionError);
}

}  // namespace
}  // namespace prlc::net
