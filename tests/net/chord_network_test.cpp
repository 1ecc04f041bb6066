#include "net/chord_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/check.h"

namespace prlc::net {
namespace {

ChordParams make_params(std::size_t nodes = 200, std::size_t locations = 50,
                        std::uint64_t seed = 5) {
  ChordParams p;
  p.nodes = nodes;
  p.locations = locations;
  p.seed = seed;
  return p;
}

/// Reference owner rule: alive node with the minimal clockwise distance
/// from the key.
NodeId linear_successor(const ChordNetwork& net, std::uint64_t key) {
  NodeId best = 0;
  std::uint64_t best_d = std::numeric_limits<std::uint64_t>::max();
  for (NodeId v = 0; v < net.nodes(); ++v) {
    if (!net.alive(v)) continue;
    const std::uint64_t d = ring_clockwise(key, net.ring_id(v));
    if (d <= best_d) {
      // Prefer the node exactly at `key` (distance 0) then nearest cw.
      if (d < best_d) {
        best = v;
        best_d = d;
      }
    }
  }
  return best;
}

TEST(ChordNetwork, ConstructionBasics) {
  const ChordNetwork net(make_params());
  EXPECT_EQ(net.nodes(), 200u);
  EXPECT_EQ(net.locations(), 50u);
  EXPECT_EQ(net.alive_count(), 200u);
}

TEST(ChordNetwork, RingIdsAreUnique) {
  const ChordNetwork net(make_params(500, 10, 9));
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < net.nodes(); ++v) ids.insert(net.ring_id(v));
  EXPECT_EQ(ids.size(), net.nodes());
}

TEST(ChordNetwork, SuccessorMatchesLinearScan) {
  const ChordNetwork net(make_params());
  Rng rng(81);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t key = rng();
    EXPECT_EQ(net.successor(key), linear_successor(net, key));
  }
}

TEST(ChordNetwork, SuccessorOfOwnIdIsSelf) {
  const ChordNetwork net(make_params());
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(net.successor(net.ring_id(v)), v);
  }
}

TEST(ChordNetwork, OwnerMatchesSuccessorOfKey) {
  const ChordNetwork net(make_params());
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    EXPECT_EQ(net.owner_of(loc), net.successor(net.location_key(loc)));
  }
}

TEST(ChordNetwork, RouteDeliversToOwner) {
  const ChordNetwork net(make_params(300, 40, 13));
  Rng rng(82);
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const NodeId from = net.random_alive_node(rng);
    const auto result = net.route(from, loc);
    ASSERT_TRUE(result.delivered);
    EXPECT_EQ(result.owner, net.owner_of(loc));
  }
}

TEST(ChordNetwork, RouteHopsAreLogarithmic) {
  const ChordNetwork net(make_params(1000, 100, 17));
  Rng rng(83);
  std::size_t max_hops = 0;
  double total = 0;
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const auto result = net.route(net.random_alive_node(rng), loc);
    ASSERT_TRUE(result.delivered);
    max_hops = std::max(max_hops, result.hops);
    total += static_cast<double>(result.hops);
  }
  // Chord: ~ (1/2) log2 W average, log2 W + O(1) whp. Generous bounds.
  EXPECT_LE(max_hops, 2 * static_cast<std::size_t>(std::log2(1000)) + 4);
  EXPECT_LE(total / static_cast<double>(net.locations()), std::log2(1000) + 1);
}

TEST(ChordNetwork, RouteFromOwnerIsZeroHops) {
  const ChordNetwork net(make_params());
  const NodeId owner = net.owner_of(0);
  const auto result = net.route(owner, 0);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.hops, 0u);
}

TEST(ChordNetwork, FailuresShiftOwnershipToNextSuccessor) {
  ChordNetwork net(make_params(100, 10, 19));
  const LocationId loc = 4;
  const NodeId owner = net.owner_of(loc);
  net.fail_node(owner);
  const NodeId next = net.owner_of(loc);
  EXPECT_NE(next, owner);
  EXPECT_TRUE(net.alive(next));
  EXPECT_EQ(next, linear_successor(net, net.location_key(loc)));
}

TEST(ChordNetwork, RoutingSurvivesHeavyChurn) {
  ChordNetwork net(make_params(400, 30, 23));
  Rng rng(84);
  for (NodeId v = 0; v < net.nodes(); v += 2) net.fail_node(v);  // 50% churn
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const NodeId from = net.random_alive_node(rng);
    const auto result = net.route(from, loc);
    ASSERT_TRUE(result.delivered);
    EXPECT_TRUE(net.alive(result.owner));
    EXPECT_EQ(result.owner, net.owner_of(loc));
  }
}

TEST(ChordNetwork, RouteFromDeadNodeRejected) {
  ChordNetwork net(make_params());
  net.fail_node(3);
  EXPECT_THROW(net.route(3, 0), PreconditionError);
}

TEST(ChordNetwork, TwoChoicesReducesMaxLoad) {
  ChordParams one = make_params(150, 3000, 29);
  ChordParams two = one;
  two.two_choices = true;
  const ChordNetwork net1(one);
  const ChordNetwork net2(two);
  auto max_load = [](const ChordNetwork& net) {
    std::vector<std::size_t> load(net.nodes(), 0);
    for (LocationId loc = 0; loc < net.locations(); ++loc) ++load[net.owner_of(loc)];
    std::size_t mx = 0;
    for (std::size_t l : load) mx = std::max(mx, l);
    return mx;
  };
  EXPECT_LT(max_load(net2), max_load(net1));
}

TEST(ChordNetwork, DeterministicPerSeed) {
  const ChordNetwork a(make_params(80, 12, 31));
  const ChordNetwork b(make_params(80, 12, 31));
  for (NodeId v = 0; v < a.nodes(); ++v) EXPECT_EQ(a.ring_id(v), b.ring_id(v));
  for (LocationId loc = 0; loc < a.locations(); ++loc) {
    EXPECT_EQ(a.location_key(loc), b.location_key(loc));
  }
}

TEST(ChordNetwork, ValidatesParameters) {
  ChordParams p;
  p.nodes = 1;
  EXPECT_THROW(ChordNetwork{p}, PreconditionError);
  p.nodes = 5;
  p.locations = 0;
  EXPECT_THROW(ChordNetwork{p}, PreconditionError);
}

/// The uncached lookup rules ChordNetwork is checked against: a binary
/// search over every node's ring id, then a scan for the first alive one,
/// and the finger rule trying every power of two from the top. This is the
/// seed implementation, copied here so the cached routes stay tied to it.
class UncachedChord {
 public:
  explicit UncachedChord(const ChordNetwork& net) : net_(net) {
    for (NodeId v = 0; v < net.nodes(); ++v) sorted_.push_back(v);
    std::sort(sorted_.begin(), sorted_.end(),
              [&](NodeId a, NodeId b) { return net.ring_id(a) < net.ring_id(b); });
    for (const NodeId v : sorted_) sorted_ids_.push_back(net.ring_id(v));
  }

  NodeId successor(std::uint64_t key) const {
    const std::size_t start = successor_index(key);
    for (std::size_t step = 0; step < sorted_.size(); ++step) {
      const NodeId v = sorted_[(start + step) % sorted_.size()];
      if (net_.alive(v)) return v;
    }
    PRLC_REQUIRE(false, "no alive node in the ring");
  }

  std::vector<NodeId> successors(std::uint64_t key, std::size_t count) const {
    std::vector<NodeId> out;
    const std::size_t start = successor_index(key);
    for (std::size_t step = 0; step < sorted_.size() && out.size() < count; ++step) {
      const NodeId v = sorted_[(start + step) % sorted_.size()];
      if (net_.alive(v)) out.push_back(v);
    }
    return out;
  }

  RouteResult route(NodeId from, LocationId loc) const {
    const std::uint64_t key = net_.location_key(loc);
    const NodeId owner = successor(key);
    RouteResult result;
    NodeId current = from;
    while (current != owner) {
      const std::uint64_t cur_id = net_.ring_id(current);
      const NodeId succ = successor(cur_id + 1);
      if (ring_in_interval(key, cur_id, net_.ring_id(succ))) {
        ++result.hops;
        current = succ;
        break;
      }
      NodeId next = succ;
      for (int b = 63; b >= 0; --b) {
        const std::uint64_t target = cur_id + (std::uint64_t{1} << b);
        if (!ring_in_interval(target, cur_id, key)) continue;
        const NodeId cand = successor(target);
        if (cand != current && ring_in_interval(net_.ring_id(cand), cur_id, key) &&
            net_.ring_id(cand) != key) {
          next = cand;
          break;
        }
      }
      current = next;
      ++result.hops;
      if (result.hops > net_.nodes()) return result;
    }
    result.delivered = true;
    result.owner = owner;
    return result;
  }

 private:
  std::size_t successor_index(std::uint64_t key) const {
    const auto it = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), key);
    const auto idx = static_cast<std::size_t>(it - sorted_ids_.begin());
    return idx == sorted_ids_.size() ? 0 : idx;
  }

  const ChordNetwork& net_;
  std::vector<NodeId> sorted_;
  std::vector<std::uint64_t> sorted_ids_;
};

/// Every lookup of `net` against the uncached rules: owner_of and
/// successors for every location, and route for every (from, loc) pair
/// with an alive `from`.
void expect_lookups_match(const ChordNetwork& net, const UncachedChord& ref) {
  const std::size_t alive = net.alive_count();
  for (LocationId loc = 0; loc < net.locations(); ++loc) {
    const std::uint64_t key = net.location_key(loc);
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}, net.nodes() + 1}) {
      ASSERT_EQ(net.successors(key, count), ref.successors(key, count))
          << "W=" << net.nodes() << " loc " << loc << " count " << count;
    }
    if (alive == 0) {
      EXPECT_THROW(net.owner_of(loc), PreconditionError);
      continue;
    }
    ASSERT_EQ(net.owner_of(loc), ref.successor(key)) << "W=" << net.nodes() << " loc " << loc;
  }
  for (NodeId from = 0; from < net.nodes(); ++from) {
    if (!net.alive(from)) continue;
    for (LocationId loc = 0; loc < net.locations(); ++loc) {
      const RouteResult got = net.route(from, loc);
      const RouteResult want = ref.route(from, loc);
      ASSERT_EQ(got.delivered, want.delivered) << "W=" << net.nodes() << " " << from << "->" << loc;
      ASSERT_EQ(got.owner, want.owner) << "W=" << net.nodes() << " " << from << "->" << loc;
      ASSERT_EQ(got.hops, want.hops) << "W=" << net.nodes() << " " << from << "->" << loc;
    }
  }
}

TEST(ChordNetwork, CachedLookupsMatchUncachedRule) {
  for (const std::size_t nodes : {2, 3, 257, 5000}) {
    ChordNetwork net(make_params(nodes, nodes >= 5000 ? 6 : 40, 41 + nodes));
    const UncachedChord ref(net);
    Rng rng(85 + nodes);
    expect_lookups_match(net, ref);
    for (int round = 0; round < 8; ++round) {
      // Flip a batch of nodes, one at a time, with a lookup in between so a
      // stale cache would answer. Every real transition bumps the epoch.
      const std::size_t flips = std::max<std::size_t>(1, nodes / 7);
      for (std::size_t f = 0; f < flips; ++f) {
        const auto v = static_cast<NodeId>(rng.uniform(nodes));
        const std::uint64_t before = net.membership_epoch();
        if (net.alive(v)) {
          net.fail_node(v);
        } else {
          net.revive_node(v);
        }
        EXPECT_EQ(net.membership_epoch(), before + 1);
        if (net.alive_count() > 0) {
          const LocationId loc = static_cast<LocationId>(rng.uniform(net.locations()));
          ASSERT_EQ(net.owner_of(loc), ref.successor(net.location_key(loc)));
        }
      }
      // Failing a dead node or reviving a live one changes nothing.
      const std::uint64_t before = net.membership_epoch();
      for (NodeId v = 0; v < net.nodes(); ++v) {
        if (net.alive(v)) {
          net.revive_node(v);
        } else {
          net.fail_node(v);
        }
      }
      EXPECT_EQ(net.membership_epoch(), before) << "W=" << nodes;
      expect_lookups_match(net, ref);
    }
  }
}

}  // namespace
}  // namespace prlc::net
