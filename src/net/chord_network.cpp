#include "net/chord_network.h"

#include <algorithm>
#include <bit>

namespace prlc::net {

ChordNetwork::ChordNetwork(const ChordParams& params) {
  PRLC_REQUIRE(params.nodes >= 2, "a DHT needs at least two nodes");
  PRLC_REQUIRE(params.locations >= 1, "need at least one storage location");

  Rng rng(params.seed);
  ring_ids_.resize(params.nodes);
  for (auto& id : ring_ids_) id = rng();
  // Regenerate on (astronomically unlikely) duplicates to keep ownership
  // unambiguous.
  std::sort(ring_ids_.begin(), ring_ids_.end());
  for (std::size_t i = 1; i < ring_ids_.size(); ++i) {
    while (ring_ids_[i] == ring_ids_[i - 1]) ring_ids_[i] = rng();
  }
  Rng shuffle_rng(params.seed ^ 0x1234abcdULL);
  shuffle_rng.shuffle(std::span<std::uint64_t>(ring_ids_));

  init_membership(params.nodes);
  sorted_.resize(params.nodes);
  for (NodeId v = 0; v < params.nodes; ++v) sorted_[v] = v;
  std::sort(sorted_.begin(), sorted_.end(),
            [&](NodeId a, NodeId b) { return ring_ids_[a] < ring_ids_[b]; });

  // Location keys from the common seed; two-choices picks the candidate
  // whose successor carries the lighter deterministic load replay.
  std::uint64_t loc_seed = params.seed ^ 0x0badc0ffee123456ULL;
  const std::uint64_t base = splitmix64_next(loc_seed);
  std::vector<std::size_t> load(params.nodes, 0);
  location_keys_.reserve(params.locations);
  for (std::uint32_t i = 0; i < params.locations; ++i) {
    std::uint64_t s1 = base + 0x9e3779b97f4a7c15ULL * (2ULL * i + 1);
    const std::uint64_t k1 = splitmix64_next(s1);
    if (!params.two_choices) {
      location_keys_.push_back(k1);
      ++load[successor(k1)];
      continue;
    }
    std::uint64_t s2 = base + 0x9e3779b97f4a7c15ULL * (2ULL * i + 2);
    const std::uint64_t k2 = splitmix64_next(s2);
    const NodeId n1 = successor(k1);
    const NodeId n2 = successor(k2);
    const bool second = load[n2] < load[n1];
    location_keys_.push_back(second ? k2 : k1);
    ++load[second ? n2 : n1];
  }
}

std::uint64_t ChordNetwork::ring_id(NodeId node) const {
  PRLC_REQUIRE(node < ring_ids_.size(), "node id out of range");
  return ring_ids_[node];
}

std::uint64_t ChordNetwork::location_key(LocationId loc) const {
  PRLC_REQUIRE(loc < location_keys_.size(), "location id out of range");
  return location_keys_[loc];
}

ChordNetwork::AliveRing& ChordNetwork::alive_ring() const {
  if (alive_.epoch == membership_epoch()) return alive_;
  alive_.epoch = membership_epoch();
  alive_.nodes.clear();
  alive_.ids.clear();
  alive_.pos.resize(sorted_.size());
  for (const NodeId v : sorted_) {
    if (!alive(v)) continue;
    alive_.pos[v] = static_cast<std::uint32_t>(alive_.nodes.size());
    alive_.nodes.push_back(v);
    alive_.ids.push_back(ring_ids_[v]);
  }
  alive_.owners.clear();
  alive_.finger_row.clear();
  alive_.fingers.clear();
  return alive_;
}

std::size_t ChordNetwork::successor_pos(const AliveRing& ring, std::uint64_t key) {
  PRLC_REQUIRE(!ring.nodes.empty(), "no alive node in the ring");
  const auto it = std::lower_bound(ring.ids.begin(), ring.ids.end(), key);
  const auto idx = static_cast<std::size_t>(it - ring.ids.begin());
  return idx == ring.ids.size() ? 0 : idx;  // wrap past the top of the ring
}

std::size_t ChordNetwork::owner_pos(AliveRing& ring, LocationId loc) const {
  const std::uint64_t key = location_key(loc);
  if (ring.owners.empty()) ring.owners.assign(location_keys_.size(), kUnfilled);
  std::uint32_t& owner = ring.owners[loc];
  if (owner == kUnfilled) owner = static_cast<std::uint32_t>(successor_pos(ring, key));
  return owner;
}

NodeId ChordNetwork::successor(std::uint64_t key) const {
  const AliveRing& ring = alive_ring();
  return ring.nodes[successor_pos(ring, key)];
}

std::vector<NodeId> ChordNetwork::successors(std::uint64_t key, std::size_t count) const {
  const AliveRing& ring = alive_ring();
  std::vector<NodeId> out;
  if (ring.nodes.empty()) return out;
  const std::size_t start = successor_pos(ring, key);
  const std::size_t take = std::min(count, ring.nodes.size());
  out.reserve(take);
  for (std::size_t step = 0; step < take; ++step) {
    out.push_back(ring.nodes[(start + step) % ring.nodes.size()]);
  }
  return out;
}

NodeId ChordNetwork::owner_of(LocationId loc) const {
  AliveRing& ring = alive_ring();
  return ring.nodes[owner_pos(ring, loc)];
}

std::vector<NodeId> ChordNetwork::owner_candidates(LocationId loc, std::size_t count) const {
  return successors(location_key(loc), count);
}

RouteResult ChordNetwork::route(NodeId from, LocationId loc) const {
  PRLC_REQUIRE(from < ring_ids_.size(), "node id out of range");
  PRLC_REQUIRE(alive(from), "routing from a failed node");
  AliveRing& ring = alive_ring();
  const std::size_t owner = owner_pos(ring, loc);
  const std::size_t alive_total = ring.nodes.size();
  if (ring.finger_row.empty()) {  // first route since the rebuild: size the finger rows
    ring.finger_row.push_back(0);
    for (std::size_t p = 0; p < alive_total; ++p) {
      const std::uint64_t gap = ring.ids[p + 1 == alive_total ? 0 : p + 1] - ring.ids[p];
      ring.finger_row.push_back(ring.finger_row.back() + 64 -
                                static_cast<std::uint32_t>(std::bit_width(gap)));
    }
    ring.fingers.assign(ring.finger_row.back(), kUnfilled);
  }
  // The last alive node before the key. A finger's alive successor lies
  // strictly within (current, key) exactly when the finger is at most as
  // far as this node, so the finger rule below takes the largest power of
  // two within that distance.
  const std::uint64_t last_id = ring.ids[owner == 0 ? alive_total - 1 : owner - 1];

  RouteResult result;
  std::size_t current = ring.pos[from];
  while (current != owner) {
    const std::size_t next = current + 1 == alive_total ? 0 : current + 1;
    // Chord delivery rule: when the key falls between current and its
    // alive successor, that successor owns it — one final hop.
    if (next == owner) {
      ++result.hops;
      break;
    }
    // Finger rule: the farthest power-of-two finger whose alive successor
    // still lies strictly within (current, key).
    const std::uint64_t cur_id = ring.ids[current];
    const auto b = static_cast<std::uint32_t>(std::bit_width(ring_clockwise(cur_id, last_id))) - 1;
    const std::uint32_t row = ring.finger_row[current];
    const std::uint32_t first_b = 64 - (ring.finger_row[current + 1] - row);
    if (b < first_b) {
      current = next;  // 2^b is within the gap to the alive successor
    } else {
      std::uint32_t& finger = ring.fingers[row + b - first_b];
      if (finger == kUnfilled) {
        finger = static_cast<std::uint32_t>(successor_pos(ring, cur_id + (std::uint64_t{1} << b)));
      }
      current = finger;
    }
    ++result.hops;
    if (result.hops > ring_ids_.size()) return result;  // safety net
  }
  result.delivered = true;
  result.owner = ring.nodes[owner];
  return result;
}

}  // namespace prlc::net
