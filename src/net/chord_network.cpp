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
  alive_.finger_base.clear();
  alive_.fingers.clear();
  return alive_;
}

void ChordNetwork::build_fingers(AliveRing& ring) {
  const std::size_t alive_total = ring.nodes.size();
  // The first bit of p's row: floor(log2) of the gap to p's alive
  // successor. A lone alive node (gap 0) gets a full row it never reads.
  std::vector<std::uint8_t> low_bit(alive_total);
  ring.finger_base.resize(alive_total);
  std::uint32_t size = 0;
  std::uint32_t first_bit = 63;
  for (std::size_t p = 0; p < alive_total; ++p) {
    const std::uint64_t gap = ring.ids[p + 1 == alive_total ? 0 : p + 1] - ring.ids[p];
    const auto low = static_cast<std::uint32_t>(std::bit_width(gap | 1)) - 1;
    low_bit[p] = static_cast<std::uint8_t>(low);
    ring.finger_base[p] = size - low;
    size += 64 - low;
    first_bit = std::min(first_bit, low);
  }
  ring.fingers.resize(size);
  // One sweep per bit b. The targets ids[p] + 2^b ascend once the nodes
  // whose target wraps past the top of the ring come first, so one forward
  // pointer over the ids finds every successor.
  for (std::uint32_t b = first_bit; b < 64; ++b) {
    const std::uint64_t step = std::uint64_t{1} << b;
    const auto wrap = static_cast<std::size_t>(
        std::lower_bound(ring.ids.begin(), ring.ids.end(), std::uint64_t{0} - step) -
        ring.ids.begin());
    std::size_t succ = 0;
    for (std::size_t i = 0; i < alive_total; ++i) {
      const std::size_t p = wrap + i < alive_total ? wrap + i : wrap + i - alive_total;
      if (low_bit[p] > b) continue;  // below p's row
      const std::uint64_t target = ring.ids[p] + step;
      while (succ < alive_total && ring.ids[succ] < target) ++succ;
      ring.fingers[static_cast<std::uint32_t>(ring.finger_base[p] + b)] =
          succ == alive_total ? 0 : static_cast<std::uint32_t>(succ);
    }
  }
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

void ChordNetwork::route(std::span<const NodeId> from, LocationId loc,
                         std::span<RouteResult> out) const {
  PRLC_REQUIRE(out.size() == from.size(), "one route result per origin");
  for (const NodeId v : from) {
    PRLC_REQUIRE(v < ring_ids_.size(), "node id out of range");
    PRLC_REQUIRE(alive(v), "routing from a failed node");
  }
  PRLC_REQUIRE(loc < location_keys_.size(), "location id out of range");
  if (from.empty()) return;
  AliveRing& ring = alive_ring();
  if (ring.fingers.empty()) build_fingers(ring);
  const std::size_t owner = owner_pos(ring, loc);
  // Every route ends at the last alive node before the key, the owner's
  // predecessor: from there the Chord delivery rule takes one final hop
  // to the owner, counted up front. A finger's alive successor lies
  // strictly within (current, key) exactly when the finger is at most as
  // far as that node, so the finger rule takes the largest power of two
  // within that distance, and never passes it.
  const std::size_t last = (owner == 0 ? ring.nodes.size() : owner) - 1;
  const std::uint64_t last_id = ring.ids[last];
  ring.flight_route.resize(from.size());
  ring.flight_at.resize(from.size());
  std::size_t live = 0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const std::uint32_t at = ring.pos[from[i]];
    out[i] = RouteResult{true, ring.nodes[owner], at == owner ? 0u : 1u};
    ring.flight_route[live] = static_cast<std::uint32_t>(i);
    ring.flight_at[live] = at;
    live += at != owner && at != last;
  }
  // Advance every route in flight one hop per round, and keep those that
  // have not reached `last`.
  const std::uint64_t* ids = ring.ids.data();
  const std::uint32_t* base = ring.finger_base.data();
  const std::uint32_t* fingers = ring.fingers.data();
  std::uint32_t* route_of = ring.flight_route.data();
  std::uint32_t* at_of = ring.flight_at.data();
  for (std::size_t round = 1; live > 0; ++round) {
    if (round > ring_ids_.size()) {  // safety net
      for (std::size_t k = 0; k < live; ++k) out[route_of[k]].delivered = false;
      return;
    }
    std::size_t kept = 0;
    for (std::size_t k = 0; k < live; ++k) {
      const std::uint32_t at = at_of[k];
      const std::uint32_t i = route_of[k];
      const auto b = static_cast<std::uint32_t>(std::bit_width(ring_clockwise(ids[at], last_id))) - 1;
      const std::uint32_t next = fingers[static_cast<std::uint32_t>(base[at] + b)];
      ++out[i].hops;
      route_of[kept] = i;
      at_of[kept] = next;
      kept += next != last;
    }
    live = kept;
  }
}

}  // namespace prlc::net
