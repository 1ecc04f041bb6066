// Chord-style DHT overlay (Sec. 2: "each node has a unique ID in a
// one-dimensional geometric space"), used as the P2P instantiation of the
// pre-distribution protocol.
//
// Node IDs are 64-bit points on a ring; a key is owned by its alive
// successor (first node clockwise). Lookup routing follows the classic
// finger rule: each hop jumps to the latest node the current node knows
// of that still precedes the key, halving the remaining ring distance, so
// lookups take O(log W) hops. Fingers are resolved against the current
// alive set, modelling a DHT whose stabilization has caught up with the
// churn — the standard assumption for persistence analysis.
//
// Lookups run against a cache of the alive ring (alive nodes in ring
// order), rebuilt on the first lookup after membership_epoch() moves. It
// holds a memo of location owners, filled as lookups ask for them, and
// the whole finger table, built by the first route after each rebuild in
// one sweep per finger bit. Between membership changes a route hop and a
// location's owner cost O(1), and the successor of an arbitrary key one
// binary search over the alive nodes. The routes of one call, all bound
// for one location, advance in lockstep, one hop per round, so their hop
// chains overlap instead of running one after another. The cache makes
// const lookups mutate the object: like fail_node(), they must not run
// concurrently on one instance (every experiment builds one overlay per
// trial).
#pragma once

#include <span>
#include <vector>

#include "net/geometry.h"
#include "net/overlay.h"

namespace prlc::net {

struct ChordParams {
  std::size_t nodes = 500;
  std::size_t locations = 100;  ///< M seed-derived storage keys
  std::uint64_t seed = 1;
  bool two_choices = false;  ///< power-of-two-choices key selection
};

class ChordNetwork final : public Overlay {
 public:
  explicit ChordNetwork(const ChordParams& params);

  std::size_t locations() const override { return location_keys_.size(); }
  NodeId owner_of(LocationId loc) const override;
  std::vector<NodeId> owner_candidates(LocationId loc, std::size_t count) const override;
  using Overlay::route;
  void route(std::span<const NodeId> from, LocationId loc,
             std::span<RouteResult> out) const override;

  /// Ring identifier of a node.
  std::uint64_t ring_id(NodeId node) const;

  /// Ring key a location resolved to (post two-choices selection).
  std::uint64_t location_key(LocationId loc) const;

  /// Alive successor of an arbitrary key (the owner rule).
  NodeId successor(std::uint64_t key) const;

  /// The `count` alive successors of a key, clockwise order.
  std::vector<NodeId> successors(std::uint64_t key, std::size_t count) const;

 private:
  /// What lookups derive from the alive set; valid while `epoch` equals
  /// membership_epoch().
  struct AliveRing {
    std::uint64_t epoch = 0;            ///< 0: never built
    std::vector<NodeId> nodes;          ///< alive nodes in ring order
    std::vector<std::uint64_t> ids;     ///< their ring ids, ascending
    std::vector<std::uint32_t> pos;     ///< by NodeId: index into nodes (alive only)
    /// By LocationId: index of the location's owner. Empty until first
    /// used after a rebuild, and kUnfilled until an entry is first needed.
    std::vector<std::uint32_t> owners;
    /// The finger table, empty until the first route after a rebuild: node
    /// p's finger successor(ids[p] + 2^b) is fingers[finger_base[p] + b]
    /// (uint32 arithmetic, which may wrap) for b from floor(log2) of the
    /// gap to p's alive successor, whose finger is that successor, to 63.
    /// Smaller bits resolve to the successor too, and the finger rule never
    /// asks for them. About log2(alive) + 3 entries per node instead of 64.
    std::vector<std::uint32_t> finger_base;
    std::vector<std::uint32_t> fingers;
    /// Route scratch: which route of the call each in-flight walk is, and
    /// where it stands.
    std::vector<std::uint32_t> flight_route;
    std::vector<std::uint32_t> flight_at;
  };
  static constexpr std::uint32_t kUnfilled = ~std::uint32_t{0};

  /// The alive ring, rebuilt first if membership changed since it was built.
  AliveRing& alive_ring() const;

  /// Fill the ring's finger table.
  static void build_fingers(AliveRing& ring);

  /// Index into the alive ring of the successor of `key`; requires at least
  /// one alive node.
  static std::size_t successor_pos(const AliveRing& ring, std::uint64_t key);

  /// Index into the alive ring of the owner of `loc`, memoized.
  std::size_t owner_pos(AliveRing& ring, LocationId loc) const;

  std::vector<std::uint64_t> ring_ids_;          // by NodeId
  std::vector<NodeId> sorted_;                   // NodeIds sorted by ring id
  std::vector<std::uint64_t> location_keys_;     // by LocationId
  mutable AliveRing alive_;
};

}  // namespace prlc::net
