// Abstract overlay network — the substrate the Sec. 4 pre-distribution
// protocol runs on.
//
// An overlay owns W nodes in some geometric space and can (a) resolve the
// node "in charge of" any of the M seed-derived random locations, and (b)
// simulate routing messages from nodes toward a location, counting
// overlay hops. Each overlay has one walker, which routes every message
// bound for one location in one call; routing one message is that call
// with one origin. Node failures are first-class: after fail_node(),
// routing and ownership resolve among the surviving nodes only, which is
// what the persistence experiments exercise.
//
// Ownership is resolved against the *current* alive set, so a location's
// owner can change across failures; the pre-distribution layer records
// the owner at placement time, exactly like a real deployment where the
// blocks physically sit on the node that held the location when data was
// disseminated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/types.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::net {

class Overlay {
 public:
  virtual ~Overlay() = default;

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  /// Total nodes (alive + failed).
  std::size_t nodes() const { return alive_.size(); }

  /// Number of seed-derived random locations (M of Sec. 4).
  virtual std::size_t locations() const = 0;

  bool alive(NodeId node) const {
    PRLC_REQUIRE(node < alive_.size(), "node id out of range");
    return alive_[node];
  }

  /// Incarnation counter: bumped every time the node fails. A revived
  /// node is a *new* incarnation — state stored on a previous one (e.g.
  /// coded blocks) is gone, which is how the storage layer distinguishes
  /// "still holding the block" from "rejoined empty".
  std::uint32_t generation(NodeId node) const {
    PRLC_REQUIRE(node < generation_.size(), "node id out of range");
    return generation_[node];
  }

  /// Membership epoch: bumped by every real alive/failed transition and
  /// by nothing else, so an overlay can cache what it derives from the
  /// alive set and rebuild it only when this value moves.
  std::uint64_t membership_epoch() const { return epoch_; }

  /// Mark a node failed; idempotent (re-failing does not bump again).
  void fail_node(NodeId node) {
    PRLC_REQUIRE(node < alive_.size(), "node id out of range");
    if (!alive_[node]) return;
    alive_[node] = false;
    ++generation_[node];
    --alive_count_;
    ++epoch_;
  }

  /// Bring a failed node back (a peer rejoining the session / a sensor
  /// waking from hibernation) with empty storage. Idempotent.
  void revive_node(NodeId node) {
    PRLC_REQUIRE(node < alive_.size(), "node id out of range");
    if (alive_[node]) return;
    alive_[node] = true;
    ++alive_count_;
    ++epoch_;
  }

  std::size_t alive_count() const { return alive_count_; }

  /// The alive node ids, in id order.
  std::vector<NodeId> alive_nodes() const {
    std::vector<NodeId> out;
    out.reserve(alive_count_);
    for (NodeId v = 0; v < alive_.size(); ++v) {
      if (alive_[v]) out.push_back(v);
    }
    return out;
  }

  /// Node currently in charge of location `loc` (closest alive node /
  /// alive successor). Requires at least one alive node.
  virtual NodeId owner_of(LocationId loc) const = 0;

  /// The first `count` alive candidates for hosting `loc`, best first
  /// (k nearest in the plane / k successors on the ring). Capacity-aware
  /// placement walks this list until it finds a node with spare storage
  /// (Sec. 2: "each node only has a limited amount of storage space").
  /// Returns fewer than `count` when the alive population is smaller.
  virtual std::vector<NodeId> owner_candidates(LocationId loc, std::size_t count) const = 0;

  /// Route one message from each node of `from` (each must be alive)
  /// toward location `loc`: out[i] is the owner reached and the hop count
  /// of the message from from[i], or delivered = false if the overlay is
  /// partitioned between them. Each result equals routing that message
  /// alone; an origin may repeat. Requires out.size() == from.size().
  virtual void route(std::span<const NodeId> from, LocationId loc,
                     std::span<RouteResult> out) const = 0;

  /// Route one message from `from` toward `loc`: the call above with one
  /// origin.
  RouteResult route(NodeId from, LocationId loc) const {
    RouteResult result;
    route(std::span<const NodeId>(&from, 1), loc, std::span<RouteResult>(&result, 1));
    return result;
  }

  /// Uniformly random alive node; requires at least one alive.
  NodeId random_alive_node(Rng& rng) const {
    const std::size_t alive_total = alive_count();
    PRLC_REQUIRE(alive_total > 0, "no alive nodes left in the overlay");
    std::size_t pick = rng.uniform(alive_total);
    for (NodeId v = 0; v < nodes(); ++v) {
      if (alive(v)) {
        if (pick == 0) return v;
        --pick;
      }
    }
    PRLC_ASSERT(false, "alive node scan failed");
  }

 protected:
  Overlay() = default;

  /// Called once by concrete overlays after they know their node count.
  void init_membership(std::size_t node_count) {
    alive_.assign(node_count, true);
    generation_.assign(node_count, 0);
    alive_count_ = node_count;
    ++epoch_;
  }

 private:
  std::vector<bool> alive_;
  std::vector<std::uint32_t> generation_;
  std::size_t alive_count_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace prlc::net
