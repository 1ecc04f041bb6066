// 2-D sensor-field overlay with GPSR-style geographic routing (Sec. 2).
//
// W sensors are placed uniformly at random in the unit square and can
// talk to every node within radius 2 * sqrt(ln W / (pi W)), comfortably
// above the connectivity threshold for uniform deployments. Messages addressed to a *location*
// (a point derived from the common seed) are forwarded greedily to the
// neighbor closest to the target point; when greedy forwarding reaches a
// local minimum, the implementation falls back to a shortest-path detour
// over the connectivity graph — the role GPSR's perimeter mode plays,
// with the same delivery guarantee (reaches the globally closest alive
// node whenever the graph is connected) and a conservative hop count.
//
// "Power of two choices" placement (Sec. 4, citing Byers et al.): each
// location derives two candidate points; the candidate whose closest node
// carries the lighter deterministic load replay is chosen. Because the
// replay depends only on the common seed, every node computes the same
// assignment with no coordination — the property the protocol needs.
#pragma once

#include <vector>

#include "net/geometry.h"
#include "net/overlay.h"

namespace prlc::net {

struct SensorParams {
  std::size_t nodes = 500;
  std::size_t locations = 100;  ///< M seed-derived storage locations
  std::uint64_t seed = 1;
  bool two_choices = false;  ///< power-of-two-choices load balancing
};

class SensorNetwork final : public Overlay {
 public:
  explicit SensorNetwork(const SensorParams& params);

  std::size_t locations() const override { return location_points_.size(); }
  NodeId owner_of(LocationId loc) const override;
  std::vector<NodeId> owner_candidates(LocationId loc, std::size_t count) const override;
  using Overlay::route;
  void route(std::span<const NodeId> from, LocationId loc,
             std::span<RouteResult> out) const override;

  /// Geometric position of a node.
  const Point2D& position(NodeId node) const;

  /// The point a location resolved to (post two-choices selection).
  const Point2D& location_point(LocationId loc) const;

  double radius() const { return radius_; }

  /// Neighbors within the radio radius (alive or not — callers filter).
  const std::vector<NodeId>& neighbors(NodeId node) const;

  /// True when the alive subgraph is connected (test/diagnostic helper).
  bool alive_graph_connected() const;

  /// Closest alive node to an arbitrary point.
  NodeId closest_alive(const Point2D& p) const;

  /// The `count` alive nodes nearest to a point, closest first.
  std::vector<NodeId> nearest_alive(const Point2D& p, std::size_t count) const;

 private:
  void build_grid();
  void build_adjacency();

  /// Grid cell index for a point.
  std::size_t cell_of(const Point2D& p) const;

  /// Shortest alive-graph path length from `from` to `to`; SIZE_MAX when
  /// disconnected.
  std::size_t bfs_hops(NodeId from, NodeId to) const;

  /// The walker: greedy forwarding from `from` toward `target`, with a
  /// shortest-path detour to `owner` at a local minimum.
  RouteResult walk(NodeId from, const Point2D& target, NodeId owner) const;

  double radius_ = 0;
  std::vector<Point2D> positions_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<Point2D> location_points_;

  // Uniform grid for nearest-node queries: cells_ x cells_ buckets.
  std::size_t cells_ = 1;
  std::vector<std::vector<NodeId>> grid_;
};

}  // namespace prlc::net
