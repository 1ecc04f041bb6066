#include "net/sensor_network.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numbers>

namespace prlc::net {

namespace {

Point2D point_from_hash(std::uint64_t h) {
  std::uint64_t state = h;
  const double x = static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53;
  const double y = static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53;
  return {x, y};
}

}  // namespace

SensorNetwork::SensorNetwork(const SensorParams& params) {
  PRLC_REQUIRE(params.nodes >= 2, "a sensor field needs at least two nodes");
  PRLC_REQUIRE(params.locations >= 1, "need at least one storage location");

  const auto w = static_cast<double>(params.nodes);
  radius_ = 2.0 * std::sqrt(std::log(w) / (std::numbers::pi * w));

  Rng rng(params.seed);
  positions_.resize(params.nodes);
  for (auto& p : positions_) p = {rng.uniform_double(), rng.uniform_double()};
  init_membership(params.nodes);

  build_grid();
  build_adjacency();

  // Derive location points from the common seed (Sec. 4): candidate h-th
  // point of location i hashes (seed', i, h). Under two-choices, replay
  // the deterministic assignment and keep the lighter candidate.
  std::uint64_t loc_seed = params.seed ^ 0xa5a5a5a5deadbeefULL;
  const std::uint64_t base = splitmix64_next(loc_seed);
  std::vector<std::size_t> load(params.nodes, 0);
  location_points_.reserve(params.locations);
  for (std::uint32_t i = 0; i < params.locations; ++i) {
    std::uint64_t h1 = base + 0x9e3779b97f4a7c15ULL * (2ULL * i + 1);
    const Point2D c1 = point_from_hash(h1);
    if (!params.two_choices) {
      location_points_.push_back(c1);
      ++load[closest_alive(c1)];
      continue;
    }
    std::uint64_t h2 = base + 0x9e3779b97f4a7c15ULL * (2ULL * i + 2);
    const Point2D c2 = point_from_hash(h2);
    const NodeId n1 = closest_alive(c1);
    const NodeId n2 = closest_alive(c2);
    const Point2D chosen = load[n2] < load[n1] ? c2 : c1;
    ++load[load[n2] < load[n1] ? n2 : n1];
    location_points_.push_back(chosen);
  }
}

void SensorNetwork::build_grid() {
  cells_ = std::max<std::size_t>(1, static_cast<std::size_t>(1.0 / radius_));
  grid_.assign(cells_ * cells_, {});
  for (NodeId v = 0; v < positions_.size(); ++v) {
    grid_[cell_of(positions_[v])].push_back(v);
  }
}

std::size_t SensorNetwork::cell_of(const Point2D& p) const {
  auto clamp_cell = [&](double coord) {
    auto c = static_cast<std::size_t>(coord * static_cast<double>(cells_));
    return std::min(c, cells_ - 1);
  };
  return clamp_cell(p.y) * cells_ + clamp_cell(p.x);
}

void SensorNetwork::build_adjacency() {
  adjacency_.assign(positions_.size(), {});
  const double r_sq = radius_ * radius_;
  for (NodeId v = 0; v < positions_.size(); ++v) {
    const Point2D& p = positions_[v];
    const auto cx = static_cast<std::ptrdiff_t>(std::min(
        static_cast<std::size_t>(p.x * static_cast<double>(cells_)), cells_ - 1));
    const auto cy = static_cast<std::ptrdiff_t>(std::min(
        static_cast<std::size_t>(p.y * static_cast<double>(cells_)), cells_ - 1));
    for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
      for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
        const std::ptrdiff_t nx = cx + dx;
        const std::ptrdiff_t ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= static_cast<std::ptrdiff_t>(cells_) ||
            ny >= static_cast<std::ptrdiff_t>(cells_)) {
          continue;
        }
        for (NodeId u : grid_[static_cast<std::size_t>(ny) * cells_ + static_cast<std::size_t>(nx)]) {
          if (u != v && distance_sq(p, positions_[u]) <= r_sq) adjacency_[v].push_back(u);
        }
      }
    }
  }
}

const Point2D& SensorNetwork::position(NodeId node) const {
  PRLC_REQUIRE(node < positions_.size(), "node id out of range");
  return positions_[node];
}

const Point2D& SensorNetwork::location_point(LocationId loc) const {
  PRLC_REQUIRE(loc < location_points_.size(), "location id out of range");
  return location_points_[loc];
}

const std::vector<NodeId>& SensorNetwork::neighbors(NodeId node) const {
  PRLC_REQUIRE(node < adjacency_.size(), "node id out of range");
  return adjacency_[node];
}

NodeId SensorNetwork::closest_alive(const Point2D& p) const {
  // Expanding ring search over grid cells; terminates once the closest
  // found node is nearer than the next unexplored ring can offer.
  const auto cells = static_cast<std::ptrdiff_t>(cells_);
  const auto cx = static_cast<std::ptrdiff_t>(std::min(
      static_cast<std::size_t>(p.x * static_cast<double>(cells_)), cells_ - 1));
  const auto cy = static_cast<std::ptrdiff_t>(std::min(
      static_cast<std::size_t>(p.y * static_cast<double>(cells_)), cells_ - 1));
  const double cell_width = 1.0 / static_cast<double>(cells_);

  NodeId best = std::numeric_limits<NodeId>::max();
  double best_sq = std::numeric_limits<double>::infinity();
  for (std::ptrdiff_t ring = 0; ring < 2 * cells; ++ring) {
    // Scan the square ring at Chebyshev distance `ring`.
    bool any_cell = false;
    for (std::ptrdiff_t dy = -ring; dy <= ring; ++dy) {
      for (std::ptrdiff_t dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        const std::ptrdiff_t nx = cx + dx;
        const std::ptrdiff_t ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        any_cell = true;
        for (NodeId u : grid_[static_cast<std::size_t>(ny) * cells_ + static_cast<std::size_t>(nx)]) {
          if (!alive(u)) continue;
          const double d_sq = distance_sq(p, positions_[u]);
          if (d_sq < best_sq) {
            best_sq = d_sq;
            best = u;
          }
        }
      }
    }
    // A node found at ring k dominates anything at ring >= k+2; one extra
    // ring is enough to be exact.
    if (best != std::numeric_limits<NodeId>::max()) {
      const double safe = static_cast<double>(ring) * cell_width;
      if (best_sq <= safe * safe || ring == 2 * cells - 1) break;
    }
    if (!any_cell && ring > cells) break;
  }
  PRLC_REQUIRE(best != std::numeric_limits<NodeId>::max(), "no alive node in the field");
  return best;
}

NodeId SensorNetwork::owner_of(LocationId loc) const {
  return closest_alive(location_point(loc));
}

std::vector<NodeId> SensorNetwork::nearest_alive(const Point2D& p, std::size_t count) const {
  // Collect alive nodes with distances and partial-sort; W is a few
  // thousand at most in these simulations, so the linear scan is fine and
  // exact (the grid only accelerates the single-nearest query).
  std::vector<std::pair<double, NodeId>> alive_nodes;
  alive_nodes.reserve(positions_.size());
  for (NodeId v = 0; v < positions_.size(); ++v) {
    if (alive(v)) alive_nodes.emplace_back(distance_sq(p, positions_[v]), v);
  }
  const std::size_t take = std::min(count, alive_nodes.size());
  std::partial_sort(alive_nodes.begin(), alive_nodes.begin() + static_cast<std::ptrdiff_t>(take),
                    alive_nodes.end());
  std::vector<NodeId> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(alive_nodes[i].second);
  return out;
}

std::vector<NodeId> SensorNetwork::owner_candidates(LocationId loc, std::size_t count) const {
  return nearest_alive(location_point(loc), count);
}

std::size_t SensorNetwork::bfs_hops(NodeId from, NodeId to) const {
  if (from == to) return 0;
  std::vector<std::size_t> dist(positions_.size(), std::numeric_limits<std::size_t>::max());
  std::deque<NodeId> queue;
  dist[from] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId u : adjacency_[v]) {
      if (!alive(u) || dist[u] != std::numeric_limits<std::size_t>::max()) continue;
      dist[u] = dist[v] + 1;
      if (u == to) return dist[u];
      queue.push_back(u);
    }
  }
  return std::numeric_limits<std::size_t>::max();
}

void SensorNetwork::route(std::span<const NodeId> from, LocationId loc,
                          std::span<RouteResult> out) const {
  PRLC_REQUIRE(out.size() == from.size(), "one route result per origin");
  for (const NodeId v : from) {
    PRLC_REQUIRE(v < positions_.size(), "node id out of range");
    PRLC_REQUIRE(alive(v), "routing from a failed node");
  }
  const Point2D target = location_point(loc);
  if (from.empty()) return;
  const NodeId owner = owner_of(loc);
  for (std::size_t i = 0; i < from.size(); ++i) out[i] = walk(from[i], target, owner);
}

RouteResult SensorNetwork::walk(NodeId from, const Point2D& target, NodeId owner) const {
  RouteResult result;
  NodeId current = from;
  while (current != owner) {
    // Greedy step: alive neighbor strictly closest to the target point.
    const double here = distance_sq(positions_[current], target);
    NodeId next = current;
    double next_d = here;
    for (NodeId u : adjacency_[current]) {
      if (!alive(u)) continue;
      const double d = distance_sq(positions_[u], target);
      if (d < next_d) {
        next_d = d;
        next = u;
      }
    }
    if (next == current) {
      // Local minimum: perimeter-mode stand-in — shortest-path detour.
      const std::size_t detour = bfs_hops(current, owner);
      if (detour == std::numeric_limits<std::size_t>::max()) return result;  // partitioned
      result.hops += detour;
      current = owner;
      break;
    }
    current = next;
    ++result.hops;
    if (result.hops > positions_.size()) return result;  // safety net
  }
  result.delivered = true;
  result.owner = owner;
  return result;
}

bool SensorNetwork::alive_graph_connected() const {
  NodeId start = std::numeric_limits<NodeId>::max();
  std::size_t alive_total = 0;
  for (NodeId v = 0; v < positions_.size(); ++v) {
    if (alive(v)) {
      ++alive_total;
      if (start == std::numeric_limits<NodeId>::max()) start = v;
    }
  }
  if (alive_total <= 1) return true;
  std::vector<bool> seen(positions_.size(), false);
  std::deque<NodeId> queue{start};
  seen[start] = true;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId u : adjacency_[v]) {
      if (!alive(u) || seen[u]) continue;
      seen[u] = true;
      ++reached;
      queue.push_back(u);
    }
  }
  return reached == alive_total;
}

}  // namespace prlc::net
