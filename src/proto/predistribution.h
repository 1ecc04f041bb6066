// Decentralized pre-distribution and in-network encoding (Sec. 4).
//
// The protocol, as the paper specifies it:
//  1. All nodes share a common random seed, from which everyone derives
//     the same M random locations in the geometric space (the overlay
//     does this — see SensorNetwork / ChordNetwork).
//  2. The M locations are partitioned into n parts, part i holding
//     round(M * p_i) locations — the priority distribution made physical.
//     A store may also hold a list of the overlay's locations instead of
//     all M (proto/timeline.h keeps one such store per measurement round).
//  3. A source block of level i is disseminated to the locations that
//     will encode it: part i only under SLC; parts i..n under PLC; all
//     locations under RLC. Each delivery is geometric routing from the
//     measuring node to the location's owner.
//  4. Each location stores exactly one coded block, accumulated online as
//     c <- c + beta * x with beta drawn fresh per arrival — no node ever
//     sees all the data (distributed encoding).
//
// Sparse mode implements the O(ln N) row-weight result cited from
// Dimakis et al.: a location's coded block combines only
// ceil(factor * ln(support)) randomly chosen source blocks of its support
// set, so each source block travels to only O(ln N) locations instead of
// all of them. (We sample the selection location-side; the per-source
// destination lists of the paper's narration are the same bipartite graph
// read from the other side.)
#pragma once

#include <optional>
#include <vector>

#include "codes/coded_block.h"
#include "codes/priority_spec.h"
#include "codes/scheme.h"
#include "codes/source_data.h"
#include "gf/gf256.h"
#include "net/overlay.h"
#include "util/random.h"

namespace prlc::proto {

/// The protocol works over the paper's field.
using Field = gf::Gf256;

struct ProtocolParams {
  codes::Scheme scheme = codes::Scheme::kPlc;
  std::size_t block_size = 16;  ///< payload symbols per source block
  bool sparse = false;          ///< O(ln N) selections per coded block
  double sparsity_factor = 3.0;
  /// Max coded blocks a node will store (Sec. 2/4: "each node can store d
  /// coded blocks, M should be smaller than W d"). 0 = unlimited. When a
  /// location's primary owner is full, placement spills to the next owner
  /// candidate (next-nearest node / next ring successor).
  std::size_t node_capacity = 0;
};

/// Cost and load accounting for one dissemination run.
struct DisseminationStats {
  std::size_t messages = 0;        ///< source-block deliveries routed
  std::size_t total_hops = 0;      ///< overlay hops across all deliveries
  std::size_t failed_routes = 0;   ///< deliveries lost to partitions
  std::size_t max_node_load = 0;   ///< max coded blocks on any node
  double mean_node_load = 0;       ///< mean over nodes owning >= 1 block
  std::size_t capacity_spills = 0;     ///< locations placed off their primary owner
  std::size_t capacity_overflows = 0;  ///< locations dropped: every node full
};

/// One stored coded block: where it lives and what it contains.
struct StoredBlock {
  net::NodeId owner = 0;  ///< node that held the location at placement
  std::uint32_t owner_generation = 0;  ///< owner's incarnation at placement
  codes::CodedBlock<Field> block;
  std::size_t arrivals = 0;  ///< source blocks accumulated into it

  /// Retrievable while the owner incarnation that received it is alive.
  bool retrievable(const net::Overlay& overlay) const {
    return overlay.alive(owner) && overlay.generation(owner) == owner_generation;
  }
};

class Predistribution {
 public:
  /// A store over all M of the overlay's locations: store location i is
  /// overlay location i.
  Predistribution(net::Overlay& overlay, codes::PrioritySpec spec,
                  codes::PriorityDistribution dist, ProtocolParams params);

  /// A store over the listed overlay locations: store location i stands
  /// for overlay location `at[i]`. The list is partitioned per `dist` in
  /// its own order, so levels ascend along it (largest-remainder rounding,
  /// so every part size is within one block of |at| * p_i).
  Predistribution(net::Overlay& overlay, codes::PrioritySpec spec,
                  codes::PriorityDistribution dist, ProtocolParams params,
                  std::vector<net::LocationId> at);

  /// Run the full dissemination of `source` (must match the spec and the
  /// params' block size). Each source block originates at a random alive
  /// node — its "measuring" node. Repeatable: clears previous contents.
  DisseminationStats disseminate(const codes::SourceData<Field>& source, Rng& rng);

  /// Level a location's coded block belongs to (the partition of step 2).
  std::size_t level_of_location(net::LocationId loc) const;

  /// The overlay location each store location stands for (the store's
  /// LocationIds index this list). Inside the store only routing and
  /// ownership read it.
  const std::vector<net::LocationId>& overlay_locations() const { return at_; }

  /// Keep at most the first `count` locations: the tail, which holds the
  /// lowest-priority levels, is dropped together with its blocks. Returns
  /// the dropped overlay locations, last first.
  std::vector<net::LocationId> shrink_to(std::size_t count);

  /// Stored block at a location; nullptr when the last dissemination
  /// delivered nothing there (possible under sparse mode) or dropped it
  /// by capacity overflow, or dissemination has not run.
  const StoredBlock* stored(net::LocationId loc) const;

  /// Locations whose placement-time owner is still alive — the blocks a
  /// collector can still retrieve.
  std::vector<net::LocationId> surviving_locations() const;

  /// Locations whose block is gone (owner failed) or was never written —
  /// the candidates for a maintenance refresh (see proto/refresh.h).
  std::vector<net::LocationId> lost_locations() const;

  /// Replace a lost location's content with a freshly rebuilt coded block
  /// owned by the location's *current* owner. Used by the refresh
  /// protocol; the block must match the location's level and the spec.
  void store_rebuilt(net::LocationId loc, codes::CodedBlock<Field> block);

  const codes::PrioritySpec& spec() const { return spec_; }
  const codes::PriorityDistribution& dist() const { return dist_; }
  const ProtocolParams& params() const { return params_; }
  net::Overlay& overlay() const { return overlay_; }

 private:
  net::Overlay& overlay_;
  codes::PrioritySpec spec_;
  codes::PriorityDistribution dist_;
  ProtocolParams params_;
  std::vector<net::LocationId> at_;          ///< overlay location per location
  std::vector<std::size_t> location_level_;  ///< partition: level per location
  std::vector<std::optional<StoredBlock>> storage_;
};

}  // namespace prlc::proto
