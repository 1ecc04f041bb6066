// Replication baseline — storage without coding.
//
// Sec. 5.2 of the paper identifies plain replication as the degenerate
// case of SLC with one source block per level: recovering everything
// needs ~ N ln N random blocks (coupon collector). This module makes the
// baseline explicit so benches can plot it next to RLC/SLC/PLC: each
// "coded" block is a verbatim copy of one source block; the collector
// just tracks which originals it has seen. Like the Sec.-6 comparison
// itself, it is index-only: a replica names its source block and level.
#pragma once

#include <vector>

#include "codes/priority_spec.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::codes {

/// A replica: one source block stored verbatim.
struct ReplicaBlock {
  std::size_t source_index = 0;
  std::size_t level = 0;
};

/// Emits replicas. The replica's level follows the priority distribution
/// (like coded blocks); the source block is uniform within that level.
class ReplicationEncoder {
 public:
  explicit ReplicationEncoder(PrioritySpec spec) : spec_(std::move(spec)) {}

  ReplicaBlock replicate(std::size_t level, Rng& rng) const {
    PRLC_REQUIRE(level < spec_.levels(), "level out of range");
    return ReplicaBlock{.source_index = spec_.level_begin(level) +
                                        rng.uniform(spec_.level_size(level)),
                        .level = level};
  }

  ReplicaBlock replicate_random(const PriorityDistribution& dist, Rng& rng) const {
    PRLC_REQUIRE(dist.levels() == spec_.levels(),
                 "priority distribution and spec disagree on level count");
    return replicate(dist.sample_level(rng), rng);
  }

 private:
  PrioritySpec spec_;
};

/// Tracks which source blocks the collected replicas name.
class ReplicationCollector {
 public:
  explicit ReplicationCollector(PrioritySpec spec)
      : spec_(std::move(spec)), seen_(spec_.total(), false) {}

  /// Returns true when this replica was new.
  bool add(const ReplicaBlock& block) {
    PRLC_REQUIRE(block.source_index < spec_.total(), "replica index out of range");
    if (seen_[block.source_index]) return false;
    seen_[block.source_index] = true;
    ++distinct_;
    return true;
  }

  /// Number of distinct source blocks collected (any order).
  std::size_t distinct_blocks() const { return distinct_; }
  bool is_block_decoded(std::size_t j) const {
    PRLC_REQUIRE(j < spec_.total(), "source block index out of range");
    return seen_[j];
  }

 private:
  PrioritySpec spec_;
  std::vector<bool> seen_;
  std::size_t distinct_ = 0;
};

}  // namespace prlc::codes
