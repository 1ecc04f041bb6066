// Temporal storage: rounds of periodically measured data under a fixed
// storage budget.
//
// The paper's data model is *periodic* measurement (Sec. 1: data "may
// grow to substantial volumes over time") with strictly limited per-node
// storage — so a deployment cannot keep every snapshot at full
// redundancy forever. TimelineStore manages the overlay's M locations
// across measurement rounds. It is a retention policy only: each retained
// round is one Sec.-4 Predistribution over the overlay locations that
// round holds, so storing and reading a round are the store's own:
//
//  * every ingest() builds a fresh store over the locations allotted to
//    the new round and stores its N-block snapshot through disseminate();
//  * a retention policy reallocates the location budget as rounds age:
//      - kSlidingWindow: the most recent `window` rounds share the budget
//        equally; older rounds are evicted outright;
//      - kExponentialDecay: a round of age a keeps a share proportional
//        to 2^-a (within the window) — snapshots fade gracefully;
//  * shrinking is *priority-aware*: a round's store is partitioned in
//    ascending priority level, and Predistribution::shrink_to recycles
//    surplus from the back, so an aging round gives up its lowest-priority
//    coded blocks first and its decodable prefix shrinks level by level
//    instead of collapsing (the priority code's partial-recovery property
//    is exactly what makes shrinking redundancy useful);
//  * query() reads any retained round through collect(), so every block
//    travels the CRC-checked wire path, and decodes whatever survives
//    churn and reallocation.
#pragma once

#include <deque>
#include <optional>

#include "proto/predistribution.h"

namespace prlc::proto {

enum class RetentionPolicy { kSlidingWindow, kExponentialDecay };

struct TimelineParams {
  codes::Scheme scheme = codes::Scheme::kPlc;
  std::size_t block_size = 16;
  RetentionPolicy policy = RetentionPolicy::kSlidingWindow;
  std::size_t window = 4;  ///< rounds retained
};

struct IngestStats {
  std::size_t round_id = 0;
  std::size_t locations_assigned = 0;  ///< budget given to the new round
  std::size_t locations_recycled = 0;  ///< taken from older rounds
  std::size_t rounds_evicted = 0;
  std::size_t messages = 0;
  std::size_t total_hops = 0;
};

struct QueryResult {
  std::size_t round_id = 0;
  std::size_t age = 0;                  ///< 0 = newest retained round
  std::size_t locations_allotted = 0;   ///< current budget of the round
  std::size_t blocks_retrievable = 0;   ///< surviving, post-churn
  std::size_t decoded_levels = 0;
  std::size_t decoded_blocks = 0;
};

class TimelineStore {
 public:
  /// The store owns all of the overlay's locations as its budget.
  TimelineStore(net::Overlay& overlay, codes::PrioritySpec spec,
                codes::PriorityDistribution dist, TimelineParams params);

  /// Store a new round's snapshot (source must match spec/block_size).
  IngestStats ingest(const codes::SourceData<Field>& source, Rng& rng);

  /// Rounds currently retained (newest first).
  std::vector<std::size_t> retained_rounds() const;

  /// Decode a retained round; nullopt if it was evicted / never existed.
  std::optional<QueryResult> query(std::size_t round_id, Rng& rng) const;

 private:
  struct Round {
    std::size_t id = 0;
    Predistribution store;
  };

  /// Target location share per age under the policy (sums to <= budget).
  std::vector<std::size_t> target_allocation(std::size_t active_rounds) const;

  net::Overlay& overlay_;
  codes::PrioritySpec spec_;
  codes::PriorityDistribution dist_;
  TimelineParams params_;
  std::deque<Round> rounds_;           ///< newest at front
  std::vector<net::LocationId> free_;  ///< unassigned budget
  std::size_t next_round_id_ = 0;
};

}  // namespace prlc::proto
