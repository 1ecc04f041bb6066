#include "proto/timeline.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/collector.h"
#include "util/check.h"

namespace prlc::proto {

TimelineStore::TimelineStore(net::Overlay& overlay, codes::PrioritySpec spec,
                             codes::PriorityDistribution dist, TimelineParams params)
    : overlay_(overlay), spec_(std::move(spec)), dist_(std::move(dist)), params_(params) {
  PRLC_REQUIRE(spec_.levels() == dist_.levels(), "spec/distribution level mismatch");
  PRLC_REQUIRE(params_.window >= 1, "retention window must be at least one round");
  PRLC_REQUIRE(overlay_.locations() >= params_.window * spec_.levels(),
               "storage budget too small for the retention window");
  free_.reserve(overlay_.locations());
  for (net::LocationId loc = 0; loc < overlay_.locations(); ++loc) free_.push_back(loc);
}

std::vector<std::size_t> TimelineStore::target_allocation(std::size_t active_rounds) const {
  const std::size_t budget = overlay_.locations();
  PRLC_ASSERT(active_rounds >= 1 && active_rounds <= params_.window,
              "active round count out of range");
  std::vector<std::size_t> target(active_rounds, 0);
  switch (params_.policy) {
    case RetentionPolicy::kSlidingWindow: {
      // Equal shares over the *window* (not just active rounds), so early
      // rounds don't balloon and then shrink: steady-state from round 1.
      const std::size_t share = budget / params_.window;
      for (auto& t : target) t = share;
      target[0] += budget - share * params_.window;  // remainder to newest
      return target;
    }
    case RetentionPolicy::kExponentialDecay: {
      // share(age) ~ 2^-age, normalized over the full window.
      double total = 0;
      for (std::size_t a = 0; a < params_.window; ++a) total += std::pow(0.5, a);
      std::size_t assigned = 0;
      for (std::size_t a = 0; a < active_rounds; ++a) {
        target[a] = static_cast<std::size_t>(
            std::floor(static_cast<double>(budget) * std::pow(0.5, a) / total));
        assigned += target[a];
      }
      if (active_rounds == params_.window) target[0] += budget - assigned;
      return target;
    }
  }
  PRLC_ASSERT(false, "unknown retention policy");
}

IngestStats TimelineStore::ingest(const codes::SourceData<Field>& source, Rng& rng) {
  PRLC_REQUIRE(source.blocks() == spec_.total(), "snapshot does not match the spec");
  PRLC_REQUIRE(source.block_size() == params_.block_size, "snapshot block size mismatch");

  IngestStats stats;
  stats.round_id = next_round_id_++;
  static obs::Counter& rounds_ingested = obs::counter("timeline.rounds");
  rounds_ingested.add();
  obs::ScopedSpan span("ingest_round", "timeline",
                       {{"round", static_cast<double>(stats.round_id)}});

  // Evict rounds beyond the window (before the new one joins).
  while (rounds_.size() >= params_.window) {
    const auto& evicted = rounds_.back().store.overlay_locations();
    free_.insert(free_.end(), evicted.begin(), evicted.end());
    rounds_.pop_back();
    ++stats.rounds_evicted;
  }

  const auto target = target_allocation(rounds_.size() + 1);

  // Shrink older rounds to their new (smaller) shares; their surplus
  // locations are recycled into the new round's budget.
  for (std::size_t age = 1; age < target.size(); ++age) {
    const auto recycled = rounds_[age - 1].store.shrink_to(target[age]);
    free_.insert(free_.end(), recycled.begin(), recycled.end());
    stats.locations_recycled += recycled.size();
  }

  // Claim the newest round's share and store the snapshot there. The
  // store partitions the claimed list in ascending-priority order, so
  // future shrinks shed the round's lowest-priority blocks first
  // (priority-aware aging — see header).
  std::vector<net::LocationId> at;
  while (at.size() < target[0] && !free_.empty()) {
    at.push_back(free_.back());
    free_.pop_back();
  }
  stats.locations_assigned = at.size();
  const ProtocolParams protocol{.scheme = params_.scheme, .block_size = params_.block_size};
  Round& fresh = rounds_.emplace_front(
      Round{stats.round_id, Predistribution(overlay_, spec_, dist_, protocol, std::move(at))});
  const DisseminationStats stored = fresh.store.disseminate(source, rng);
  stats.messages = stored.messages;
  stats.total_hops = stored.total_hops;
  return stats;
}

std::vector<std::size_t> TimelineStore::retained_rounds() const {
  std::vector<std::size_t> out;
  for (const auto& round : rounds_) out.push_back(round.id);
  return out;
}

std::optional<QueryResult> TimelineStore::query(std::size_t round_id, Rng& rng) const {
  for (std::size_t age = 0; age < rounds_.size(); ++age) {
    if (rounds_[age].id != round_id) continue;
    const Predistribution& store = rounds_[age].store;
    codes::PriorityDecoder<Field> decoder(params_.scheme, spec_, params_.block_size);
    const CollectionResult read = collect(store, decoder, {}, rng).result;
    return QueryResult{.round_id = round_id,
                       .age = age,
                       .locations_allotted = store.overlay_locations().size(),
                       .blocks_retrievable = read.surviving_locations,
                       .decoded_levels = read.decoded_levels,
                       .decoded_blocks = read.decoded_blocks};
  }
  return std::nullopt;
}

}  // namespace prlc::proto
