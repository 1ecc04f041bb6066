#include "proto/timeline.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/collector.h"
#include "util/check.h"

namespace prlc::proto {

const char* to_string(RetentionPolicy policy) {
  switch (policy) {
    case RetentionPolicy::kSlidingWindow:
      return "sliding-window";
    case RetentionPolicy::kExponentialDecay:
      return "exponential-decay";
  }
  PRLC_ASSERT(false, "unknown retention policy");
}

TimelineStore::TimelineStore(net::Overlay& overlay, codes::PrioritySpec spec,
                             codes::PriorityDistribution dist, TimelineParams params)
    : overlay_(overlay), spec_(std::move(spec)), dist_(std::move(dist)), params_(params) {
  PRLC_REQUIRE(spec_.levels() == dist_.levels(), "spec/distribution level mismatch");
  PRLC_REQUIRE(params_.window >= 1, "retention window must be at least one round");
  PRLC_REQUIRE(overlay_.locations() >= params_.window * spec_.levels(),
               "storage budget too small for the retention window");
  slots_.resize(overlay_.locations());
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

void TimelineStore::fill_location(net::LocationId loc, const codes::SourceData<Field>& source,
                                  Rng& rng, IngestStats& stats) {
  Slot& slot = slots_[loc];
  const std::size_t level = slot.level;
  const auto [begin, end] = spec_.support(params_.scheme, level);

  StoredBlock entry;
  entry.block.level = level;
  entry.block.coeffs.assign(spec_.total(), 0);
  entry.block.payload.assign(params_.block_size, 0);
  bool placed = false;
  for (std::size_t j = begin; j < end; ++j) {
    // Each arriving source block is routed from its measuring node.
    const auto route = overlay_.route(overlay_.random_alive_node(rng), loc);
    ++stats.messages;
    if (!route.delivered) continue;
    stats.total_hops += route.hops;
    if (!placed) {
      entry.owner = route.owner;
      entry.owner_generation = overlay_.generation(route.owner);
      placed = true;
    }
    const auto beta = static_cast<Field::Symbol>(1 + rng.uniform(Field::order() - 1));
    entry.block.coeffs[j] = beta;
    Field::axpy(std::span<Field::Symbol>(entry.block.payload), beta, source.block(j));
    ++entry.arrivals;
  }
  if (placed) slot.stored = std::move(entry);
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
    for (net::LocationId loc : rounds_.back().locations) {
      slots_[loc].stored.reset();
      free_.push_back(loc);
    }
    rounds_.pop_back();
    ++stats.rounds_evicted;
  }

  rounds_.push_front(Round{stats.round_id, {}});
  const auto target = target_allocation(rounds_.size());

  // Shrink older rounds to their new (smaller) shares; their surplus
  // locations are recycled into the new round's budget.
  for (std::size_t age = 1; age < rounds_.size(); ++age) {
    auto& round = rounds_[age];
    while (round.locations.size() > target[age]) {
      const net::LocationId loc = round.locations.back();
      round.locations.pop_back();
      slots_[loc].stored.reset();
      free_.push_back(loc);
      ++stats.locations_recycled;
    }
  }

  // Claim the newest round's share.
  auto& fresh = rounds_.front();
  while (fresh.locations.size() < target[0] && !free_.empty()) {
    fresh.locations.push_back(free_.back());
    free_.pop_back();
  }
  stats.locations_assigned = fresh.locations.size();
  PRLC_ASSERT(stats.locations_assigned >= spec_.levels(),
              "round received fewer locations than priority levels");

  // Partition the round's locations across levels in ascending-priority
  // order; future shrinks pop from the back, so the round sheds its
  // lowest-priority blocks first (priority-aware aging — see header).
  const auto parts =
      codes::apportion_largest_remainder(fresh.locations.size(), dist_.values());
  std::size_t cursor = 0;
  for (std::size_t level = 0; level < parts.size(); ++level) {
    for (std::size_t i = 0; i < parts[level]; ++i) {
      slots_[fresh.locations[cursor++]].level = level;
    }
  }
  for (net::LocationId loc : fresh.locations) {
    fill_location(loc, source, rng, stats);
  }
  return stats;
}

std::vector<std::size_t> TimelineStore::retained_rounds() const {
  std::vector<std::size_t> out;
  for (const auto& round : rounds_) out.push_back(round.id);
  return out;
}

std::optional<QueryResult> TimelineStore::query(std::size_t round_id, Rng& rng) const {
  for (std::size_t age = 0; age < rounds_.size(); ++age) {
    const auto& round = rounds_[age];
    if (round.id != round_id) continue;

    QueryResult result;
    result.round_id = round_id;
    result.age = age;
    result.locations_allotted = round.locations.size();

    std::vector<net::LocationId> alive_locs;
    for (net::LocationId loc : round.locations) {
      const auto& slot = slots_[loc];
      if (slot.stored.has_value() && slot.stored->retrievable(overlay_)) alive_locs.push_back(loc);
    }
    result.blocks_retrievable = alive_locs.size();
    rng.shuffle(std::span<net::LocationId>(alive_locs));

    codes::PriorityDecoder<Field> decoder(params_.scheme, spec_, params_.block_size);
    for (net::LocationId loc : alive_locs) decoder.add(slots_[loc].stored->block);
    result.decoded_levels = decoder.decoded_levels();
    result.decoded_blocks = decoder.decoded_prefix_blocks();
    return result;
  }
  return std::nullopt;
}

}  // namespace prlc::proto
