#include "proto/predistribution.h"

#include <algorithm>
#include <numeric>

#include "gf/gf256_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

/// Sparse mode's row weight is ceil(kSparsityFactor * ln(support size)).
constexpr double kSparsityFactor = 3.0;

std::vector<net::LocationId> all_locations(const net::Overlay& overlay) {
  std::vector<net::LocationId> at(overlay.locations());
  std::iota(at.begin(), at.end(), net::LocationId{0});
  return at;
}

}  // namespace

Predistribution::Predistribution(net::Overlay& overlay, codes::PrioritySpec spec,
                                 codes::PriorityDistribution dist, ProtocolParams params)
    : Predistribution(overlay, std::move(spec), std::move(dist), params,
                      all_locations(overlay)) {}

Predistribution::Predistribution(net::Overlay& overlay, codes::PrioritySpec spec,
                                 codes::PriorityDistribution dist, ProtocolParams params,
                                 std::vector<net::LocationId> at)
    : overlay_(overlay),
      spec_(std::move(spec)),
      dist_(std::move(dist)),
      params_(params),
      at_(std::move(at)) {
  PRLC_REQUIRE(spec_.levels() == dist_.levels(), "spec/distribution level mismatch");
  PRLC_REQUIRE(at_.size() >= spec_.levels(),
               "need at least one storage location per priority level");
  for (net::LocationId loc : at_) {
    PRLC_REQUIRE(loc < overlay_.locations(), "location outside the overlay");
  }

  // Step 2: partition the locations into n parts sized ~ |at| * p_i, in
  // list order. Zero-weight levels legitimately get zero locations
  // (Table 1, Case 2).
  const auto part_sizes = codes::apportion_largest_remainder(at_.size(), dist_.values());
  location_level_.reserve(at_.size());
  for (std::size_t level = 0; level < part_sizes.size(); ++level) {
    location_level_.insert(location_level_.end(), part_sizes[level], level);
  }
  PRLC_ASSERT(location_level_.size() == at_.size(), "partition size mismatch");
  storage_.assign(at_.size(), std::nullopt);
}

std::vector<net::LocationId> Predistribution::shrink_to(std::size_t count) {
  if (count >= at_.size()) return {};
  std::vector<net::LocationId> dropped(at_.rbegin(),
                                       at_.rend() - static_cast<std::ptrdiff_t>(count));
  // Release the capacity too: an aging round's memory follows its share.
  at_.resize(count);
  at_.shrink_to_fit();
  location_level_.resize(count);
  location_level_.shrink_to_fit();
  storage_.resize(count);
  storage_.shrink_to_fit();
  return dropped;
}

std::size_t Predistribution::level_of_location(net::LocationId loc) const {
  PRLC_REQUIRE(loc < location_level_.size(), "location id out of range");
  return location_level_[loc];
}

const StoredBlock* Predistribution::stored(net::LocationId loc) const {
  PRLC_REQUIRE(loc < storage_.size(), "location id out of range");
  return storage_[loc].has_value() ? &*storage_[loc] : nullptr;
}

DisseminationStats Predistribution::disseminate(const codes::SourceData<Field>& source,
                                                Rng& rng) {
  PRLC_REQUIRE(source.blocks() == spec_.total(), "source data does not match the spec");
  PRLC_REQUIRE(source.block_size() == params_.block_size, "source block size mismatch");

  storage_.assign(storage_.size(), std::nullopt);
  DisseminationStats stats;
  obs::ScopedSpan span("disseminate", "predist",
                       {{"locations", static_cast<double>(storage_.size())},
                        {"sources", static_cast<double>(spec_.total())}});

  // Step 3 origin assignment: each source block is "measured" at a random
  // alive node (the draw Overlay::random_alive_node makes, over one list).
  const std::vector<net::NodeId> alive = overlay_.alive_nodes();
  PRLC_REQUIRE(!alive.empty(), "no alive nodes left in the overlay");
  std::vector<net::NodeId> origin(spec_.total());
  for (auto& node : origin) node = alive[rng.uniform(alive.size())];

  // Capacity-aware placement: resolve each location's hosting node up
  // front, spilling past full nodes (paper: each node stores d blocks).
  std::vector<std::size_t> node_load(overlay_.nodes(), 0);
  std::vector<std::optional<net::NodeId>> host(storage_.size());
  for (net::LocationId loc = 0; loc < storage_.size(); ++loc) {
    if (params_.node_capacity == 0) {
      host[loc] = overlay_.owner_of(at_[loc]);
      continue;
    }
    // Geometric growth of the candidate window keeps this O(alive) total.
    for (std::size_t window = 4; !host[loc].has_value(); window *= 2) {
      const auto candidates = overlay_.owner_candidates(at_[loc], window);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (node_load[candidates[i]] < params_.node_capacity) {
          host[loc] = candidates[i];
          if (i > 0) ++stats.capacity_spills;
          // Walking past full candidates costs one extra hop each.
          stats.total_hops += i;
          break;
        }
      }
      if (candidates.size() < window) break;  // scanned every alive node
    }
    if (host[loc].has_value()) {
      ++node_load[*host[loc]];
    } else {
      ++stats.capacity_overflows;  // M > W*d misconfiguration
    }
  }

  // Per-location accumulation (step 4) in two passes. The first decides,
  // for each location, which source blocks of its support arrive (all of
  // them, or the sparse O(ln .) selection), routes them in one overlay
  // call and draws the beta of each delivered arrival in selection order,
  // the protocol's order of draws (routing draws none): this fixes every
  // coefficient of c = sum beta * x without touching a payload byte.
  std::vector<std::size_t> selected;
  std::vector<net::NodeId> from;
  std::vector<net::RouteResult> routes;
  for (net::LocationId loc = 0; loc < storage_.size(); ++loc) {
    if (!host[loc].has_value()) continue;  // dropped by capacity overflow
    const std::size_t level = location_level_[loc];
    const auto [begin, end] = spec_.support(params_.scheme, level);
    const std::size_t width = end - begin;
    PRLC_ASSERT(width > 0, "empty support for a location");

    selected.clear();
    if (!params_.sparse) {
      selected.resize(width);
      std::iota(selected.begin(), selected.end(), begin);
    } else {
      const std::size_t take = codes::sparse_row_weight(kSparsityFactor, width);
      for (std::size_t offset : rng.sample_without_replacement(width, take)) {
        selected.push_back(begin + offset);
      }
    }
    from.resize(selected.size());
    routes.resize(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) from[i] = origin[selected[i]];
    overlay_.route(from, at_[loc], routes);
    stats.messages += selected.size();

    std::size_t delivered = 0;
    for (const net::RouteResult& route : routes) {
      if (!route.delivered) continue;
      ++delivered;
      stats.total_hops += route.hops;
    }
    stats.failed_routes += selected.size() - delivered;
    if (delivered == 0) continue;
    StoredBlock& entry = storage_[loc].emplace();
    entry.owner = *host[loc];
    entry.owner_generation = overlay_.generation(entry.owner);
    entry.block.level = level;
    entry.block.coeffs.assign(spec_.total(), 0);
    entry.arrivals = delivered;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      if (!routes[i].delivered) continue;
      // beta nonzero (a zero draw would waste the delivery; the paper's
      // footnote-1 field-size assumption).
      const auto beta = static_cast<Field::Symbol>(1 + rng.uniform(Field::order() - 1));
      Field::Symbol& c = entry.block.coeffs[selected[i]];
      c = Field::add(c, beta);
    }
    if (obs::trace_enabled()) {
      obs::TraceRecorder::global().instant(
          "block_placed", "predist",
          {{"location", static_cast<double>(at_[loc])},
           {"owner", static_cast<double>(entry.owner)},
           {"level", static_cast<double>(level)},
           {"arrivals", static_cast<double>(entry.arrivals)}});
    }
    entry.block.payload.resize(params_.block_size);
  }
  // The second pass computes every stored payload as one tile-major
  // product of the coefficient rows with the source blocks, so each tile
  // of the source data is read from memory once. XOR accumulation is
  // order-free: the bytes equal the arrival-by-arrival c <- c + beta * x
  // of the protocol. The row pointers are gathered only now, so these
  // short-lived arrays never sit between the stored blocks on the heap.
  std::vector<Field::Symbol*> payloads;
  std::vector<const Field::Symbol*> coeff_rows;
  payloads.reserve(storage_.size());
  coeff_rows.reserve(storage_.size());
  for (auto& slot : storage_) {
    if (!slot.has_value()) continue;
    payloads.push_back(slot->block.payload.data());
    coeff_rows.push_back(slot->block.coeffs.data());
  }
  std::vector<const Field::Symbol*> sources(spec_.total());
  for (std::size_t j = 0; j < sources.size(); ++j) sources[j] = source.block(j).data();
  gf::gf256_combine_batch(payloads.data(), coeff_rows.data(), payloads.size(), sources.data(),
                          sources.size(), params_.block_size);

  static obs::Counter& messages = obs::counter("predist.messages");
  static obs::Counter& hops = obs::counter("predist.hops");
  static obs::Counter& failed = obs::counter("predist.failed_routes");
  messages.add(stats.messages);
  hops.add(stats.total_hops);
  failed.add(stats.failed_routes);

  // Load accounting over placement-time owners.
  std::vector<std::size_t> load(overlay_.nodes(), 0);
  for (const auto& slot : storage_) {
    if (slot.has_value()) ++load[slot->owner];
  }
  std::size_t loaded_nodes = 0;
  std::size_t loaded_total = 0;
  for (std::size_t l : load) {
    stats.max_node_load = std::max(stats.max_node_load, l);
    if (l > 0) {
      ++loaded_nodes;
      loaded_total += l;
    }
  }
  stats.mean_node_load =
      loaded_nodes == 0 ? 0.0
                        : static_cast<double>(loaded_total) / static_cast<double>(loaded_nodes);
  return stats;
}

std::vector<net::LocationId> Predistribution::lost_locations() const {
  std::vector<net::LocationId> out;
  for (net::LocationId loc = 0; loc < storage_.size(); ++loc) {
    const auto& slot = storage_[loc];
    if (!slot.has_value() || !slot->retrievable(overlay_)) out.push_back(loc);
  }
  return out;
}

void Predistribution::store_rebuilt(net::LocationId loc, codes::CodedBlock<Field> block) {
  PRLC_REQUIRE(loc < storage_.size(), "location id out of range");
  PRLC_REQUIRE(block.level == location_level_[loc], "rebuilt block level mismatch");
  PRLC_REQUIRE(block.coeffs.size() == spec_.total(), "rebuilt block width mismatch");
  PRLC_REQUIRE(block.payload.size() == params_.block_size, "rebuilt block payload mismatch");
  StoredBlock entry;
  entry.owner = overlay_.owner_of(at_[loc]);
  entry.owner_generation = overlay_.generation(entry.owner);
  std::size_t nnz = 0;
  for (auto c : block.coeffs) nnz += c != 0 ? 1 : 0;
  entry.arrivals = nnz;
  entry.block = std::move(block);
  storage_[loc] = std::move(entry);
}

std::vector<net::LocationId> Predistribution::surviving_locations() const {
  std::vector<net::LocationId> out;
  for (net::LocationId loc = 0; loc < storage_.size(); ++loc) {
    const auto& slot = storage_[loc];
    if (slot.has_value() && slot->retrievable(overlay_)) out.push_back(loc);
  }
  return out;
}

}  // namespace prlc::proto
