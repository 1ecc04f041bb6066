#include "proto/collector.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "codes/wire_format.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

/// The fixed retry schedule (collector.h): retry k of a location backs
/// off kBaseBackoffUs * 2^(k-1), jittered by +-kBackoffJitter.
constexpr std::size_t kMaxAttempts = 4;  ///< fetch attempts per location
constexpr double kBaseBackoffUs = 200;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.25;  ///< +- fraction of the delay
/// Retryable faults (timeout/transient/wire error) after which a node is
/// blacklisted and its remaining blocks written off.
constexpr std::size_t kNodeFaultBudget = 8;
/// A reply slower than this triggers a hedged fetch of the next pending
/// location.
constexpr std::uint64_t kHedgeDeadlineUs = 2000;

void validate_options(const CollectorOptions& options, const codes::PrioritySpec& spec) {
  PRLC_REQUIRE(!options.target_levels.has_value() ||
                   (*options.target_levels >= 1 && *options.target_levels <= spec.levels()),
               "target_levels must be in [1, the spec's level count] when set "
               "(use nullopt to drain all)");
  PRLC_REQUIRE(options.manifest == nullptr ||
                   options.manifest->fingerprints.size() == spec.total(),
               "fingerprint manifest must cover exactly the spec's source blocks");
}

/// Lay the fetch plan of a read that stops at `k` levels over the shuffled
/// `order` (collector.h says why): levels k-1, ..., 0, then k, ..., n-1,
/// and under SLC no level >= k at all. The sort is stable, so each level
/// keeps its shuffled order.
void plan_partial_read(std::vector<net::LocationId>& order, const Predistribution& dist,
                       std::size_t k) {
  if (dist.params().scheme == codes::Scheme::kSlc) {
    std::erase_if(order, [&](net::LocationId loc) { return dist.level_of_location(loc) >= k; });
  }
  std::ranges::stable_sort(order, {}, [&](net::LocationId loc) {
    const std::size_t level = dist.level_of_location(loc);
    return level < k ? k - 1 - level : level;
  });
}

/// The class of one fetch reply, as the collector accounted it.
enum class Reply {
  kDelivered,          ///< parsed, verified, fed to the decoder
  kWireRejected,       ///< CRC/bounds rejection — retryable elsewhere
  kForeign,            ///< CRC-valid frame that does not fit the collection — written off
  kIntegrityRejected,  ///< fingerprint mismatch — block written off, node quarantined
  kGone,               ///< dead node or crash — nothing to retry against
  kRetryable,          ///< timeout or transient error
};

/// Backoff before retry `attempt` (0-based), jittered deterministically
/// from the trial Rng. Only called on the retry path, so fault-free
/// collection consumes no extra draws.
std::uint64_t backoff_us(std::size_t attempt, Rng& rng) {
  double delay = kBaseBackoffUs * std::pow(kBackoffMultiplier, static_cast<double>(attempt));
  delay *= 1.0 + kBackoffJitter * (2.0 * rng.uniform_double() - 1.0);
  return static_cast<std::uint64_t>(delay);
}

}  // namespace

CollectionOutcome collect(FaultyChannel& channel, codes::PriorityDecoder<Field>& decoder,
                          const CollectorOptions& options, Rng& rng) {
  const bool trace = options.trace;
  const Predistribution& dist = channel.dist();
  PRLC_REQUIRE(decoder.scheme() == dist.params().scheme,
               "decoder scheme must match the predistribution");
  PRLC_REQUIRE(decoder.spec() == dist.spec(), "decoder spec must match the predistribution");
  validate_options(options, dist.spec());

  static obs::Counter& retries_ctr = obs::counter("collector.retries");
  static obs::Counter& corrupt_ctr = obs::counter("collector.corrupt_blocks");
  static obs::Counter& integrity_ctr = obs::counter("collector.integrity_violations");
  static obs::Counter& quarantine_ctr = obs::counter("collector.quarantined_nodes");
  static obs::Counter& hedges_ctr = obs::counter("collector.hedges");
  static obs::Counter& timeouts_ctr = obs::counter("collector.timeouts");
  static obs::Counter& transient_ctr = obs::counter("collector.transient_errors");
  static obs::Counter& crashes_ctr = obs::counter("collector.node_crashes");
  static obs::Counter& lost_ctr = obs::counter("collector.blocks_lost");
  static obs::Counter& blacklist_ctr = obs::counter("collector.blacklisted_nodes");
  static obs::LatencyHistogram& latency_hist = obs::histogram("collector.fetch_latency_us");

  CollectionOutcome out;
  CollectionResult& result = out.result;

  std::vector<net::LocationId> order = channel.retrievable_locations();
  result.surviving_locations = order.size();
  rng.shuffle(std::span<net::LocationId>(order));
  // One order for the main loop, the hedges and the deferrals.
  if (options.target_levels.has_value() && *options.target_levels < dist.spec().levels()) {
    plan_partial_read(order, dist, *options.target_levels);
  }

  std::unordered_map<net::NodeId, std::size_t> node_faults;
  std::unordered_set<net::NodeId> blacklisted;
  /// Attempts already spent per location, persisted across deferrals —
  /// a wire-rejected location re-enters the queue instead of retrying
  /// in place, but its kMaxAttempts cap still holds.
  std::unordered_map<net::LocationId, std::size_t> loc_attempts;
  std::size_t cursor = 0;

  // One fingerprinter per collection (the byte-sliced tables are built
  // from the manifest's seed); absent manifest, zero integrity overhead.
  std::optional<util::Fingerprinter> fingerprinter;
  if (options.manifest != nullptr) fingerprinter.emplace(options.manifest->seed);

  /// Remove a node that served a frame contradicting the manifest. Uses
  /// the same blacklist the fault budget feeds, so the main loop skips
  /// its remaining blocks, but is counted separately.
  const auto quarantine = [&](net::NodeId node) {
    if (blacklisted.insert(node).second) {
      ++out.quarantined_nodes;
      quarantine_ctr.add();
      obs::emit(obs::EventType::kNodeQuarantined, static_cast<double>(node));
    }
  };

  const auto done = [&] {
    if (options.target_levels.has_value() &&
        decoder.decoded_levels() >= *options.target_levels) {
      result.target_met = true;
      return true;
    }
    return false;
  };

  /// Parse + feed one delivered frame. A frame the wire layer rejects
  /// counts as a wire error and may be refetched. A CRC-valid frame that
  /// does not belong to this collection (another scheme or width, a level
  /// out of range, or coefficients outside its level's support, see
  /// PrioritySpec::admits) counts as a wire error too, but it is sticky,
  /// like a forged payload: a refetch serves the same bytes.
  /// The zero-copy view path hands the decoder spans straight into the
  /// reply buffer — no per-fetch payload copy; only sparse coefficient
  /// frames expand into a scratch vector reused across fetches.
  std::vector<std::uint8_t> coeff_scratch;
  const auto wire_error = [&](Reply r) {
    ++out.faults.wire_errors;
    corrupt_ctr.add();
    return r;
  };
  const auto deliver = [&](net::LocationId loc, const FetchReply& reply) {
    codes::WireBlockView view;
    try {
      view = codes::decode_wire_view(reply.bytes);
    } catch (const codes::WireFormatError&) {
      return wire_error(Reply::kWireRejected);
    }
    if (view.scheme != decoder.scheme() || view.coeff_width != decoder.spec().total()) {
      return wire_error(Reply::kForeign);
    }
    std::span<const std::uint8_t> coeffs = view.dense_coeffs;
    if (!view.dense()) {
      coeff_scratch.resize(view.coeff_width);
      view.expand_coeffs(coeff_scratch);
      coeffs = coeff_scratch;
    }
    if (!decoder.spec().admits(view.scheme, view.level, coeffs)) {
      return wire_error(Reply::kForeign);
    }
    if (fingerprinter.has_value() &&
        fingerprinter->fingerprint(view.payload) !=
            fingerprinter->combine(coeffs, options.manifest->fingerprints)) {
      // Silent corruption, localized to this exact block: the frame is
      // well-formed (CRC passed) yet its payload contradicts the
      // manifest. The lie is sticky — a refetch serves the same bytes —
      // so the block is written off and the serving node quarantined.
      ++out.faults.integrity_violations;
      integrity_ctr.add();
      obs::emit(obs::EventType::kIntegrityViolation, static_cast<double>(reply.node),
                static_cast<double>(loc));
      quarantine(reply.node);
      return Reply::kIntegrityRejected;
    }
    ++result.blocks_retrieved;
    if (decoder.add(view.level, coeffs, view.payload)) ++result.innovative_blocks;
    if (trace) result.level_trace.push_back(decoder.decoded_levels());
    return Reply::kDelivered;
  };

  /// Account for one reply: count its fault class, feed a clean frame to
  /// the decoder, log the attempt (trace runs only) and return its class.
  /// The callers decide what the class costs the node and the block.
  const auto account = [&](net::LocationId loc, const FetchReply& reply) {
    Reply r = Reply::kGone;
    switch (reply.fault) {
      case net::FaultClass::kNone:
        r = deliver(loc, reply);
        break;
      case net::FaultClass::kDeadNode:
        ++out.faults.dead_nodes;
        r = Reply::kGone;
        break;
      case net::FaultClass::kCrash:
        ++out.faults.crashes;
        crashes_ctr.add();
        r = Reply::kGone;
        break;
      case net::FaultClass::kTimeout:
        ++out.faults.timeouts;
        timeouts_ctr.add();
        r = Reply::kRetryable;
        break;
      case net::FaultClass::kTransient:
        ++out.faults.transient_errors;
        transient_ctr.add();
        r = Reply::kRetryable;
        break;
      default:
        PRLC_ASSERT(false, "channel returned an in-band fault class");
    }
    if (trace) {
      FetchAttempt a;
      a.location = loc;
      a.node = reply.node;
      a.fault = reply.fault;
      a.wire_rejected = r == Reply::kWireRejected || r == Reply::kForeign;
      a.integrity_rejected = r == Reply::kIntegrityRejected;
      a.delivered = r == Reply::kDelivered;
      out.fetch_log.push_back(a);
    }
    return r;
  };

  const auto write_off = [&] {
    ++out.blocks_lost;
    lost_ctr.add();
  };

  /// Charge one retryable fault to `node`; true when the node just
  /// exhausted its budget and got blacklisted.
  const auto charge_fault = [&](net::NodeId node) {
    const std::size_t faults = ++node_faults[node];
    if (faults < kNodeFaultBudget) return false;
    if (blacklisted.insert(node).second) {
      ++out.blacklisted_nodes;
      blacklist_ctr.add();
      obs::emit(obs::EventType::kBudgetExhausted, static_cast<double>(node),
                static_cast<double>(faults));
    }
    return true;
  };

  /// Opportunistic single-attempt fetch of the next pending location,
  /// issued when a primary reply blows the hedge deadline. No retries, no
  /// nested hedging — a hedge is a bet, not a commitment.
  const auto hedge_fetch = [&] {
    while (cursor < order.size()) {
      const net::LocationId loc = order[cursor++];
      const net::NodeId node = channel.owner_of(loc);
      if (blacklisted.contains(node) || channel.node_crashed(node)) {
        write_off();
        continue;
      }
      ++out.hedges;
      hedges_ctr.add();
      obs::emit(obs::EventType::kFetchHedged, static_cast<double>(node));
      const FetchReply reply = channel.fetch(loc, rng);
      latency_hist.record(reply.latency_us);
      out.sim_elapsed_us += reply.latency_us;
      const Reply r = account(loc, reply);
      if (r == Reply::kWireRejected || r == Reply::kRetryable) charge_fault(reply.node);
      if (r != Reply::kDelivered) write_off();
      return;
    }
  };

  /// Full self-healing fetch of one location: retry loop with exponential
  /// backoff, budget charging, hedging on slow replies.
  /// Wire-rejected frames do NOT retry in place — the location is
  /// deferred to the back of the queue (its attempt count persists in
  /// loc_attempts), so the very next fetch goes to a different node
  /// instead of hammering the one that just served garbage.
  const auto fetch_with_retry = [&](net::LocationId loc) {
    const net::NodeId node = channel.owner_of(loc);
    std::size_t& attempt = loc_attempts[loc];
    while (attempt < kMaxAttempts) {
      const FetchReply reply = channel.fetch(loc, rng);
      latency_hist.record(reply.latency_us);
      out.sim_elapsed_us += reply.latency_us;

      // A reply slower than the deadline — delivered or not — triggers
      // one hedged fetch of the next pending location (more blocks in
      // flight is the erasure-coded answer to stragglers: any innovative
      // block is as good as the slow one).
      if (reply.latency_us > kHedgeDeadlineUs && !done()) {
        hedge_fetch();
      }

      const Reply r = account(loc, reply);
      if (r == Reply::kDelivered) return;  // healed or clean — done with this block
      // An integrity rejection or a foreign frame is sticky (a refetch
      // replays the same bytes; a forger is also quarantined), and a gone
      // node has nothing to retry against: all write the block off at once.
      if (r == Reply::kWireRejected || r == Reply::kRetryable) {
        ++attempt;
        if (!charge_fault(node) && attempt < kMaxAttempts) {
          ++out.retries;
          retries_ctr.add();
          obs::emit(obs::EventType::kFetchRetry, static_cast<double>(node),
                    static_cast<double>(attempt));
          if (r == Reply::kWireRejected) {
            // Defer the location so the next fetch targets a different
            // node; no backoff — the collector moves on immediately.
            order.push_back(loc);
            return;
          }
          out.sim_elapsed_us += backoff_us(attempt - 1, rng);
          continue;
        }
      }
      // Budget exhausted or attempts spent: write the block off.
      write_off();
      return;
    }
    // Deferred location whose attempts ran out before it resurfaced.
    write_off();
  };

  while (cursor < order.size() && !done()) {
    const net::LocationId loc = order[cursor++];
    const net::NodeId node = channel.owner_of(loc);
    if (blacklisted.contains(node) || channel.node_crashed(node)) {
      write_off();
      continue;
    }
    fetch_with_retry(loc);
  }

  result.decoded_levels = decoder.decoded_levels();
  result.decoded_blocks = decoder.decoded_prefix_blocks();
  if (options.target_levels.has_value()) {
    result.target_met = result.decoded_levels >= *options.target_levels;
  }
  out.degraded = out.blocks_lost > 0;
  return out;
}

CollectionOutcome collect(const Predistribution& dist, codes::PriorityDecoder<Field>& decoder,
                          const CollectorOptions& options, Rng& rng) {
  // Null-plan channel: pristine bytes, zero extra Rng draws — but every
  // block still round-trips encode_wire/decode_wire, so the CRC path is
  // exercised by all callers (and any wire bug is counted, not thrown).
  FaultyChannel channel(dist);
  return collect(channel, decoder, options, rng);
}

std::pair<CollectionResult, bool> collect_and_verify(const Predistribution& dist,
                                                     const codes::SourceData<Field>& original,
                                                     Rng& rng) {
  codes::PriorityDecoder<Field> decoder(dist.params().scheme, dist.spec(),
                                        dist.params().block_size);
  const CollectionResult result = collect(dist, decoder, {}, rng).result;
  return {result, wrong_decode_fraction(decoder, original) == 0.0};
}

double wrong_decode_fraction(const codes::PriorityDecoder<Field>& decoder,
                             const codes::SourceData<Field>& source) {
  std::size_t decoded = 0, wrong = 0;
  for (std::size_t j = 0; j < source.blocks(); ++j) {
    if (!decoder.is_block_decoded(j)) continue;
    ++decoded;
    if (!std::ranges::equal(decoder.recovered(j), source.block(j))) ++wrong;
  }
  return decoded == 0 ? 0.0 : static_cast<double>(wrong) / static_cast<double>(decoded);
}

}  // namespace prlc::proto
