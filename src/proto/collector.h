// Data-collecting server (Sec. 3.2 / Sec. 5 retrieval model), hardened
// for retrieval under adversity.
//
// At analysis time a collector contacts the network and retrieves coded
// blocks from surviving locations, feeding each into the progressive
// decoder as it arrives and stopping early once the application's
// requirement (a number of priority levels) is met — the paper's "the data
// collecting server can stop collecting coded data once the partially
// decoded data fulfill the application requirement".
//
// The fetch order is planned once per collection. The surviving locations
// are shuffled; a full read fetches them in that random order. The common
// seed fixes every location's level (§4), so a read that stops at k of the
// spec's n levels knows before any fetch which blocks serve its prefix: it
// stable-sorts the shuffled order to levels k-1, k-2, ..., 0 first, then
// k, ..., n-1. A level-(k-1) block covers the whole target prefix, so under
// PLC it stays innovative until the prefix decodes; under SLC no block
// straddles a level boundary, so the locations of level >= k are dropped
// from the order. Retries, hedged fetches and deferred locations all read
// that one order.
//
// Every fetch travels the CRC-checked wire format through a FaultyChannel
// (proto/fault_channel.h); the fault-free path is simply a channel with a
// null plan, so there is ONE entry point — collect(channel, decoder,
// options, rng) — not separate plain/resilient ones. The collector
// survives the channel's injected adversity on one fixed schedule:
//   * a per-block retry loop: at most 4 attempts per location, retry k
//     (1-based) backing off 200 * 2^(k-1) us, jittered by +-25% with a
//     draw from the trial Rng;
//   * per-node failure budgets — a node is blacklisted at its 8th
//     retryable fault and its remaining blocks written off;
//   * hedged re-fetch: when a reply is slower than 2000 us the collector
//     opportunistically pulls the next pending location too;
//   * end-to-end integrity — with a fingerprint manifest
//     (CollectorOptions::manifest) every delivered frame is verified
//     against the homomorphic GF(2^64) fingerprints of the source blocks
//     before it reaches the decoder; a mismatch localizes the forgery to
//     the exact block and quarantines the serving node, so silent
//     corruption (bit rot under a re-covered CRC, Byzantine payloads)
//     never produces wrong decoded bytes;
//   * graceful degradation — faults never throw; the collector returns
//     the best decodable prefix plus a structured CollectionOutcome with
//     per-fault-class counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "codes/decoder.h"
#include "proto/fault_channel.h"
#include "proto/predistribution.h"
#include "util/gf64_fingerprint.h"

namespace prlc::proto {

struct CollectorOptions {
  /// Stop after decoding this many leading levels (nullopt = drain all).
  /// Must be in [1, the spec's level count] when set. A target below the
  /// level count also plans the fetch order: the target's levels first,
  /// highest of them first (see the header comment).
  std::optional<std::size_t> target_levels;
  /// Record the per-retrieval decoded-levels progression in
  /// CollectionResult::level_trace, and the per-attempt fetch log in
  /// CollectionOutcome::fetch_log.
  bool trace = false;
  /// Source-block fingerprint manifest (util/gf64_fingerprint.h). When
  /// set, every delivered frame is verified — fingerprint(payload) must
  /// equal the coefficient-combination of the manifest fingerprints —
  /// before it reaches the decoder. A mismatch is an integrity violation:
  /// the frame is dropped, the block written off (the lie is sticky; a
  /// refetch serves the same bytes), and the serving node quarantined via
  /// the blacklist. Must cover exactly the decoder spec's source blocks.
  /// The manifest must outlive the collect() call.
  const util::FingerprintManifest* manifest = nullptr;
};

struct CollectionResult {
  std::size_t surviving_locations = 0;  ///< retrievable blocks after churn
  std::size_t blocks_retrieved = 0;     ///< blocks delivered and decoded on the wire
  std::size_t innovative_blocks = 0;    ///< rank achieved
  std::size_t decoded_levels = 0;       ///< X — leading levels recovered
  std::size_t decoded_blocks = 0;       ///< leading source blocks recovered
  bool target_met = false;              ///< target_levels reached
  /// decoded-levels trajectory: entry i = levels after i+1 retrievals
  /// (only filled when `trace` is set in collect()).
  std::vector<std::size_t> level_trace;
};

/// Faults the collector *detected*, by class. wire_errors counts frames
/// decode_wire rejected (injected corruption/truncation, or any real
/// serialization bug) and CRC-valid frames that do not fit the collection
/// (scheme, width, level, or coefficients outside the level's support;
/// such a frame is written off without a retry, since a refetch serves the
/// same bytes) — the collector never sees the channel's injection tally,
/// only what its checks catch.
struct DetectedFaults {
  std::size_t dead_nodes = 0;        ///< fetches that hit a gone owner
  std::size_t crashes = 0;           ///< nodes that died mid-collection
  std::size_t timeouts = 0;
  std::size_t transient_errors = 0;
  std::size_t wire_errors = 0;       ///< frames the wire checks rejected
  /// Well-formed frames (CRC passed) whose payload contradicted the
  /// fingerprint manifest — silent corruption (bit rot, Byzantine nodes)
  /// the wire checks cannot see. Zero unless a manifest was supplied.
  std::size_t integrity_violations = 0;

  std::size_t total() const {
    return dead_nodes + crashes + timeouts + transient_errors + wire_errors +
           integrity_violations;
  }
};

/// One fetch attempt as the collector saw it, recorded into
/// CollectionOutcome::fetch_log when CollectorOptions::trace is set.
struct FetchAttempt {
  net::LocationId location = 0;
  net::NodeId node = 0;
  net::FaultClass fault = net::FaultClass::kNone;  ///< channel-visible class
  bool wire_rejected = false;       ///< a wire error (see DetectedFaults::wire_errors)
  bool integrity_rejected = false;  ///< fingerprint contradicted the manifest
  bool delivered = false;           ///< frame fed to the decoder
};

/// Everything collect() can report: the classic result plus the
/// adversity ledger. Faults never throw — degradation is data.
struct CollectionOutcome {
  CollectionResult result;
  DetectedFaults faults;
  std::size_t retries = 0;            ///< extra attempts after a retryable fault
  std::size_t hedges = 0;             ///< hedged fetches issued
  std::size_t blacklisted_nodes = 0;  ///< nodes that exhausted their budget
  /// Nodes removed for serving a frame that contradicted the fingerprint
  /// manifest (disjoint from blacklisted_nodes' budget exhaustion).
  std::size_t quarantined_nodes = 0;
  /// Locations retrievable at the start that were written off: their node
  /// died/was blacklisted or every attempt failed. Untried locations
  /// (early stop at the target, or SLC locations a partial read's plan
  /// dropped) are not "lost".
  std::size_t blocks_lost = 0;
  bool degraded = false;              ///< blocks_lost > 0
  std::uint64_t sim_elapsed_us = 0;   ///< simulated retrieval time
  /// Per-attempt log (only filled when CollectorOptions::trace is set).
  std::vector<FetchAttempt> fetch_log;
};

/// THE collection entry point: retrieve over `channel` and decode,
/// surviving whatever the channel's FaultPlan injects (a null-plan
/// channel makes this the plain fault-free path — same code, zero extra
/// Rng draws). `decoder` must match the channel's predistribution. Never
/// throws on faults (only on precondition violations).
CollectionOutcome collect(FaultyChannel& channel, codes::PriorityDecoder<Field>& decoder,
                          const CollectorOptions& options, Rng& rng);

/// Convenience overload: collect over a fault-free (null-plan) channel
/// built on the spot. Every block still round-trips the wire format
/// (encode_wire -> decode_wire), so the CRC path is exercised by all
/// callers; a frame the wire layer rejects is counted
/// (collector.corrupt_blocks) and skipped, never propagated.
CollectionOutcome collect(const Predistribution& dist, codes::PriorityDecoder<Field>& decoder,
                          const CollectorOptions& options, Rng& rng);

/// Convenience: build a payload decoder, collect everything retrievable,
/// and verify every decoded payload against `original`. Returns the
/// result plus the verification verdict (all decoded payloads correct).
std::pair<CollectionResult, bool> collect_and_verify(const Predistribution& dist,
                                                     const codes::SourceData<Field>& original,
                                                     Rng& rng);

/// Decode-then-compare: the fraction of the decoder's recovered blocks that
/// differ from `source` (0 when none is recovered). Needs the source bytes,
/// so it serves experiments and tests, not a collector in the field.
double wrong_decode_fraction(const codes::PriorityDecoder<Field>& decoder,
                             const codes::SourceData<Field>& source);

}  // namespace prlc::proto
