#include "proto/fault_channel.h"

#include <algorithm>

#include "codes/wire_format.h"
#include "util/check.h"

namespace prlc::proto {

FaultyChannel::FaultyChannel(const Predistribution& dist, net::FaultPlan plan)
    : dist_(dist), plan_(std::move(plan)) {}

std::vector<std::uint8_t> FaultyChannel::serve_damaged(const StoredBlock& slot,
                                                       std::size_t offset,
                                                       std::uint8_t mask) const {
  // The damage lives in the payload *before* serialization, so the frame
  // carries a fresh CRC computed over the rotten/forged bytes: the wire
  // checks pass and only a fingerprint can tell.
  std::vector<std::uint8_t> payload(slot.block.payload);
  payload[offset] ^= mask;
  return codes::encode_wire(dist_.params().scheme,
                            codes::CodedBlockView{.level = slot.block.level,
                                                  .coeffs = slot.block.coeffs,
                                                  .payload = payload});
}

std::vector<net::LocationId> FaultyChannel::retrievable_locations() const {
  std::vector<net::LocationId> out = dist_.surviving_locations();
  if (!crashed_.empty()) {
    std::erase_if(out, [this](net::LocationId loc) {
      const StoredBlock* slot = dist_.stored(loc);
      return slot != nullptr && crashed_.contains(slot->owner);
    });
  }
  return out;
}

net::NodeId FaultyChannel::owner_of(net::LocationId loc) const {
  const StoredBlock* slot = dist_.stored(loc);
  PRLC_REQUIRE(slot != nullptr, "no block was ever stored at this location");
  return slot->owner;
}

FetchReply FaultyChannel::fetch(net::LocationId loc, Rng& rng) {
  const StoredBlock* slot = dist_.stored(loc);
  PRLC_REQUIRE(slot != nullptr, "no block was ever stored at this location");

  FetchReply reply;
  reply.node = slot->owner;
  if (!slot->retrievable(dist_.overlay()) || crashed_.contains(slot->owner)) {
    reply.fault = net::FaultClass::kDeadNode;
    return reply;
  }

  net::FaultClass drawn = net::FaultClass::kNone;
  if (plan_.active()) {
    drawn = plan_.draw_fault(slot->owner, rng);
    reply.latency_us = plan_.draw_latency_us(slot->owner, rng);
    switch (drawn) {
      case net::FaultClass::kCrash:
        crashed_.insert(slot->owner);
        ++injected_.crashes;
        reply.fault = net::FaultClass::kCrash;
        return reply;
      case net::FaultClass::kTimeout:
        ++injected_.timeouts;
        reply.fault = net::FaultClass::kTimeout;
        return reply;
      case net::FaultClass::kTransient:
        ++injected_.transient_errors;
        reply.fault = net::FaultClass::kTransient;
        return reply;
      default:
        break;
    }
  }

  const bool wire_damage_follows = drawn == net::FaultClass::kCorruption ||
                                   drawn == net::FaultClass::kTruncation;
  if (plan_.active() && !slot->block.payload.empty() &&
      plan_.profile(slot->owner).byzantine) {
    // Deterministic forgery keyed on (node, location): the node tells the
    // same lie on every refetch, and being Byzantine costs no Rng draws.
    std::uint64_t sm = (static_cast<std::uint64_t>(slot->owner) << 32) ^
                       static_cast<std::uint64_t>(loc) ^ 0x5D43C0DEBAD0B10CULL;
    const std::uint64_t h = splitmix64_next(sm);
    reply.bytes = serve_damaged(*slot, h % slot->block.payload.size(),
                                static_cast<std::uint8_t>(1 + (h >> 32) % 255));
    if (!wire_damage_follows) ++injected_.byzantine_frames;
  } else {
    if (drawn == net::FaultClass::kBitRotAtRest && !slot->block.payload.empty() &&
        !rot_.contains(loc)) {
      RotDamage dmg;
      dmg.offset = rng.uniform(slot->block.payload.size());
      dmg.mask = static_cast<std::uint8_t>(1 + rng.uniform(255));
      rot_.emplace(loc, dmg);
      ++injected_.rotted_locations;
    }
    if (const auto it = rot_.find(loc); it != rot_.end()) {
      reply.bytes = serve_damaged(*slot, it->second.offset, it->second.mask);
      if (!wire_damage_follows) ++injected_.bitrot_frames;
    } else {
      reply.bytes = codes::encode_wire(dist_.params().scheme, slot->block);
    }
  }
  if (drawn == net::FaultClass::kCorruption) {
    // Flip 1-3 bits inside one random byte: a <32-bit burst, so CRC-32
    // detection is guaranteed, never probabilistic.
    ++injected_.corruptions;
    const std::size_t at = rng.uniform(reply.bytes.size());
    reply.bytes[at] ^= static_cast<std::uint8_t>(1 + rng.uniform(7));
  } else if (drawn == net::FaultClass::kTruncation) {
    // Transfer cut short: keep a strictly shorter prefix.
    ++injected_.truncations;
    reply.bytes.resize(rng.uniform(reply.bytes.size()));
  }
  return reply;
}

}  // namespace prlc::proto
