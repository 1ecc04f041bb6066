#include "proto/fault_channel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "codes/decoder.h"
#include "codes/wire_format.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "util/check.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

struct TestHarness {
  PrioritySpec spec{std::vector<std::size_t>{4, 6, 10}};  // N = 20
  PriorityDistribution dist{std::vector<double>{0.3, 0.3, 0.4}};
  net::ChordNetwork overlay;
  ProtocolParams params;
  Rng rng{77};

  TestHarness() : overlay(make_net()) { params.block_size = 6; }

  static net::ChordParams make_net() {
    net::ChordParams p;
    p.nodes = 80;
    p.locations = 60;
    p.seed = 23;
    return p;
  }

  Predistribution deploy() {
    Predistribution pd(overlay, spec, dist, params);
    const auto source = codes::SourceData<Field>::random(spec.total(), 6, rng);
    pd.disseminate(source, rng);
    return pd;
  }
};

TEST(FaultyChannel, NullPlanRoundTripsPristineBytes) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  FaultyChannel channel(pd);
  Rng probe(5), untouched(5);
  for (net::LocationId loc : channel.retrievable_locations()) {
    const FetchReply reply = channel.fetch(loc, probe);
    EXPECT_EQ(reply.fault, net::FaultClass::kNone);
    EXPECT_EQ(reply.latency_us, 0u);
    const codes::WireBlock wire = codes::decode_wire(reply.bytes);
    const StoredBlock* slot = pd.stored(loc);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(wire.block.coeffs, slot->block.coeffs);
    EXPECT_EQ(wire.block.payload, slot->block.payload);
    EXPECT_EQ(wire.block.level, slot->block.level);
  }
  // The null plan must not consume a single Rng draw.
  EXPECT_EQ(probe(), untouched());
}

TEST(FaultyChannel, CertainCorruptionIsAlwaysCaughtByTheWire) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.corrupt_rate = 1.0;
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  for (net::LocationId loc : channel.retrievable_locations()) {
    const FetchReply reply = channel.fetch(loc, h.rng);
    ASSERT_EQ(reply.fault, net::FaultClass::kNone);  // corruption is in-band
    EXPECT_THROW(codes::decode_wire(reply.bytes), codes::WireFormatError);
  }
  EXPECT_EQ(channel.injected().corruptions, channel.retrievable_locations().size());
}

TEST(FaultyChannel, CertainTruncationIsAlwaysCaughtByTheWire) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.truncate_rate = 1.0;
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  const auto locs = channel.retrievable_locations();
  for (net::LocationId loc : locs) {
    const FetchReply reply = channel.fetch(loc, h.rng);
    ASSERT_EQ(reply.fault, net::FaultClass::kNone);
    EXPECT_THROW(codes::decode_wire(reply.bytes), codes::WireFormatError);
  }
  EXPECT_EQ(channel.injected().truncations, locs.size());
}

TEST(FaultyChannel, CrashRemovesTheNodeForTheRestOfTheCollection) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.crash_rate = 1.0;
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  const auto locs = channel.retrievable_locations();
  ASSERT_FALSE(locs.empty());
  const FetchReply first = channel.fetch(locs[0], h.rng);
  EXPECT_EQ(first.fault, net::FaultClass::kCrash);
  EXPECT_TRUE(channel.node_crashed(first.node));
  EXPECT_GE(channel.crashed_nodes(), 1u);
  // A re-fetch from the same location now hits a dead node, no new draw.
  const FetchReply again = channel.fetch(locs[0], h.rng);
  EXPECT_EQ(again.fault, net::FaultClass::kDeadNode);
  // And the location dropped out of the retrievable set.
  const auto remaining = channel.retrievable_locations();
  for (net::LocationId loc : remaining) {
    EXPECT_NE(pd.stored(loc)->owner, first.node);
  }
  EXPECT_LT(remaining.size(), locs.size());
}

TEST(FaultyChannel, ChurnedOwnerReportsDeadNode) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  const auto locs = pd.surviving_locations();
  ASSERT_FALSE(locs.empty());
  const net::NodeId owner = pd.stored(locs[0])->owner;
  h.overlay.fail_node(owner);
  FaultyChannel channel(pd);
  const FetchReply reply = channel.fetch(locs[0], h.rng);
  EXPECT_EQ(reply.fault, net::FaultClass::kDeadNode);
  EXPECT_TRUE(reply.bytes.empty());
}

TEST(FaultyChannel, FetchRequiresAStoredBlock) {
  TestHarness h;
  Predistribution pd(h.overlay, h.spec, h.dist, h.params);  // never disseminated
  FaultyChannel channel(pd);
  EXPECT_THROW(channel.fetch(0, h.rng), PreconditionError);
  EXPECT_THROW(channel.owner_of(0), PreconditionError);
}

TEST(FaultyChannel, BitRotIsSilentStickyAndLocalized) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.bitrot_rate = 1.0;
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  const auto locs = channel.retrievable_locations();
  ASSERT_FALSE(locs.empty());
  for (net::LocationId loc : locs) {
    const FetchReply reply = channel.fetch(loc, h.rng);
    ASSERT_EQ(reply.fault, net::FaultClass::kNone);  // silent
    // The frame is well-formed: CRC and bounds all pass...
    const codes::WireBlock wire = codes::decode_wire(reply.bytes);
    const StoredBlock* slot = pd.stored(loc);
    // ...but exactly one payload byte differs from the stored truth.
    EXPECT_EQ(wire.block.coeffs, slot->block.coeffs);
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < wire.block.payload.size(); ++i) {
      diffs += wire.block.payload[i] != slot->block.payload[i] ? 1 : 0;
    }
    EXPECT_EQ(diffs, 1u);
    EXPECT_TRUE(channel.location_rotten(loc));
    // Sticky: a refetch serves the identical rotten bytes.
    EXPECT_EQ(channel.fetch(loc, h.rng).bytes, reply.bytes);
  }
  EXPECT_EQ(channel.injected().rotted_locations, locs.size());
  EXPECT_EQ(channel.injected().bitrot_frames, 2 * locs.size());
}

TEST(FaultyChannel, ByzantineNodesForgeConsistentlyAndSilently) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.byzantine_fraction = 1.0;  // every node lies
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  Rng probe(5);
  std::size_t forged = 0;
  for (net::LocationId loc : channel.retrievable_locations()) {
    const FetchReply reply = channel.fetch(loc, probe);
    ASSERT_EQ(reply.fault, net::FaultClass::kNone);
    const codes::WireBlock wire = codes::decode_wire(reply.bytes);  // CRC passes
    const StoredBlock* slot = pd.stored(loc);
    EXPECT_EQ(wire.block.coeffs, slot->block.coeffs);
    EXPECT_NE(wire.block.payload, slot->block.payload);
    ++forged;
    // The lie is deterministic per (node, location): refetch matches.
    EXPECT_EQ(channel.fetch(loc, probe).bytes, reply.bytes);
  }
  EXPECT_EQ(channel.injected().byzantine_frames, 2 * forged);
  EXPECT_EQ(channel.injected().rotted_locations, 0u);
}

TEST(FaultyChannel, HonestNodesServePristineBytesUnderAByzantineMix) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.byzantine_fraction = 0.3;
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  std::size_t honest = 0, lying = 0;
  for (net::LocationId loc : channel.retrievable_locations()) {
    const FetchReply reply = channel.fetch(loc, h.rng);
    const codes::WireBlock wire = codes::decode_wire(reply.bytes);
    const StoredBlock* slot = pd.stored(loc);
    const bool byz = channel.plan().profile(slot->owner).byzantine;
    if (byz) {
      EXPECT_NE(wire.block.payload, slot->block.payload);
      ++lying;
    } else {
      EXPECT_EQ(wire.block.payload, slot->block.payload);
      ++honest;
    }
  }
  EXPECT_GT(honest, 0u);
  EXPECT_GT(lying, 0u);
  EXPECT_EQ(channel.injected().byzantine_frames, lying);
}

TEST(FaultyChannel, TimeoutAndTransientCarryNoBytes) {
  TestHarness h;
  const Predistribution pd = h.deploy();
  net::FaultSpec spec;
  spec.timeout_rate = 0.5;
  spec.transient_rate = 0.5;
  net::FaultPlan plan(spec, h.overlay.nodes(), h.rng);
  FaultyChannel channel(pd, std::move(plan));
  for (net::LocationId loc : channel.retrievable_locations()) {
    const FetchReply reply = channel.fetch(loc, h.rng);
    ASSERT_TRUE(reply.fault == net::FaultClass::kTimeout ||
                reply.fault == net::FaultClass::kTransient);
    EXPECT_TRUE(reply.bytes.empty());
  }
  EXPECT_GT(channel.injected().timeouts, 0u);
  EXPECT_GT(channel.injected().transient_errors, 0u);
}

TEST(FaultyChannel, DecodesLeadingLevelsFromCorruptedChannelFetches) {
  // Disseminate, fetch everything through a FaultyChannel that corrupts a
  // third of the frames in band, keep what the wire layer accepts, and
  // decode the survivors: the leading priority levels must come back
  // intact.
  PrioritySpec spec{std::vector<std::size_t>{4, 6, 10}};  // N = 20
  PriorityDistribution dist{std::vector<double>{0.3, 0.3, 0.4}};
  net::ChordParams np;
  np.nodes = 80;
  np.locations = 120;
  np.seed = 23;
  net::ChordNetwork overlay(np);
  ProtocolParams params;
  params.block_size = 513;
  Rng rng(77);
  Predistribution pd(overlay, spec, dist, params);
  const auto source = codes::SourceData<Field>::random(spec.total(), 513, rng);
  pd.disseminate(source, rng);

  net::FaultSpec fault;
  fault.corrupt_rate = 0.34;
  net::FaultPlan plan(fault, overlay.nodes(), rng);
  FaultyChannel channel(pd, std::move(plan));

  codes::PriorityDecoder<Field> decoder(Scheme::kPlc, spec, params.block_size);
  std::vector<std::uint8_t> coeffs(spec.total());
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (net::LocationId loc : channel.retrievable_locations()) {
    const FetchReply reply = channel.fetch(loc, rng);
    if (reply.fault != net::FaultClass::kNone) continue;
    try {
      const codes::WireBlockView view = codes::decode_wire_view(reply.bytes);
      view.expand_coeffs(coeffs);
      decoder.add(view.level, coeffs, view.payload);
      ++accepted;
    } catch (const codes::WireFormatError&) {
      ++rejected;  // in-band corruption unmasked by the CRC
    }
  }
  EXPECT_EQ(rejected, channel.injected().corruptions);
  ASSERT_GE(accepted, spec.total());  // enough survivors to be interesting

  EXPECT_GE(decoder.decoded_levels(), 1u);  // leading levels survive corruption
  EXPECT_EQ(wrong_decode_fraction(decoder, source), 0.0);
}

}  // namespace
}  // namespace prlc::proto
