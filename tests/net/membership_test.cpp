// Join/leave membership semantics: revival, incarnation generations, and
// the session-churn model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "net/chord_network.h"
#include "net/churn.h"
#include "net/sensor_network.h"
#include "obs/events.h"
#include "util/check.h"

namespace prlc::net {
namespace {

ChordNetwork make_ring(std::size_t nodes = 100) {
  ChordParams p;
  p.nodes = nodes;
  p.locations = 10;
  p.seed = 5;
  return ChordNetwork(p);
}

TEST(Membership, ReviveRestoresLiveness) {
  auto net = make_ring();
  net.fail_node(7);
  EXPECT_FALSE(net.alive(7));
  net.revive_node(7);
  EXPECT_TRUE(net.alive(7));
  EXPECT_EQ(net.alive_count(), 100u);
}

TEST(Membership, GenerationBumpsOncePerFailure) {
  auto net = make_ring();
  EXPECT_EQ(net.generation(3), 0u);
  net.fail_node(3);
  EXPECT_EQ(net.generation(3), 1u);
  net.fail_node(3);  // idempotent: still the same dead incarnation
  EXPECT_EQ(net.generation(3), 1u);
  net.revive_node(3);
  EXPECT_EQ(net.generation(3), 1u);  // revival is the new incarnation
  net.fail_node(3);
  EXPECT_EQ(net.generation(3), 2u);
}

TEST(Membership, ReviveIsIdempotent) {
  auto net = make_ring();
  net.revive_node(9);  // already alive
  EXPECT_TRUE(net.alive(9));
  EXPECT_EQ(net.generation(9), 0u);
}

TEST(Membership, RevivedNodeOwnsKeysAgain) {
  auto net = make_ring();
  const NodeId owner = net.owner_of(2);
  net.fail_node(owner);
  EXPECT_NE(net.owner_of(2), owner);
  net.revive_node(owner);
  EXPECT_EQ(net.owner_of(2), owner);
}

TEST(Membership, SessionChurnCountsMatch) {
  auto net = make_ring(1000);
  Rng rng(71);
  const auto [left, rejoined] = apply_session_churn(net, 0.3, 0.5, rng);
  EXPECT_EQ(rejoined, 0u);  // nobody was dead yet
  EXPECT_NEAR(static_cast<double>(left), 300.0, 60.0);
  EXPECT_EQ(net.alive_count(), 1000u - left);
  const auto [left2, rejoined2] = apply_session_churn(net, 0.0, 1.0, rng);
  EXPECT_EQ(left2, 0u);
  EXPECT_EQ(rejoined2, left);
  EXPECT_EQ(net.alive_count(), 1000u);
}

TEST(Membership, SessionChurnValidated) {
  auto net = make_ring();
  Rng rng(72);
  EXPECT_THROW(apply_session_churn(net, -0.1, 0.5, rng), PreconditionError);
  EXPECT_THROW(apply_session_churn(net, 0.5, 1.1, rng), PreconditionError);
}

/// Node ids of the node_failed events in the journal's events export.
std::vector<NodeId> journaled_failures() {
  std::vector<NodeId> ids;
  const std::string jsonl = obs::Journal::global().events_jsonl();
  const std::string key = "\"event\":\"node_failed\",\"node\":";
  for (std::size_t at = jsonl.find(key); at != std::string::npos; at = jsonl.find(key, at)) {
    at += key.size();
    ids.push_back(static_cast<NodeId>(std::stoul(jsonl.substr(at))));
  }
  return ids;
}

TEST(Membership, ChurnModelsJournalEveryDeathInOrder) {
  // Session and exponential churn record their deaths as the wave model
  // does: one node_failed event per death, in id order.
  obs::reset_telemetry();
  obs::set_telemetry_enabled(true);
  auto net = make_ring(400);
  Rng rng(74);
  std::size_t left = 0;
  std::vector<NodeId> killed;
  {
    obs::TrialScope scope(obs::begin_telemetry_run(), 0);
    left = apply_session_churn(net, 0.25, 0.0, rng).first;
    killed = apply_exponential_churn(net, 2.0, 1.0, rng);
  }
  const std::vector<NodeId> journaled = journaled_failures();
  obs::set_telemetry_enabled(false);
  obs::reset_telemetry();

  ASSERT_EQ(journaled.size(), left + killed.size());
  ASSERT_GT(left, 0u);
  ASSERT_FALSE(killed.empty());
  const std::vector<NodeId> session(journaled.begin(),
                                    journaled.begin() + static_cast<std::ptrdiff_t>(left));
  EXPECT_TRUE(std::is_sorted(session.begin(), session.end()));
  for (const NodeId v : session) EXPECT_FALSE(net.alive(v)) << "node " << v;
  EXPECT_EQ(std::vector<NodeId>(journaled.begin() + static_cast<std::ptrdiff_t>(left),
                                journaled.end()),
            killed);
}

TEST(Membership, SteadyStateTurnover) {
  // With symmetric leave/rejoin the alive population hovers around half.
  auto net = make_ring(2000);
  Rng rng(73);
  for (int step = 0; step < 50; ++step) apply_session_churn(net, 0.2, 0.2, rng);
  EXPECT_NEAR(static_cast<double>(net.alive_count()), 1000.0, 150.0);
}

TEST(Membership, SensorOverlayRevivalWorksToo) {
  SensorParams p;
  p.nodes = 80;
  p.locations = 5;
  p.seed = 9;
  SensorNetwork net(p);
  net.fail_node(11);
  EXPECT_EQ(net.generation(11), 1u);
  net.revive_node(11);
  EXPECT_TRUE(net.alive(11));
}

}  // namespace
}  // namespace prlc::net
