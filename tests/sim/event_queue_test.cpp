#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace prlc::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(3.0, 30);
  q.push(1.0, 10);
  q.push(2.0, 20);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.top().time, 1.0);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TieBreaksByInsertionSequence) {
  // Simultaneous events (lockstep repair completions) must pop in push
  // order — the tie-break that makes the order total.
  EventQueue<int> q;
  for (int i = 0; i < 64; ++i) q.push(7.5, i);
  for (int i = 0; i < 64; ++i) {
    const auto entry = q.pop();
    EXPECT_EQ(entry.payload, i);
    EXPECT_EQ(entry.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, TotalOrderMatchesStableSort) {
  // Pop order is exactly the stable sort by time of the push sequence:
  // (time, seq) with seq = insertion index IS stability.
  Rng rng(123);
  EventQueue<int> q;
  std::vector<std::pair<double, int>> pushed;
  for (int i = 0; i < 500; ++i) {
    const double t = static_cast<double>(rng.uniform(20));  // many ties
    q.push(t, i);
    pushed.emplace_back(t, i);
  }
  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [t, id] : pushed) {
    const auto entry = q.pop();
    EXPECT_DOUBLE_EQ(entry.time, t);
    EXPECT_EQ(entry.payload, id);
  }
}

TEST(EventQueue, MaxSizeSeenKeepsThePeak) {
  EventQueue<int> q;
  q.push(1.0, 1);
  q.push(2.0, 2);
  q.push(3.0, 3);
  (void)q.pop();
  EXPECT_EQ(q.max_size_seen(), 3u);
}

TEST(EventQueue, EmptyAccessThrows) {
  EventQueue<int> q;
  EXPECT_THROW(q.top(), PreconditionError);
  EXPECT_THROW(q.pop(), PreconditionError);
}

}  // namespace
}  // namespace prlc::sim
