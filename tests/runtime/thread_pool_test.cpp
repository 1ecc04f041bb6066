#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.h"

namespace prlc::runtime {
namespace {

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ForEachIndexResultIndependentOfThreadCount) {
  // Slot-indexed writes give the same result vector whatever the pool size
  // or execution order — the property TrialRunner builds on.
  constexpr std::size_t kN = 257;
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::size_t> out(kN);
    pool.for_each_index(kN, [&](std::size_t i) { out[i] = i * i + 3; });
    return out;
  };
  const auto serial = run(1);
  const auto wide = run(8);
  EXPECT_EQ(serial, wide);
}

TEST(ThreadPool, RethrowsTheLowestFailingIndex) {
  // Index 40 fails first in time, index 7 later: the loop runs every index
  // and then reports 7, as a serial loop that ran every index would.
  ThreadPool pool(4);
  std::atomic<std::size_t> completed{0};
  try {
    pool.for_each_index(64, [&](std::size_t i) {
      completed.fetch_add(1);
      if (i == 7) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("index 7");
      }
      if (i == 40) throw std::runtime_error("index 40");
    });
    FAIL() << "expected the loop to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 7");
  }
  EXPECT_EQ(completed.load(), 64u);
}

TEST(ThreadPool, RunsOnExactlyThreadCountThreads) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::mutex mu;
    std::set<std::thread::id> ids;
    pool.for_each_index(64, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_LE(ids.size(), threads) << "pool of " << threads;
    if (threads == 1) {
      EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
    }
  }
}

TEST(ThreadPool, NestedCallIsAPreconditionError) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner{0};
  const auto nested = [&](std::size_t) {
    pool.for_each_index(8, [&](std::size_t) { inner.fetch_add(1); });
  };
  EXPECT_THROW(pool.for_each_index(4, nested), PreconditionError);
  EXPECT_EQ(inner.load(), 0u);
  // The refused call leaves the pool usable.
  std::atomic<std::size_t> ran{0};
  pool.for_each_index(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8u);
}

TEST(ThreadPool, ReusableAcrossLoops) {
  ThreadPool pool(3);
  for (const std::size_t n : {0u, 1u, 5u, 1000u, 2u, 0u, 77u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.for_each_index(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n " << n << " index " << i;
  }
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ManySmallTasksAllComplete) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::atomic<long long> sum{0};
  pool.for_each_index(kN, [&](std::size_t i) { sum.fetch_add(static_cast<long long>(i)); });
  const long long expect = static_cast<long long>(kN) * (kN - 1) / 2;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

}  // namespace
}  // namespace prlc::runtime
