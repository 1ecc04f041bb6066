#include "runtime/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::runtime {
namespace {

TEST(TrialSeed, DeterministicAndCounterBased) {
  EXPECT_EQ(trial_seed(7, 0), trial_seed(7, 0));
  EXPECT_NE(trial_seed(7, 0), trial_seed(7, 1));
  EXPECT_NE(trial_seed(7, 0), trial_seed(8, 0));
}

TEST(TrialSeed, DistinctAcrossManyTrialsAndRoots) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {0ULL, 1ULL, 7ULL, 0xDEADBEEFULL}) {
    for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(trial_seed(root, i));
  }
  EXPECT_EQ(seen.size(), 4u * 1000u);  // no collisions in this small set
}

TEST(TrialRunner, ResultsInTrialOrder) {
  TrialRunner runner(4);
  const auto out = runner.run(100, 5, [](std::size_t i, Rng&) { return i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(TrialRunner, BitIdenticalAcrossThreadCounts) {
  // The core contract: the per-trial random streams and the returned
  // vector do not depend on the thread count.
  auto run = [](std::size_t threads) {
    TrialRunner runner(threads);
    return runner.run(64, 0xABCDEF, [](std::size_t i, Rng& rng) {
      double acc = static_cast<double>(i);
      for (int k = 0; k < 50; ++k) acc += rng.uniform_double();
      return acc;
    });
  };
  const auto serial = run(1);
  const auto four = run(4);
  const auto eight = run(8);
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);
}

TEST(TrialRunner, SeedChangesResults) {
  TrialRunner runner(1);
  auto sample = [&](std::uint64_t seed) {
    return runner.run(8, seed, [](std::size_t, Rng& rng) { return rng.uniform_double(); });
  };
  EXPECT_NE(sample(1), sample(2));
}

TEST(TrialRunner, ReportsTheLowestFailingTrialAfterAllRan) {
  // Trial 40 fails first in time, trial 7 later. Every thread count runs
  // all 64 trials and then reports trial 7, as the serial order would.
  for (const std::size_t threads : {1u, 4u}) {
    TrialRunner runner(threads);
    std::atomic<std::size_t> ran{0};
    try {
      runner.run(64, 3, [&](std::size_t i, Rng&) -> int {
        ran.fetch_add(1);
        if (i == 7) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("trial 7");
        }
        if (i == 40) throw std::runtime_error("trial 40");
        return 0;
      });
      ADD_FAILURE() << "expected run() to throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 7") << threads << " threads";
    }
    EXPECT_EQ(ran.load(), 64u) << threads << " threads";
  }
}

TEST(TrialRunner, RunsOnAtMostThreadCountThreads) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    TrialRunner(threads).run(64, 1, [&](std::size_t, Rng&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
      return 0;
    });
    EXPECT_LE(ids.size(), threads) << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
    }
  }
}

TEST(TrialRunner, ReusableAcrossRuns) {
  TrialRunner runner(3);
  for (const std::size_t n : {0u, 1u, 5u, 1000u, 2u, 0u, 77u}) {
    std::vector<std::atomic<int>> hits(n);
    const auto out = runner.run(n, 2, [&](std::size_t i, Rng&) {
      hits[i].fetch_add(1);
      return i;
    });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], i) << "n " << n;
      EXPECT_EQ(hits[i].load(), 1) << "n " << n << " trial " << i;
    }
  }
}

TEST(TrialRunner, RecordsPerThreadUtilization) {
  const bool metrics_before = obs::enabled();
  obs::set_enabled(true);
  const auto tasks = [](std::size_t t) {
    return obs::counter("runtime.pool.t" + std::to_string(t) + ".tasks").value();
  };
  for (const std::size_t threads : {4u, 1u}) {
    std::vector<std::uint64_t> before;
    for (std::size_t t = 0; t < 4; ++t) before.push_back(tasks(t));
    TrialRunner(threads).run(64, 9, [](std::size_t i, Rng&) { return i; });
    EXPECT_EQ(obs::gauge("runtime.pool.threads").value(), static_cast<std::int64_t>(threads));
    std::uint64_t ran = 0;
    for (std::size_t t = 0; t < 4; ++t) ran += tasks(t) - before[t];
    EXPECT_EQ(ran, 64u) << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(tasks(0) - before[0], 64u);
    }
  }
  obs::set_enabled(metrics_before);
}

TEST(TrialRunner, ZeroTrialsReturnsEmpty) {
  TrialRunner runner(2);
  const auto out = runner.run(0, 1, [](std::size_t, Rng&) {
    ADD_FAILURE() << "no trial may run";
    return 1;
  });
  EXPECT_TRUE(out.empty());
}

TEST(TrialRunner, ZeroThreadsMeansHardware) {
  TrialRunner runner(0);
  EXPECT_GE(runner.threads(), 1u);
  EXPECT_LE(runner.threads(), kMaxThreads);
}

TEST(TrialRunner, RejectsMoreThanMaxThreads) {
  // Only run() starts threads, so constructing these starts none.
  EXPECT_EQ(TrialRunner(kMaxThreads).threads(), kMaxThreads);
  EXPECT_THROW((void)TrialRunner(kMaxThreads + 1), PreconditionError);
}

}  // namespace
}  // namespace prlc::runtime
