#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/random.h"
#include "util/stats.h"

namespace prlc::obs {
namespace {

// The probes no-op while disabled, so every test arms the subsystem (and
// restores the default afterwards to keep test order irrelevant).
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override {
    Registry::global().reset_values();
    set_enabled(false);
  }
};

TEST_F(MetricsTest, RegistryReturnsStableUniqueInstances) {
  Counter& a = counter("test.registry.counter");
  Counter& b = counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = gauge("test.registry.gauge");
  Gauge& g2 = gauge("test.registry.gauge");
  EXPECT_EQ(&g1, &g2);
  // Force a rehash-sized wave of inserts; earlier references must survive.
  for (int i = 0; i < 256; ++i) {
    counter("test.registry.filler." + std::to_string(i));
  }
  EXPECT_EQ(&counter("test.registry.counter"), &a);
}

TEST_F(MetricsTest, NamesAreUniqueAcrossKinds) {
  counter("test.kinds.name");
  EXPECT_THROW(gauge("test.kinds.name"), PreconditionError);
  EXPECT_THROW(histogram("test.kinds.name"), PreconditionError);
  EXPECT_THROW(counter(""), PreconditionError);
}

TEST_F(MetricsTest, DisabledProbesAreNoOps) {
  Counter& c = counter("test.disabled.counter");
  Gauge& g = gauge("test.disabled.gauge");
  LatencyHistogram& h = histogram("test.disabled.hist");
  set_enabled(false);
  c.add(5);
  g.set(7);
  g.set_max(9);
  h.record(100);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsAreLossless) {
  Counter& c = counter("test.concurrent.counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(MetricsTest, GaugeSetMaxIsHighWatermark) {
  Gauge& g = gauge("test.gauge.watermark");
  g.set_max(10);
  g.set_max(3);
  EXPECT_EQ(g.value(), 10);
  g.set_max(42);
  EXPECT_EQ(g.value(), 42);
}

TEST_F(MetricsTest, HistogramQuantilesTrackExactWithinBucketBound) {
  LatencyHistogram& h = histogram("test.hist.accuracy");
  Rng rng(1234);
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform samples spanning 1..2^20 — exercises many buckets.
    const double v = std::exp2(rng.uniform_double() * 20.0);
    const auto s = static_cast<std::uint64_t>(v);
    h.record(s);
    exact.push_back(static_cast<double>(s));
  }
  for (double q : {0.5, 0.9, 0.99}) {
    const double approx = h.quantile(q);
    const double truth = quantile(exact, q);
    // Log2 buckets guarantee a factor-of-two bound; allow small slack for
    // the interpolation at bucket edges.
    EXPECT_GE(approx, truth / 2.05) << "q=" << q;
    EXPECT_LE(approx, truth * 2.05) << "q=" << q;
  }
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.quantile(0.0));  // no NaN
}

TEST_F(MetricsTest, HistogramEmptyAndZeroSamples) {
  LatencyHistogram& h = histogram("test.hist.empty");
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_THROW(h.quantile(-0.1), PreconditionError);
}

TEST_F(MetricsTest, ExportsParseableJson) {
  counter("test.export.counter").add(3);
  gauge("test.export.gauge").set(-7);
  histogram("test.export.hist").record(1000);
  const json::Value root = json::Value::parse(Registry::global().to_json());
  EXPECT_DOUBLE_EQ(root.at("counters").at("test.export.counter").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.export.gauge").as_double(), -7.0);
  const json::Value& h = root.at("histograms").at("test.export.hist");
  EXPECT_DOUBLE_EQ(h.at("count").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("max").as_double(), 1000.0);
}

TEST_F(MetricsTest, ResetValuesKeepsRegistrations) {
  Counter& c = counter("test.reset.counter");
  c.add(9);
  Registry::global().reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&counter("test.reset.counter"), &c);
}

}  // namespace
}  // namespace prlc::obs
