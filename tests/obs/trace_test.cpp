#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "util/json.h"

namespace prlc::obs {
namespace {

// Each test drives its own recorder instance; one test exercises the
// global() path used by the instrumented library code.
TEST(TraceRecorder, DisabledEmitsNothing) {
  TraceRecorder rec;
  rec.instant("x", "test");
  rec.begin("y", "test");
  rec.end("y", "test");
  EXPECT_EQ(rec.events(), 0u);
  EXPECT_FALSE(rec.capturing());
}

TEST(TraceRecorder, GoldenJsonShape) {
  TraceRecorder rec;
  rec.start();
  rec.begin("trial", "persistence", {{"trial", 3.0}});
  rec.instant("node_fail", "churn", {{"node", 17.0}});
  rec.count("alive_nodes", "churn", {{"alive", 42.0}});
  rec.end("trial", "persistence");
  rec.stop();
  EXPECT_EQ(rec.events(), 4u);

  const json::Value root = json::Value::parse(rec.to_json());
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  const json::Value& events = root.at("traceEvents");
  ASSERT_EQ(events.size(), 4u);

  // Every event carries the required Trace Event Format fields.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("cat").is_string());
    EXPECT_TRUE(e.at("ph").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_DOUBLE_EQ(e.at("pid").as_double(), 1.0);
    EXPECT_DOUBLE_EQ(e.at("tid").as_double(), 1.0);
  }

  EXPECT_EQ(events.at(0).at("ph").as_string(), "B");
  EXPECT_DOUBLE_EQ(events.at(0).at("args").at("trial").as_double(), 3.0);
  EXPECT_EQ(events.at(1).at("ph").as_string(), "i");
  EXPECT_EQ(events.at(1).at("s").as_string(), "p");  // instants carry scope
  EXPECT_DOUBLE_EQ(events.at(1).at("args").at("node").as_double(), 17.0);
  EXPECT_EQ(events.at(2).at("ph").as_string(), "C");
  EXPECT_DOUBLE_EQ(events.at(2).at("args").at("alive").as_double(), 42.0);
  EXPECT_EQ(events.at(3).at("ph").as_string(), "E");

  // Timestamps are monotone: events append under one lock on a steady
  // clock since start().
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events.at(i).at("ts").as_double(), events.at(i - 1).at("ts").as_double());
  }
}

TEST(TraceRecorder, BeginEndBalancedViaScopedSpan) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.clear();
  rec.start();
  {
    ScopedSpan outer("outer", "test", {{"depth", 0.0}});
    { ScopedSpan inner("inner", "test"); }
  }
  rec.stop();
  const json::Value root = json::Value::parse(rec.to_json());
  const json::Value& events = root.at("traceEvents");
  ASSERT_EQ(events.size(), 4u);
  // Properly nested: B(outer) B(inner) E(inner) E(outer).
  EXPECT_EQ(events.at(0).at("ph").as_string(), "B");
  EXPECT_EQ(events.at(0).at("name").as_string(), "outer");
  EXPECT_EQ(events.at(1).at("name").as_string(), "inner");
  EXPECT_EQ(events.at(2).at("ph").as_string(), "E");
  EXPECT_EQ(events.at(2).at("name").as_string(), "inner");
  EXPECT_EQ(events.at(3).at("name").as_string(), "outer");
  int depth = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string& ph = events.at(i).at("ph").as_string();
    if (ph == "B") ++depth;
    if (ph == "E") --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  rec.clear();
}

TEST(TraceRecorder, StopFreezesAndClearEmpties) {
  TraceRecorder rec;
  rec.start();
  rec.instant("a", "test");
  rec.stop();
  rec.instant("b", "test");  // dropped: not capturing
  EXPECT_EQ(rec.events(), 1u);
  rec.clear();
  EXPECT_EQ(rec.events(), 0u);
  const json::Value root = json::Value::parse(rec.to_json());
  EXPECT_EQ(root.at("traceEvents").size(), 0u);
}

}  // namespace
}  // namespace prlc::obs
