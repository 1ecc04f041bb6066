#include "bench_common.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace prlc::bench {
namespace {

/// Run `parse_fn` (a parse_args call) over a copy of `args`; returns the
/// parsed options and the argv entries that survived stripping.
struct ParseResult {
  Options options;
  std::vector<std::string> leftover;
};

template <typename ParseFn>
ParseResult run_parse(std::vector<std::string> args, ParseFn parse_fn) {
  std::vector<char*> argv;
  std::string name = "bench_test";
  argv.push_back(name.data());
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(argv.size()) - 1;
  parse_fn(argc, argv.data());
  ParseResult out;
  out.options = options();
  for (int i = 1; i < argc; ++i) out.leftover.emplace_back(argv[i]);
  return out;
}

/// parse_args for a bench that reads `reads`; by default every optional
/// flag, so the value-parsing tests below can reach them all.
ParseResult parse(std::vector<std::string> args, UnknownArgs unknown = UnknownArgs::kReject,
                  std::initializer_list<std::string_view> reads = {
                      "--trials", "--seed", "--threads", "--scheme", "--payload-bytes",
                      "--nodes", "--churn-rate", "--repair-bw", "--rot-rate",
                      "--byzantine-rate", "--scrub-interval", "--json"}) {
  return run_parse(std::move(args),
                   [&](int& argc, char** argv) { parse_args(argc, argv, unknown, reads); });
}

TEST(BenchCommonFlags, ParsesPayloadBytes) {
  const auto r = parse({"--payload-bytes", "1048576"});
  ASSERT_TRUE(r.options.payload_bytes.has_value());
  EXPECT_EQ(*r.options.payload_bytes, 1048576u);
  EXPECT_TRUE(r.leftover.empty());
}

TEST(BenchCommonFlags, ParsesBinarySuffixesAndEqualsForm) {
  const auto r = parse({"--payload-bytes=64m"});
  EXPECT_EQ(*r.options.payload_bytes, std::size_t{64} << 20);
  const auto k = parse({"--payload-bytes=128K"});
  EXPECT_EQ(*k.options.payload_bytes, std::size_t{128} << 10);
  const auto g = parse({"--payload-bytes", "2g"});
  EXPECT_EQ(*g.options.payload_bytes, std::size_t{2} << 30);
}

TEST(BenchCommonFlags, UnsetByteFlagsStayNullopt) {
  const auto r = parse({"--trials", "5"});
  EXPECT_FALSE(r.options.payload_bytes.has_value());
  EXPECT_EQ(*r.options.trials, 5u);
}

TEST(BenchCommonFlagsDeathTest, RejectsNonPositiveAndGarbageByteCounts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse({"--payload-bytes", "0"}), testing::ExitedWithCode(64),
              "--payload-bytes");
  EXPECT_EXIT(parse({"--payload-bytes", "-4"}), testing::ExitedWithCode(64),
              "--payload-bytes");
  EXPECT_EXIT(parse({"--payload-bytes", "12q"}), testing::ExitedWithCode(64),
              "--payload-bytes");
  EXPECT_EXIT(parse({"--payload-bytes", "kk"}), testing::ExitedWithCode(64),
              "--payload-bytes");
  EXPECT_EXIT(parse({"--payload-bytes"}), testing::ExitedWithCode(64), "missing its value");
}

TEST(BenchCommonFlags, ParsesClusterSimFlags) {
  const auto r = parse({"--nodes", "1000000", "--churn-rate", "0.05", "--repair-bw=12.5"});
  ASSERT_TRUE(r.options.nodes.has_value());
  ASSERT_TRUE(r.options.churn_rate.has_value());
  ASSERT_TRUE(r.options.repair_bw.has_value());
  EXPECT_EQ(*r.options.nodes, 1000000u);
  EXPECT_DOUBLE_EQ(*r.options.churn_rate, 0.05);
  EXPECT_DOUBLE_EQ(*r.options.repair_bw, 12.5);
  EXPECT_TRUE(r.leftover.empty());
}

TEST(BenchCommonFlags, UnsetClusterSimFlagsStayNullopt) {
  const auto r = parse({"--trials", "3"});
  EXPECT_FALSE(r.options.nodes.has_value());
  EXPECT_FALSE(r.options.churn_rate.has_value());
  EXPECT_FALSE(r.options.repair_bw.has_value());
}

TEST(BenchCommonFlags, ScientificNotationRatesParse) {
  const auto r = parse({"--churn-rate", "2e-3"});
  EXPECT_DOUBLE_EQ(*r.options.churn_rate, 2e-3);
}

TEST(BenchCommonFlagsDeathTest, RejectsZeroNodesAndBadCounts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse({"--nodes", "0"}), testing::ExitedWithCode(64), "--nodes");
  EXPECT_EXIT(parse({"--nodes", "-5"}), testing::ExitedWithCode(64), "--nodes");
  EXPECT_EXIT(parse({"--nodes", "many"}), testing::ExitedWithCode(64), "--nodes");
  EXPECT_EXIT(parse({"--nodes"}), testing::ExitedWithCode(64), "missing its value");
}

TEST(BenchCommonFlagsDeathTest, RejectsNonPositiveAndGarbageRates) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse({"--churn-rate", "-0.1"}), testing::ExitedWithCode(64), "--churn-rate");
  EXPECT_EXIT(parse({"--churn-rate", "0"}), testing::ExitedWithCode(64), "--churn-rate");
  EXPECT_EXIT(parse({"--churn-rate", "fast"}), testing::ExitedWithCode(64), "--churn-rate");
  EXPECT_EXIT(parse({"--churn-rate", "0.1x"}), testing::ExitedWithCode(64), "--churn-rate");
  EXPECT_EXIT(parse({"--churn-rate", "inf"}), testing::ExitedWithCode(64), "--churn-rate");
  EXPECT_EXIT(parse({"--repair-bw", "0"}), testing::ExitedWithCode(64), "--repair-bw");
  EXPECT_EXIT(parse({"--repair-bw", "-8"}), testing::ExitedWithCode(64), "--repair-bw");
  EXPECT_EXIT(parse({"--repair-bw", "nan"}), testing::ExitedWithCode(64), "--repair-bw");
}

TEST(BenchCommonFlags, ParsesIntegrityFlags) {
  const auto r =
      parse({"--rot-rate", "0.02", "--byzantine-rate=0.1", "--scrub-interval", "2.5"});
  ASSERT_TRUE(r.options.rot_rate.has_value());
  ASSERT_TRUE(r.options.byzantine_rate.has_value());
  ASSERT_TRUE(r.options.scrub_interval.has_value());
  EXPECT_DOUBLE_EQ(*r.options.rot_rate, 0.02);
  EXPECT_DOUBLE_EQ(*r.options.byzantine_rate, 0.1);
  EXPECT_DOUBLE_EQ(*r.options.scrub_interval, 2.5);
  EXPECT_TRUE(r.leftover.empty());
}

TEST(BenchCommonFlags, IntegrityFlagsAcceptZeroAndStayNulloptWhenUnset) {
  // Unlike --churn-rate, zero is meaningful for all three: rot off,
  // no Byzantine nodes, scrubbing disabled.
  const auto zero =
      parse({"--rot-rate", "0", "--byzantine-rate", "0", "--scrub-interval", "0"});
  EXPECT_DOUBLE_EQ(*zero.options.rot_rate, 0.0);
  EXPECT_DOUBLE_EQ(*zero.options.byzantine_rate, 0.0);
  EXPECT_DOUBLE_EQ(*zero.options.scrub_interval, 0.0);
  const auto unset = parse({"--trials", "3"});
  EXPECT_FALSE(unset.options.rot_rate.has_value());
  EXPECT_FALSE(unset.options.byzantine_rate.has_value());
  EXPECT_FALSE(unset.options.scrub_interval.has_value());
}

TEST(BenchCommonFlagsDeathTest, RejectsMalformedIntegrityFlags) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse({"--rot-rate", "-0.1"}), testing::ExitedWithCode(64), "--rot-rate");
  EXPECT_EXIT(parse({"--rot-rate", "fast"}), testing::ExitedWithCode(64), "--rot-rate");
  EXPECT_EXIT(parse({"--rot-rate", "inf"}), testing::ExitedWithCode(64), "--rot-rate");
  EXPECT_EXIT(parse({"--byzantine-rate", "1.5"}), testing::ExitedWithCode(64),
              "--byzantine-rate");
  EXPECT_EXIT(parse({"--byzantine-rate", "-0.2"}), testing::ExitedWithCode(64),
              "--byzantine-rate");
  EXPECT_EXIT(parse({"--byzantine-rate", "lots"}), testing::ExitedWithCode(64),
              "--byzantine-rate");
  EXPECT_EXIT(parse({"--scrub-interval", "-1"}), testing::ExitedWithCode(64),
              "--scrub-interval");
  EXPECT_EXIT(parse({"--scrub-interval", "nan"}), testing::ExitedWithCode(64),
              "--scrub-interval");
  EXPECT_EXIT(parse({"--scrub-interval"}), testing::ExitedWithCode(64),
              "missing its value");
}

TEST(BenchCommonFlagsDeathTest, RejectsAnEmptyValueForEveryValueFlag) {
  // Stored empty, a value would read as "not given": `--json ""` would
  // write no report and say nothing.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const std::string flag :
       {"--trials", "--seed", "--threads", "--scheme", "--payload-bytes", "--nodes",
        "--churn-rate", "--repair-bw", "--rot-rate", "--byzantine-rate", "--scrub-interval",
        "--json", "--metrics-json", "--trace-json", "--events-jsonl", "--timeseries-jsonl"}) {
    SCOPED_TRACE(flag);
    EXPECT_EXIT(parse({flag, ""}), testing::ExitedWithCode(64), flag + " wants a value");
    EXPECT_EXIT(parse({flag + "="}), testing::ExitedWithCode(64), flag + " wants a value");
    // The downstream parser never gets the chance to swallow it.
    EXPECT_EXIT(parse({flag + "=", "--benchmark_filter=BM_x"}, UnknownArgs::kKeep),
                testing::ExitedWithCode(64), flag + " wants a value");
  }
}

TEST(BenchCommonFlagsDeathTest, RejectsUnknownArgumentsUnlessKept) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse({"--frobnicate"}), testing::ExitedWithCode(64), "unknown argument");
  const auto kept = parse({"--benchmark_filter=BM_x", "--payload-bytes", "64k"},
                          UnknownArgs::kKeep);
  ASSERT_EQ(kept.leftover.size(), 1u);
  EXPECT_EQ(kept.leftover[0], "--benchmark_filter=BM_x");
  EXPECT_EQ(*kept.options.payload_bytes, std::size_t{64} << 10);
}

TEST(BenchCommonFlagsDeathTest, RejectsAFlagTheBenchDoesNotReadInEitherMode) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EQ(parse({"--threads", "2"}).options.threads, 2u);
  EXPECT_EQ(parse({"--trials", "3"}, UnknownArgs::kKeep, {"--trials"}).options.threads, 0u);
  // A bench without a trial loop reads no --threads.
  EXPECT_EXIT(parse({"--threads", "2"}, UnknownArgs::kReject, {"--trials", "--seed"}),
              testing::ExitedWithCode(64), "this bench does not read --threads");
  EXPECT_EXIT(parse({"--threads=8", "--benchmark_filter=BM_x"}, UnknownArgs::kKeep,
                    {"--payload-bytes", "--json"}),
              testing::ExitedWithCode(64), "this bench does not read --threads");
  // A bench that writes no report reads no --json, and one that reads no
  // flag at all refuses every optional one.
  EXPECT_EXIT(parse({"--json", "out.json"}, UnknownArgs::kReject, {"--trials"}),
              testing::ExitedWithCode(64), "this bench does not read --json");
  for (const std::string flag : {"--trials", "--seed", "--scheme", "--payload-bytes", "--nodes",
                                 "--churn-rate", "--repair-bw", "--rot-rate",
                                 "--byzantine-rate", "--scrub-interval"}) {
    EXPECT_EXIT(parse({flag, "1"}, UnknownArgs::kReject, {}), testing::ExitedWithCode(64),
                "this bench does not read " + flag);
    EXPECT_EXIT(parse({flag + "=1", "--benchmark_filter=BM_x"}, UnknownArgs::kKeep, {}),
                testing::ExitedWithCode(64), "this bench does not read " + flag);
  }
}

TEST(BenchCommonFlagsDeathTest, EveryBenchAcceptsTheFourOutputs) {
  // In a child: the trace and journal flags arm process-wide switches.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const auto r = parse({"--metrics-json", "m.json", "--trace-json", "t.json",
                              "--events-jsonl", "e.jsonl", "--timeseries-jsonl=s.jsonl"},
                             UnknownArgs::kReject, {});
        const bool all = r.options.metrics_json_path == "m.json" &&
                         r.options.trace_json_path == "t.json" &&
                         r.options.events_jsonl_path == "e.jsonl" &&
                         r.options.timeseries_jsonl_path == "s.jsonl";
        std::exit(all ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

TEST(BenchCommonFlagsDeathTest, DefaultReadsAreTrialsSeedAndJson) {
  // perf_pipeline's call: parse_args(argc, argv, UnknownArgs::kKeep).
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto pipeline = [](std::vector<std::string> args) {
    return run_parse(std::move(args),
                     [](int& argc, char** argv) { parse_args(argc, argv, UnknownArgs::kKeep); });
  };
  const auto r = pipeline({"small_objects", "--trials", "2", "--seed=5", "--json", "p.json",
                           "--seconds", "1"});
  EXPECT_EQ(*r.options.trials, 2u);
  EXPECT_EQ(*r.options.seed, 5u);
  EXPECT_EQ(r.options.json_path, "p.json");
  EXPECT_EQ(r.leftover, (std::vector<std::string>{"small_objects", "--seconds", "1"}));
  EXPECT_EXIT(pipeline({"small_objects", "--threads", "8", "--trials", "2"}),
              testing::ExitedWithCode(64), "this bench does not read --threads");
  EXPECT_EXIT(pipeline({"small_objects", "--payload-bytes", "1k"}), testing::ExitedWithCode(64),
              "this bench does not read --payload-bytes");
}

}  // namespace
}  // namespace prlc::bench
