#include "obs/events.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace prlc::obs {
namespace {

// Every test arms the journal and tears the whole telemetry state down so
// test order (and the metrics/trace tests in this binary) never shows.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_telemetry();
    set_telemetry_enabled(true);
  }
  void TearDown() override {
    set_telemetry_enabled(false);
    Journal::global().set_trial_capacity(1u << 16);
    reset_telemetry();
  }
};

TEST_F(JournalTest, WireNamesAndArgNamesAreStable) {
  EXPECT_STREQ(to_string(EventType::kNodeFailed), "node_failed");
  EXPECT_STREQ(to_string(EventType::kRefreshRound), "refresh_round");
  EXPECT_STREQ(to_string(EventType::kFetchRetry), "fetch_retry");
  EXPECT_STREQ(to_string(EventType::kFetchHedged), "fetch_hedged");
  EXPECT_STREQ(to_string(EventType::kBudgetExhausted), "budget_exhausted");
  EXPECT_STREQ(to_string(EventType::kWatermarkAdvance), "watermark_advance");
  EXPECT_STREQ(to_string(EventType::kPeel), "peel");
  EXPECT_STREQ(event_arg_names(EventType::kFetchRetry).names[0], "node");
  EXPECT_STREQ(event_arg_names(EventType::kFetchRetry).names[1], "attempt");
  EXPECT_EQ(event_arg_names(EventType::kFetchHedged).names[1], nullptr);
}

TEST_F(JournalTest, SeriesIdsAreStablePerName) {
  const SeriesId a = timeseries("test.ts.alpha");
  const SeriesId b = timeseries("test.ts.beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(timeseries("test.ts.alpha"), a);
}

TEST_F(JournalTest, RecordsOutsideAnyScopeAreDropped) {
  emit(EventType::kPeel, 3.0);
  set_logical_time(9);
  sample(timeseries("test.ts.dropped"), 1.0);
  EXPECT_EQ(Journal::global().events_jsonl(), "");
  EXPECT_EQ(Journal::global().timeseries_jsonl(), "");
}

TEST_F(JournalTest, DisabledJournalRecordsNothing) {
  set_telemetry_enabled(false);
  {
    TrialScope scope(begin_telemetry_run(), 0);
    emit(EventType::kPeel, 1.0);
    sample(timeseries("test.ts.dropped"), 2.0);
  }
  EXPECT_EQ(Journal::global().events_jsonl(), "");
  EXPECT_EQ(Journal::global().timeseries_jsonl(), "");
}

TEST_F(JournalTest, ScopeRecordsAndExportsTypedArgs) {
  {
    TrialScope scope(begin_telemetry_run(), 7);
    set_logical_time(2);
    emit(EventType::kFetchRetry, 17.0, 1.0);
    emit(EventType::kNodeFailed, 4.0);
  }
  EXPECT_EQ(Journal::global().events_jsonl(),
            "{\"run\":0,\"trial\":7,\"t\":2,\"seq\":0,\"event\":\"fetch_retry\","
            "\"node\":17,\"attempt\":1}\n"
            "{\"run\":0,\"trial\":7,\"t\":2,\"seq\":1,\"event\":\"node_failed\","
            "\"node\":4}\n");
  EXPECT_EQ(Journal::global().timeseries_jsonl(), "");
}

TEST_F(JournalTest, SamplesExportSortedWithLogicalTime) {
  const SeriesId margin = timeseries("test.ts.margin");
  {
    TrialScope scope(begin_telemetry_run(), 2);
    set_logical_time(3);
    sample(margin, -4.0);
    emit(EventType::kPeel, 0.0);  // events keep their own seq stream
    set_logical_time(4);
    sample(margin, 1.5);
  }
  EXPECT_EQ(Journal::global().timeseries_jsonl(),
            "{\"run\":0,\"trial\":2,\"t\":3,\"seq\":0,\"series\":\"test.ts.margin\","
            "\"value\":-4}\n"
            "{\"run\":0,\"trial\":2,\"t\":4,\"seq\":1,\"series\":\"test.ts.margin\","
            "\"value\":1.5}\n");
  EXPECT_EQ(Journal::global().events_jsonl(),
            "{\"run\":0,\"trial\":2,\"t\":3,\"seq\":0,\"event\":\"peel\",\"pivot\":0}\n");
}

TEST_F(JournalTest, ExportSortsByRunTrialTimeSeq) {
  // Flush trials in scrambled order; export must sort, not keep flush order.
  const std::uint64_t run = begin_telemetry_run();
  {
    TrialScope scope(run, 5);
    set_logical_time(1);
    emit(EventType::kPeel, 5.0);
  }
  {
    TrialScope scope(run, 0);
    set_logical_time(3);
    emit(EventType::kPeel, 0.0);
  }
  const std::string jsonl = Journal::global().events_jsonl();
  const std::size_t trial0 = jsonl.find("\"trial\":0");
  const std::size_t trial5 = jsonl.find("\"trial\":5");
  ASSERT_NE(trial0, std::string::npos);
  ASSERT_NE(trial5, std::string::npos);
  EXPECT_LT(trial0, trial5);
}

TEST_F(JournalTest, EachKindOverflowsItsOwnRing) {
  // One trial past a capacity of 4 with both kinds: 10 events and 7
  // samples. Each export keeps its own 4 newest records with their
  // emission-index seq; dropped() counts the 6 + 3 losses together.
  Journal::global().set_trial_capacity(4);
  const SeriesId id = timeseries("test.ts.overflow");
  {
    TrialScope scope(begin_telemetry_run(), 0);
    for (int i = 0; i < 10; ++i) {
      emit(EventType::kPeel, static_cast<double>(i));
      if (i < 7) sample(id, static_cast<double>(100 + i));
    }
  }
  EXPECT_EQ(Journal::global().dropped(), 9u);
  std::string events;
  for (int i = 6; i < 10; ++i) {
    events += "{\"run\":0,\"trial\":0,\"t\":0,\"seq\":" + std::to_string(i) +
              ",\"event\":\"peel\",\"pivot\":" + std::to_string(i) + "}\n";
  }
  EXPECT_EQ(Journal::global().events_jsonl(), events);
  std::string samples;
  for (int i = 3; i < 7; ++i) {
    samples += "{\"run\":0,\"trial\":0,\"t\":0,\"seq\":" + std::to_string(i) +
               ",\"series\":\"test.ts.overflow\",\"value\":" + std::to_string(100 + i) +
               "}\n";
  }
  EXPECT_EQ(Journal::global().timeseries_jsonl(), samples);
}

TEST_F(JournalTest, NestedScopeRestoresEnclosingContext) {
  const std::uint64_t run = begin_telemetry_run();
  {
    TrialScope outer(run, 0);
    set_logical_time(1);
    emit(EventType::kPeel, 0.0);
    {
      TrialScope inner(run, 1);
      emit(EventType::kPeel, 100.0);
    }
    // Back in the outer trial: its clock and seq stream must be intact.
    emit(EventType::kPeel, 1.0);
  }
  const std::string jsonl = Journal::global().events_jsonl();
  EXPECT_NE(jsonl.find("\"trial\":0,\"t\":1,\"seq\":0,\"event\":\"peel\",\"pivot\":0"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"trial\":0,\"t\":1,\"seq\":1,\"event\":\"peel\",\"pivot\":1"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"trial\":1,\"t\":0,\"seq\":0,\"event\":\"peel\",\"pivot\":100"),
            std::string::npos);
}

TEST_F(JournalTest, MergeIsByteIdenticalAcrossThreadAssignments) {
  // The same trials export the same event and sample bytes whether they
  // run serially or scattered across threads in reverse order.
  auto run_trials = [](std::size_t threads) {
    reset_telemetry();
    const std::uint64_t run = begin_telemetry_run();
    const SeriesId series = timeseries("test.ts.merge");
    auto one_trial = [run, series](std::uint64_t trial) {
      TrialScope scope(run, trial);
      for (std::uint64_t t = 0; t < 3; ++t) {
        set_logical_time(t);
        emit(EventType::kFetchRetry, static_cast<double>(trial),
             static_cast<double>(t));
        sample(series, static_cast<double>(trial * 10 + t));
      }
    };
    if (threads <= 1) {
      for (std::uint64_t trial = 0; trial < 8; ++trial) one_trial(trial);
    } else {
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
          for (std::uint64_t trial = 7; trial + 1 > 0; --trial) {
            if (trial % threads == w) one_trial(trial);
          }
        });
      }
      for (auto& th : pool) th.join();
    }
    return Journal::global().events_jsonl() + Journal::global().timeseries_jsonl();
  };
  const std::string serial = run_trials(1);
  EXPECT_EQ(serial, run_trials(2));
  EXPECT_EQ(serial, run_trials(8));
}

}  // namespace
}  // namespace prlc::obs
