// Tests for the trace recorder (src/obs/trace.h): event round-trips
// through the Chrome trace-event JSON it emits, detail sampling, the
// per-thread cap, and concurrent recording from many threads (run under
// TSan by the sanitizer presets).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "obs/trace.h"

namespace calculon::obs {
namespace {

// Non-metadata events from a recorder's JSON snapshot.
json::Array RealEvents(const TraceRecorder& recorder) {
  const json::Value doc = recorder.ToJson();
  json::Array out;
  for (const json::Value& e : doc.at("traceEvents").AsArray()) {
    if (e.at("ph").AsString() != "M") out.push_back(e);
  }
  return out;
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  recorder.RecordComplete("cat", "span", 0.0, 1.0);
  recorder.RecordInstant("cat", "marker");
  recorder.RecordCounter("series", 7.0);
  EXPECT_FALSE(recorder.SampleDetail());
  EXPECT_EQ(RealEvents(recorder).size(), 0u);
}

TEST(TraceRecorder, EventsRoundTripThroughJson) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordComplete("search", "exec_search", 10.0, 25.5);
  recorder.RecordInstant("io", "checkpoint");
  recorder.RecordCounter("pool.queue_depth", 3.0);
  recorder.Stop();

  const json::Array events = RealEvents(recorder);
  ASSERT_EQ(events.size(), 3u);

  const json::Value& span = events[0];
  EXPECT_EQ(span.at("ph").AsString(), "X");
  EXPECT_EQ(span.at("cat").AsString(), "search");
  EXPECT_EQ(span.at("name").AsString(), "exec_search");
  EXPECT_DOUBLE_EQ(span.at("ts").AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(span.at("dur").AsDouble(), 25.5);
  EXPECT_EQ(span.at("pid").AsInt(), 1);
  EXPECT_GE(span.at("tid").AsInt(), 1);

  const json::Value& instant = events[1];
  EXPECT_EQ(instant.at("ph").AsString(), "i");
  EXPECT_EQ(instant.at("s").AsString(), "t");
  EXPECT_EQ(instant.at("name").AsString(), "checkpoint");

  const json::Value& counter = events[2];
  EXPECT_EQ(counter.at("ph").AsString(), "C");
  EXPECT_EQ(counter.at("name").AsString(), "pool.queue_depth");
  EXPECT_DOUBLE_EQ(counter.at("args").at("value").AsDouble(), 3.0);
}

TEST(TraceRecorder, DocumentHasDisplayTimeUnitAndThreadNames) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordInstant("cat", "x");
  recorder.Stop();
  const json::Value doc = recorder.ToJson();
  EXPECT_EQ(doc.at("displayTimeUnit").AsString(), "ms");
  bool saw_thread_name = false;
  for (const json::Value& e : doc.at("traceEvents").AsArray()) {
    if (e.at("ph").AsString() == "M") {
      EXPECT_EQ(e.at("name").AsString(), "thread_name");
      saw_thread_name = true;
    }
  }
  EXPECT_TRUE(saw_thread_name);
}

TEST(TraceRecorder, StartClearsPreviousEvents) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordInstant("cat", "first");
  recorder.Stop();
  recorder.Start();
  recorder.RecordInstant("cat", "second");
  recorder.Stop();
  const json::Array events = RealEvents(recorder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("name").AsString(), "second");
}

TEST(TraceRecorder, SampleDetailFiresOnceEveryPeriod) {
  TraceRecorder recorder;
  recorder.set_detail_period(4);
  recorder.Start();
  // First call samples (counter starts at 0), then 1-in-4.
  EXPECT_TRUE(recorder.SampleDetail());
  EXPECT_FALSE(recorder.SampleDetail());
  EXPECT_FALSE(recorder.SampleDetail());
  EXPECT_FALSE(recorder.SampleDetail());
  EXPECT_TRUE(recorder.SampleDetail());
  recorder.Stop();
}

TEST(TraceRecorder, PerThreadCapCountsDroppedEvents) {
  TraceRecorder recorder;
  recorder.set_max_events_per_thread(4);
  recorder.Start();
  for (int i = 0; i < 10; ++i) recorder.RecordInstant("cat", "e");
  recorder.Stop();
  EXPECT_EQ(RealEvents(recorder).size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
}

TEST(TraceRecorder, NowMicrosAdvancesMonotonically) {
  TraceRecorder recorder;
  recorder.Start();
  const double a = recorder.NowMicros();
  const double b = recorder.NowMicros();
  recorder.Stop();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(TraceRecorder, ConcurrentSpansFromManyThreadsAllSurvive) {
  // The lock-cheap path: N threads each record M spans concurrently. Every
  // event must come back out of the JSON snapshot, attributed to one of N
  // distinct tids. (This is the test the TSan preset leans on.)
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  TraceRecorder recorder;
  recorder.Start();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const double t0 = recorder.NowMicros();
        std::string name = "w";
        name += std::to_string(t);
        name += '.';
        name += std::to_string(i);
        recorder.RecordComplete("test", std::move(name), t0,
                                recorder.NowMicros() - t0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  recorder.Stop();

  const json::Array events = RealEvents(recorder);
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  std::set<std::int64_t> tids;
  std::set<std::string> names;
  for (const json::Value& e : events) {
    tids.insert(e.at("tid").AsInt());
    names.insert(e.at("name").AsString());
    EXPECT_GE(e.at("ts").AsDouble(), 0.0);
    EXPECT_GE(e.at("dur").AsDouble(), 0.0);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorder, WriteFileEmitsParseableDocument) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordInstant("cat", "marker");
  recorder.Stop();
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  recorder.WriteFile(path);
  const json::Value doc = json::ParseFile(path);
  EXPECT_EQ(doc.at("displayTimeUnit").AsString(), "ms");
  EXPECT_GE(doc.at("traceEvents").AsArray().size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceRecorder, GlobalMacrosRecordOnlyWhileEnabled) {
  TraceRecorder& global = TraceRecorder::Global();
  { CALC_TRACE_SPAN("test", "before-start"); }
  global.Start();
  {
    CALC_TRACE_SPAN("test", "span");
    CALC_TRACE_INSTANT("test", "instant");
    CALC_TRACE_COUNTER("test.counter", 42);
  }
  global.Stop();
  { CALC_TRACE_SPAN("test", "after-stop"); }

  std::set<std::string> names;
  for (const json::Value& e : RealEvents(global)) {
    names.insert(e.at("name").AsString());
  }
  EXPECT_TRUE(names.count("span"));
  EXPECT_TRUE(names.count("instant"));
  EXPECT_TRUE(names.count("test.counter"));
  EXPECT_FALSE(names.count("before-start"));
  EXPECT_FALSE(names.count("after-stop"));
}

TEST(TraceRecorder, SpanNamesAreBuiltOnlyWhileEnabled) {
  // A span's label may be formatted per item; with the recorder off the
  // expression must not run at all.
  TraceRecorder& global = TraceRecorder::Global();
  int built = 0;
  auto label = [&built] {
    ++built;
    return "lazy." + std::to_string(built);
  };
  { CALC_TRACE_SPAN("test", label()); }
  EXPECT_EQ(built, 0);
  global.Start();
  { CALC_TRACE_SPAN("test", label()); }
  global.Stop();
  EXPECT_EQ(built, 1);
  { CALC_TRACE_SPAN("test", label()); }
  EXPECT_EQ(built, 1);

  std::set<std::string> names;
  for (const json::Value& e : RealEvents(global)) {
    names.insert(e.at("name").AsString());
  }
  EXPECT_EQ(names, std::set<std::string>{"lazy.1"});
}

}  // namespace
}  // namespace calculon::obs
