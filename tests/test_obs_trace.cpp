#include "c2b/obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "c2b/obs/obs.h"

namespace c2b::obs {
namespace {

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    clear_trace_events();
  }
};

TEST_F(ObsTraceTest, SpanRecordsOneEventPerScope) {
  { C2B_SPAN("test/one"); }
  { C2B_SPAN("test/two"); }
  const std::vector<TraceEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test/one");
  EXPECT_STREQ(events[1].name, "test/two");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
}

TEST_F(ObsTraceTest, NestedSpansCarryDepthAndContainment) {
  {
    C2B_SPAN("test/outer");
    {
      C2B_SPAN("test/middle");
      { C2B_SPAN("test/inner"); }
    }
  }
  const std::vector<TraceEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer starts first, inner last.
  EXPECT_STREQ(events[0].name, "test/outer");
  EXPECT_STREQ(events[1].name, "test/middle");
  EXPECT_STREQ(events[2].name, "test/inner");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 2u);
  // Containment: the outer span covers its children.
  const std::uint64_t outer_end = events[0].start_ns + events[0].duration_ns;
  const std::uint64_t inner_end = events[2].start_ns + events[2].duration_ns;
  EXPECT_GE(outer_end, inner_end);
}

TEST_F(ObsTraceTest, SpanArgIsExported) {
  { C2B_SPAN_ARG("test/arg", 42u); }
  const std::vector<TraceEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].has_arg);
  EXPECT_EQ(events[0].arg, 42u);

  const std::string json = chrome_trace_json();
  EXPECT_NE(json.find("\"v\":42"), std::string::npos);
}

TEST_F(ObsTraceTest, ChromeJsonHasCompleteEvents) {
  { C2B_SPAN("test/json"); }
  const std::string json = chrome_trace_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test/json\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(ObsTraceTest, ThreadsGetDistinctIds) {
  { C2B_SPAN("test/main_thread"); }
  std::thread worker([] { C2B_SPAN("test/worker_thread"); });
  worker.join();
  const std::vector<TraceEvent> events = collect_trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
}

TEST_F(ObsTraceTest, RingWrapKeepsNewestAndCountsDropped) {
  // Capacity applies to buffers created later, so exercise it on a fresh
  // thread.
  set_trace_buffer_capacity(8);
  std::thread worker([] {
    for (int i = 0; i < 20; ++i) {
      C2B_SPAN("test/wrap");
    }
  });
  worker.join();
  set_trace_buffer_capacity(1 << 16);
  const std::vector<TraceEvent> events = collect_trace_events();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_GE(dropped_trace_events(), 12u);
}

TEST_F(ObsTraceTest, DisabledRuntimeRecordsNothing) {
  set_enabled(false);
  { C2B_SPAN("test/disabled"); }
  set_enabled(true);
  EXPECT_TRUE(collect_trace_events().empty());
}

}  // namespace
}  // namespace c2b::obs
