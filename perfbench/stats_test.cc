// Tests of the benchmark's own arithmetic: percentile selection, the
// ten-samples-beyond rule, trace-line parsing, and span self time with
// nested and sibling spans.
#include "perfbench/stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.50), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile(OneTo(1), 0.99), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  // Nearest rank never interpolates: 10 samples, p95 is the 10th.
  EXPECT_EQ(Percentile(OneTo(10), 0.95), 10);
  EXPECT_EQ(Percentile(OneTo(10), 0.90), 9);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  EXPECT_TRUE(TailOf(OneTo(1000), 0.99).supported());
  EXPECT_FALSE(TailOf(OneTo(999), 0.99).supported());
  const Tail tail = TailOf(OneTo(2000), 0.99);
  EXPECT_EQ(tail.value, 1980);
  EXPECT_EQ(tail.samples, 2000u);
  EXPECT_EQ(tail.beyond, 20u);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(TraceLineTest, ParsesFramedLines) {
  Span span;
  bool is_span = false;
  ASSERT_TRUE(ParseTraceLine(
                  "{\"traceEvents\":[{\"name\":\"epoch\",\"cat\":\"pipeline\","
                  "\"ph\":\"X\",\"ts\":5,\"dur\":7,\"pid\":1,\"tid\":3,"
                  "\"args\":{\"epoch\":42}},",
                  &span, &is_span)
                  .ok());
  ASSERT_TRUE(is_span);
  EXPECT_EQ(span.category, "pipeline");
  EXPECT_EQ(span.name, "epoch");
  EXPECT_EQ(span.ts_us, 5u);
  EXPECT_EQ(span.dur_us, 7u);
  EXPECT_EQ(span.tid, 3);
  EXPECT_EQ(span.epoch, 42);

  ASSERT_TRUE(ParseTraceLine(
                  "{\"name\":\"q\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":9,\"dur\":1,\"pid\":1,\"tid\":0}],\"spire\":"
                  "{\"origin_us\":1,\"offset_us\":0,\"process\":\"\"}}",
                  &span, &is_span)
                  .ok());
  ASSERT_TRUE(is_span);
  EXPECT_EQ(span.name, "q");
  EXPECT_EQ(span.epoch, -1);

  // Async begin/end events are not spans.
  ASSERT_TRUE(ParseTraceLine("{\"name\":\"hop\",\"cat\":\"handoff\",\"ph\":"
                             "\"b\",\"ts\":1,\"pid\":1,\"tid\":0,\"id\":\"4\"},",
                             &span, &is_span)
                  .ok());
  EXPECT_FALSE(is_span);
  EXPECT_FALSE(ParseTraceLine("{\"name\":", &span, &is_span).ok());
}

Span MakeSpan(const char* name, std::uint64_t ts, std::uint64_t dur,
              int tid = 0) {
  Span span;
  span.category = "c";
  span.name = name;
  span.ts_us = ts;
  span.dur_us = dur;
  span.tid = tid;
  return span;
}

/// Spans in recording order (children before their parents).
std::vector<Span> Recorded(std::vector<Span> spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) spans[i].order = i;
  return spans;
}

TEST(SelfTimeTest, NestedAndSiblingSpans) {
  // epoch [0,100) > { smooth [0,10), update [10,30), inference [30,90) >
  // { wave [40,50), wave [50,70) } }
  std::vector<Span> spans = Recorded({
      MakeSpan("smooth", 0, 10),
      MakeSpan("update", 10, 20),
      MakeSpan("wave", 40, 10),
      MakeSpan("wave", 50, 20),
      MakeSpan("inference", 30, 60),
      MakeSpan("epoch", 0, 100),
  });
  ComputeSelfTimes(&spans);
  EXPECT_EQ(spans[0].self_us, 10u);
  EXPECT_EQ(spans[1].self_us, 20u);
  EXPECT_EQ(spans[2].self_us, 10u);
  EXPECT_EQ(spans[3].self_us, 20u);
  EXPECT_EQ(spans[4].self_us, 30u);  // 60 - (10 + 20)
  EXPECT_EQ(spans[5].self_us, 10u);  // 100 - (10 + 20 + 60)
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("c/wave").count, 2u);
  EXPECT_EQ(totals.at("c/wave").total_us, 30u);
  EXPECT_EQ(totals.at("c/epoch").self_us, 10u);
}

TEST(SelfTimeTest, ThreadsAreSeparateAndTiesNestByRecordOrder) {
  // Same interval on two threads: no nesting across threads. On thread 1
  // an outer and inner span share one rounded interval; the later-recorded
  // one is the parent.
  std::vector<Span> spans = Recorded({
      MakeSpan("a", 0, 50, /*tid=*/0),
      MakeSpan("inner", 0, 50, /*tid=*/1),
      MakeSpan("outer", 0, 50, /*tid=*/1),
      MakeSpan("after", 50, 5, /*tid=*/1),
  });
  ComputeSelfTimes(&spans);
  EXPECT_EQ(spans[0].self_us, 50u);
  EXPECT_EQ(spans[1].self_us, 50u);
  EXPECT_EQ(spans[2].self_us, 0u);
  EXPECT_EQ(spans[3].self_us, 5u);  // A sibling, not a child of outer.
}

TEST(SelfTimeTest, ChildOverrunningItsParentIsClipped) {
  std::vector<Span> spans = Recorded({
      MakeSpan("child", 8, 5),
      MakeSpan("parent", 0, 10),
  });
  ComputeSelfTimes(&spans);
  EXPECT_EQ(spans[1].self_us, 8u);  // 10 - clipped [8, 10)
  EXPECT_EQ(spans[0].self_us, 5u);
}

}  // namespace
}  // namespace perfbench
