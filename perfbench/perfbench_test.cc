// Unit tests for the benchmark's span self-time computation, the
// registry-delta helper and the quantile helpers.

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

Span MakeSpan(int64_t start, int64_t end, int32_t parent) {
  Span span;
  span.name = "s";
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimesTest, LeafSpanIsItsDuration) {
  EXPECT_EQ(SelfTimes({MakeSpan(10, 35, -1)}), std::vector<int64_t>({25}));
}

TEST(SelfTimesTest, DisjointChildrenAreSubtracted) {
  // [0,100) with children [10,20) and [50,80): 100 - 10 - 30 = 60.
  const std::vector<int64_t> self = SelfTimes(
      {MakeSpan(0, 100, -1), MakeSpan(10, 20, 0), MakeSpan(50, 80, 0)});
  EXPECT_EQ(self, std::vector<int64_t>({60, 10, 30}));
}

TEST(SelfTimesTest, NestedGrandchildOnlyReducesItsParent) {
  // root [0,100) > child [10,60) > grandchild [20,30).
  const std::vector<int64_t> self = SelfTimes(
      {MakeSpan(0, 100, -1), MakeSpan(10, 60, 0), MakeSpan(20, 30, 1)});
  EXPECT_EQ(self, std::vector<int64_t>({50, 40, 10}));
}

TEST(SelfTimesTest, OverlappingChildrenAreCountedOnce) {
  // Children [10,40) and [30,60) overlap on [30,40): union is [10,60).
  const std::vector<int64_t> self = SelfTimes(
      {MakeSpan(0, 100, -1), MakeSpan(10, 40, 0), MakeSpan(30, 60, 0)});
  EXPECT_EQ(self[0], 50);
}

TEST(SelfTimesTest, ContainedAndTouchingChildrenMerge) {
  // [10,50) contains [20,30); [50,70) touches it: union [10,70) = 60.
  const std::vector<int64_t> self =
      SelfTimes({MakeSpan(0, 100, -1), MakeSpan(10, 50, 0),
                 MakeSpan(20, 30, 0), MakeSpan(50, 70, 0)});
  EXPECT_EQ(self[0], 40);
}

TEST(SelfTimesTest, ChildrenAreClippedToTheParent) {
  // A child that outlives its parent covers only the shared interval.
  const std::vector<int64_t> self = SelfTimes(
      {MakeSpan(0, 100, -1), MakeSpan(90, 130, 0), MakeSpan(200, 210, 0)});
  EXPECT_EQ(self[0], 90);
}

TEST(SpanBufferTest, ParentsFollowNestingAndDisabledRecordsNothing) {
  SpanBuffer buffer;
  {
    ScopedSpan root(&buffer, "root", 7);
    ScopedSpan child(&buffer, "child", 7);
  }
  ScopedSpan(&buffer, "second", 8);
  ASSERT_EQ(buffer.spans().size(), 3u);
  EXPECT_EQ(buffer.spans()[0].parent, -1);
  EXPECT_EQ(buffer.spans()[1].parent, 0);
  EXPECT_EQ(buffer.spans()[2].parent, -1);
  EXPECT_EQ(buffer.spans()[1].op_id, 7u);
  EXPECT_LE(buffer.spans()[0].start_ns, buffer.spans()[1].start_ns);
  EXPECT_GE(buffer.spans()[0].end_ns, buffer.spans()[1].end_ns);

  const std::map<std::string, SpanStats> stats =
      SummarizeSpans({&buffer.spans()});
  EXPECT_EQ(stats.at("root").count, 1);
  EXPECT_EQ(stats.at("child").durations_ns.size(), 1u);

  SpanBuffer off(false);
  { ScopedSpan span(&off, "root", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(RegistryDeltaTest, CountsSumsAndMeans) {
  pqidx::Metrics metrics;
  metrics.counter("c")->Add(5);
  metrics.histogram("h")->Record(100);
  metrics.gauge("g")->Set(3);
  const pqidx::MetricsSnapshot before = metrics.Snapshot();

  metrics.counter("c")->Add(7);
  metrics.counter("fresh")->Add(2);  // registered after `before`
  metrics.histogram("h")->Record(10);
  metrics.histogram("h")->Record(21);
  metrics.gauge("g")->Set(9);
  const pqidx::MetricsSnapshot after = metrics.Snapshot();

  const RegistryDelta delta(before, after);
  EXPECT_EQ(delta.Count("c"), 7);
  EXPECT_EQ(delta.Count("fresh"), 2);
  EXPECT_EQ(delta.Count("h"), 2);
  EXPECT_EQ(delta.Sum("h"), 31);
  // Exact: (10 + 21) / 2, where the power-of-two quantiles would say
  // 31 for both.
  EXPECT_DOUBLE_EQ(delta.Mean("h"), 15.5);
  EXPECT_EQ(delta.Count("g"), 0);  // gauges are not differenced
  EXPECT_DOUBLE_EQ(delta.Ratio("c", "fresh"), 3.5);
  EXPECT_EQ(delta.Count("missing"), 0);
  EXPECT_EQ(delta.Mean("missing"), 0);
  EXPECT_EQ(delta.Ratio("c", "missing"), 0);
}

TEST(RegistryDeltaTest, IdenticalSnapshotsGiveZeroDeltas) {
  pqidx::Metrics metrics;
  metrics.counter("c")->Add(4);
  metrics.histogram("h")->Record(8);
  const pqidx::MetricsSnapshot snap = metrics.Snapshot();
  const RegistryDelta delta(snap, snap);
  EXPECT_EQ(delta.Count("c"), 0);
  EXPECT_EQ(delta.Count("h"), 0);
  EXPECT_EQ(delta.Mean("h"), 0);
}

TEST(QuantileTest, NearestRank) {
  std::vector<int64_t> v{5, 1, 4, 2, 3};
  EXPECT_EQ(Quantile(&v, 0.5), 3);
  EXPECT_EQ(Quantile(&v, 0.0), 1);
  EXPECT_EQ(Quantile(&v, 1.0), 5);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Mean({1, 2, 6}), 3.0);
  EXPECT_EQ(Mean({}), 0.0);
}

}  // namespace
}  // namespace perfbench
