// Percentile and self-time arithmetic of the benchmark report.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankWithSamplesBeyond) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000, shuffled order is fine
  std::reverse(v.begin(), v.end());
  const Percentile p99 = percentile(v, 99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  const Percentile p50 = percentile(v, 50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, SmallAndEmptySets) {
  EXPECT_EQ(percentile({7.0}, 99).value, 7.0);
  EXPECT_EQ(percentile({7.0}, 99).beyond, 0u);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50).value, 2.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 99).value, 4.0);
  const Percentile empty = percentile({}, 50);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0.0);
}

TEST(Median, MidpointOfEvenSets) {
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  return Span{name, start, end, parent, 0};
}

TEST(SelfTime, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {
      span("bench.pass", 0, 100, -1),
      span("cpg.record", 10, 30, 0),
      span("cpg.finalize", 40, 70, 0),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {
      span("net.call", 0, 100, -1),
      span("query.engine", 10, 60, 0),
      span("query.engine", 40, 80, 0),  // concurrent with the first
  };
  EXPECT_EQ(self_times_ns(spans)[0], 30);  // 100 - |[10, 80)|
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {
      span("net.call", 0, 100, -1),
      span("query.engine", 90, 150, 0),  // measured elsewhere, runs over
      span("query.parse", -20, 5, 0),
  };
  EXPECT_EQ(self_times_ns(spans)[0], 85);  // 100 - 10 - 5
}

TEST(SelfTime, NestedLayersSumPerLayer) {
  const std::vector<Span> spans = {
      span("bench.pass", 0, 100, -1),
      span("shard.write", 0, 60, 0),
      span("cpg.serialize", 10, 20, 1),
      span("shard.open", 70, 80, 0),
  };
  const auto layers = layer_self_ns(spans);
  EXPECT_EQ(layers.at("bench"), 30);
  EXPECT_EQ(layers.at("shard"), 60);  // (60 - 10) + 10
  EXPECT_EQ(layers.at("cpg"), 10);
}

TEST(Tracer, MergeRebasesParents) {
  Tracer a(true), b(true);
  const auto root = a.add("net.call", 0, 10, -1);
  a.add("query.parse", 0, 1, root);
  const auto other = b.add("net.call", 20, 30, -1);
  b.add("query.engine", 21, 25, other);
  a.merge(b);
  ASSERT_EQ(a.spans().size(), 4u);
  EXPECT_EQ(a.spans()[3].parent, 2);
  EXPECT_EQ(self_times_ns(a.spans())[2], 6);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  { Tracer::Scope s(t, "cpg.record"); }
  EXPECT_EQ(t.add("x.y", 0, 1, -1), -1);
  EXPECT_TRUE(t.spans().empty());
}

}  // namespace
}  // namespace perfbench
