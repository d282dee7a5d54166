// SpanTracer: nesting/depth, the logical clock, capacity bounds, and the
// deterministic (wall-clock-free) JSONL export.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/tracer.hpp"

namespace vdx::obs {
namespace {

TEST(SpanTracerTest, NestedSpansRecordParentAndDepth) {
  SpanTracer tracer;
  const auto outer = tracer.begin("round");
  const auto inner = tracer.begin("solve");
  tracer.end(inner);
  tracer.end(outer);
  const auto sibling = tracer.begin("accept");
  tracer.end(sibling);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(tracer.name(spans[0]), "round");
  EXPECT_EQ(spans[0].parent, UINT32_MAX);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(tracer.name(spans[1]), "solve");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(tracer.name(spans[2]), "accept");
  EXPECT_EQ(spans[2].parent, UINT32_MAX);
  for (const auto& span : spans) EXPECT_TRUE(span.closed);
  // seq pairs nest: open(round) < open(solve) < close(solve) < close(round).
  EXPECT_LT(spans[0].seq_open, spans[1].seq_open);
  EXPECT_LT(spans[1].seq_close, spans[0].seq_close);
}

TEST(SpanTracerTest, LogicalClockStampsOpenAndClose) {
  SpanTracer tracer;
  std::uint64_t clock = 10;  // the engine's clock; the span only reads it
  {
    const SpanTracer::Scoped span{&tracer, "step", &clock};
    clock += 7;
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].logical_open, 10u);
  EXPECT_EQ(tracer.spans()[0].logical_close, 17u);
  EXPECT_EQ(clock, 17u);
}

TEST(SpanTracerTest, InstantIsZeroDurationAndClosed) {
  SpanTracer tracer;
  tracer.instant("estimate", 5);
  ASSERT_EQ(tracer.spans().size(), 1u);
  const auto& span = tracer.spans()[0];
  EXPECT_TRUE(span.closed);
  EXPECT_EQ(span.logical_open, 5u);
  EXPECT_EQ(span.logical_close, 5u);
}

TEST(SpanTracerTest, CapacityBoundsSpansAndCountsDrops) {
  SpanTracer tracer{2};
  const auto a = tracer.begin("a");
  const auto b = tracer.begin("b");
  const auto c = tracer.begin("c");  // over capacity: dropped
  EXPECT_EQ(c, 0u);
  tracer.end(c);  // no-op, must not disturb the open stack
  tracer.end(b);
  tracer.end(a);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_TRUE(tracer.spans()[0].closed);
  EXPECT_TRUE(tracer.spans()[1].closed);
}

TEST(SpanTracerTest, ScopedWithNullTracerIsNoOp) {
  {
    const SpanTracer::Scoped scope{nullptr, "nothing"};
  }
  SpanTracer tracer;
  {
    const SpanTracer::Scoped scope{&tracer, "real"};
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.name(tracer.spans()[0]), "real");
}

TEST(SpanTracerTest, DefaultJsonlIsDeterministicAndWallClockFree) {
  const auto run = [](SpanTracer& tracer) {
    const auto round = tracer.begin("round", 0);
    tracer.instant("estimate", 3);
    const auto solve = tracer.begin("solve", 3);
    tracer.end(solve, 5);
    tracer.end(round, 5);
  };
  SpanTracer first;
  SpanTracer second;
  run(first);
  run(second);

  std::ostringstream a;
  std::ostringstream b;
  first.write_jsonl(a);
  second.write_jsonl(b);
  EXPECT_EQ(a.str(), b.str());
  // Two separately constructed tracers agree byte for byte only because the
  // default export carries no wall-clock fields.
  EXPECT_EQ(a.str().find("wall"), std::string::npos);

  std::ostringstream with_wall;
  first.write_jsonl(with_wall, /*include_wall=*/true);
  EXPECT_NE(with_wall.str().find("wall_open_s"), std::string::npos);
}

}  // namespace
}  // namespace vdx::obs
