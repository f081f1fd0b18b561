// Tests for threshold frames (data-driven windows) and the new positional /
// count-distinct aggregations.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/positional.h"
#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "tests/test_util.h"
#include "windows/frames.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::FinalResults;
using testutil::Num;
using testutil::RunStream;
using testutil::T;

GeneralSlicingOperator::Options Opts(bool in_order, Time lateness = 1000) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = in_order;
  o.allowed_lateness = lateness;
  return o;
}

// --------------------------- Window state machine ---------------------------

TEST(ThresholdFrames, FramesSpanQualifyingRuns) {
  ThresholdFrameWindow w(10.0);
  w.ProcessContext(T(1, 5, 0));    // below: break
  w.ProcessContext(T(2, 12, 1));   // frame opens at 2
  w.ProcessContext(T(3, 15, 2));
  w.ProcessContext(T(4, 3, 3));    // closes frame at 4
  w.ProcessContext(T(6, 20, 4));   // second frame opens
  w.ProcessContext(T(8, 1, 5));    // closes at 8
  WindowCollector c;
  w.TriggerWindows(c, 0, 10);
  const std::vector<std::pair<Time, Time>> expected = {{2, 4}, {6, 8}};
  EXPECT_EQ(c.windows, expected);
}

TEST(ThresholdFrames, OpenFrameNotTriggered) {
  ThresholdFrameWindow w(10.0);
  w.ProcessContext(T(2, 12, 0));
  w.ProcessContext(T(5, 14, 1));
  WindowCollector c;
  w.TriggerWindows(c, 0, 100);
  EXPECT_TRUE(c.windows.empty());  // no break yet: the frame may still extend
  EXPECT_EQ(w.EvictionSafePoint(100), 2);  // retain from the open frame
}

TEST(ThresholdFrames, InOrderEdgesAreCheapCuts) {
  ThresholdFrameWindow w(10.0);
  ContextModifications open = w.ProcessContext(T(2, 12, 0));
  ASSERT_EQ(open.split_edges.size(), 1u);
  EXPECT_EQ(open.split_edges[0], 2);
  ContextModifications mid = w.ProcessContext(T(3, 13, 1));
  EXPECT_TRUE(mid.split_edges.empty());  // interior tuple: no edge
  ContextModifications close = w.ProcessContext(T(5, 1, 2));
  ASSERT_EQ(close.split_edges.size(), 1u);
  EXPECT_EQ(close.split_edges[0], 5);
}

TEST(ThresholdFrames, EdgePredicates) {
  ThresholdFrameWindow w(10.0);
  w.ProcessContext(T(2, 12, 0));
  w.ProcessContext(T(3, 13, 1));
  w.ProcessContext(T(5, 1, 2));
  EXPECT_EQ(w.LastEdgeAtOrBefore(4), 3);  // conservative: latest event
  EXPECT_EQ(w.GetNextEdge(0), kMaxTime);  // edges are data-driven
}

TEST(ThresholdFrames, OutOfOrderBreakSplitsFrame) {
  ThresholdFrameWindow w(10.0);
  w.ProcessContext(T(2, 12, 0));
  w.ProcessContext(T(4, 13, 1));
  w.ProcessContext(T(6, 14, 2));
  w.ProcessContext(T(8, 1, 3));  // closes [2, 8)
  ContextModifications mods = w.ProcessContext(T(5, 2, 4));  // OOO break
  ASSERT_EQ(mods.split_edges.size(), 1u);
  EXPECT_EQ(mods.split_edges[0], 5);
  WindowCollector c;
  w.TriggerWindows(c, 0, 10);
  const std::vector<std::pair<Time, Time>> expected = {{2, 5}, {6, 8}};
  EXPECT_EQ(c.windows, expected);
}

// --------------------------- End-to-end in the operator ---------------------------

TEST(ThresholdFrames, InOrderOperatorAggregatesPerFrame) {
  GeneralSlicingOperator op(Opts(true));
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<ThresholdFrameWindow>(10.0));
  auto fin = FinalResults(RunStream(
      op,
      {T(1, 5), T(2, 12), T(3, 15), T(4, 3), T(6, 20), T(7, 11), T(8, 1)},
      20));
  // Frame [2,4): 12 + 15; frame [6,8): 20 + 11. Break tuples excluded.
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 2, 4}]), 27.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 6, 8}]), 31.0);
  EXPECT_FALSE(op.queries().StoreTuples());  // in-order FCF: no retention
}

TEST(ThresholdFrames, OutOfOrderBreakSplitsSliceWithRecompute) {
  GeneralSlicingOperator op(Opts(false));
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<ThresholdFrameWindow>(10.0));
  EXPECT_TRUE(op.queries().StoreTuples());  // FCF + OOO
  std::vector<Tuple> tuples = {T(2, 12), T(4, 13), T(6, 14), T(8, 1),
                               T(5, 2)};  // OOO break at 5
  auto fin = FinalResults(RunStream(op, tuples, 20));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 2, 5}]), 12.0 + 13.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 6, 8}]), 14.0);
  EXPECT_GT(op.stats().slice_splits, 0u);
}

// --------------------------- New aggregations ---------------------------

TEST(FirstLast, ResolveByEventTimeNotArrival) {
  FirstAggregation first;
  LastAggregation last;
  Partial f;
  Partial l;
  // Arrival order differs from event-time order.
  for (const Tuple& t : {T(5, 50, 0), T(1, 10, 1), T(9, 90, 2), T(3, 30, 3)}) {
    first.Combine(f, first.Lift(t));
    last.Combine(l, last.Lift(t));
  }
  EXPECT_DOUBLE_EQ(first.Lower(f).AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(last.Lower(l).AsDouble(), 90.0);
}

TEST(FirstLast, TryRemoveFastPath) {
  FirstAggregation first;
  Partial acc;
  for (const Tuple& t : {T(1, 10, 0), T(5, 50, 1)}) {
    first.Combine(acc, first.Lift(t));
  }
  EXPECT_TRUE(first.TryRemove(acc, first.Lift(T(5, 50, 1))));  // not first
  EXPECT_FALSE(first.TryRemove(acc, first.Lift(T(1, 10, 0))));
}

TEST(CountDistinct, CountsDistinctValues) {
  AggregateFunctionPtr cd = MakeAggregation("count-distinct");
  Partial acc;
  for (const Tuple& t : {T(1, 7.0), T(2, 3.0), T(3, 7.0), T(4, 5.0)}) {
    cd->Combine(acc, cd->Lift(t));
  }
  EXPECT_EQ(cd->Lower(acc).AsInt(), 3);
  // Invert one occurrence of a duplicated value: still 3 distinct.
  cd->Invert(acc, cd->Lift(T(1, 7.0)));
  EXPECT_EQ(cd->Lower(acc).AsInt(), 3);
  // Remove the remaining 7: now 2.
  cd->Invert(acc, cd->Lift(T(3, 7.0)));
  EXPECT_EQ(cd->Lower(acc).AsInt(), 2);
}

TEST(CountDistinct, WorksOverTumblingWindows) {
  GeneralSlicingOperator op(Opts(true));
  op.AddAggregation(MakeAggregation("count-distinct"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 5), T(3, 5), T(7, 9), T(12, 1)}, 20));
  EXPECT_EQ((fin[{0, 0, 0, 10}]).AsInt(), 2);
}

TEST(FirstLast, WorkOverSlicedWindowsWithOoo) {
  GeneralSlicingOperator op(Opts(false));
  const int first = op.AddAggregation(MakeAggregation("first"));
  const int last = op.AddAggregation(MakeAggregation("last"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(5, 50), T(12, 120), T(2, 20), T(8, 80)}, 20));
  EXPECT_DOUBLE_EQ(Num(fin[{0, first, 0, 10}]), 20.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, last, 0, 10}]), 80.0);
}

}  // namespace
}  // namespace scotty
