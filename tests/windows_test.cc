// Unit tests for the window-type library: edge arithmetic, triggering,
// context classification, and session/punctuation state machines.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "windows/multi_measure.h"
#include "windows/punctuation.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::T;

// An instant is an edge of `w` exactly when it is the last edge at or
// before itself.
bool IsEdge(const Window& w, Time t) { return w.LastEdgeAtOrBefore(t) == t; }

// --------------------------- Tumbling ---------------------------

TEST(TumblingWindow, NextEdgeIsNextMultiple) {
  TumblingWindow w(10);
  EXPECT_EQ(w.GetNextEdge(0), 10);
  EXPECT_EQ(w.GetNextEdge(9), 10);
  EXPECT_EQ(w.GetNextEdge(10), 20);
  EXPECT_EQ(w.GetNextEdge(25), 30);
}

TEST(TumblingWindow, LastEdgeAtOrBefore) {
  TumblingWindow w(10);
  EXPECT_EQ(w.LastEdgeAtOrBefore(0), 0);
  EXPECT_EQ(w.LastEdgeAtOrBefore(9), 0);
  EXPECT_EQ(w.LastEdgeAtOrBefore(10), 10);
  EXPECT_EQ(w.LastEdgeAtOrBefore(25), 20);
}

TEST(TumblingWindow, EdgesOnMultiples) {
  TumblingWindow w(10);
  EXPECT_TRUE(IsEdge(w, 0));
  EXPECT_TRUE(IsEdge(w, 20));
  EXPECT_FALSE(IsEdge(w, 15));
}

TEST(TumblingWindow, TriggerReportsEndedWindows) {
  TumblingWindow w(10);
  WindowCollector c;
  w.TriggerWindows(c, 5, 35);
  const std::vector<std::pair<Time, Time>> expected = {
      {0, 10}, {10, 20}, {20, 30}};
  EXPECT_EQ(c.windows, expected);
}

TEST(TumblingWindow, TriggerEmptyRange) {
  TumblingWindow w(10);
  WindowCollector c;
  w.TriggerWindows(c, 10, 19);  // no multiple of 10 in (10, 19]
  EXPECT_TRUE(c.windows.empty());
}

TEST(TumblingWindow, TriggerBoundaryInclusive) {
  TumblingWindow w(10);
  WindowCollector c;
  w.TriggerWindows(c, 19, 20);
  ASSERT_EQ(c.windows.size(), 1u);
  EXPECT_EQ(c.windows[0], (std::pair<Time, Time>{10, 20}));
}

TEST(TumblingWindow, ContextClassAndMeasure) {
  TumblingWindow w(10, Measure::kCount);
  EXPECT_EQ(w.context_class(), ContextClass::kContextFree);
  EXPECT_EQ(w.measure(), Measure::kCount);
  EXPECT_FALSE(w.IsSession());
  EXPECT_EQ(w.EvictionSafePoint(100), 90);
}

// --------------------------- Sliding ---------------------------

TEST(SlidingWindow, EdgesIncludeStartsAndEnds) {
  SlidingWindow w(10, 4);  // windows [0,10),[4,14),[8,18),...
  EXPECT_EQ(w.GetNextEdge(0), 4);    // next start
  EXPECT_EQ(w.GetNextEdge(9), 10);   // end of [0,10)
  EXPECT_EQ(w.GetNextEdge(10), 12);  // start at 12
}

TEST(SlidingWindow, AlignedWindowsExposeStartOnlyEdges) {
  SlidingWindow w(20, 5);  // 20 % 5 == 0: ends coincide with starts
  // Every edge is a start, a multiple of the slide, so the next edge after
  // an instant is the next start.
  EXPECT_EQ(w.GetNextEdge(9), 10);
  EXPECT_EQ(w.GetNextEdge(10), 15);
  EXPECT_EQ(w.GetNextEdge(24), 25);
  EXPECT_EQ(w.LastEdgeAtOrBefore(24), 20);
}

TEST(SlidingWindow, LastEdgeAtOrBefore) {
  SlidingWindow w(10, 4);
  EXPECT_EQ(w.LastEdgeAtOrBefore(3), 0);
  EXPECT_EQ(w.LastEdgeAtOrBefore(11), 10);  // end edge of [0,10)
  EXPECT_EQ(w.LastEdgeAtOrBefore(13), 12);
}

TEST(SlidingWindow, EdgeInstantsAreStartsAndEnds) {
  SlidingWindow w(10, 4);
  EXPECT_TRUE(IsEdge(w, 0));
  EXPECT_TRUE(IsEdge(w, 4));
  EXPECT_TRUE(IsEdge(w, 10));  // end of [0,10)
  EXPECT_TRUE(IsEdge(w, 14));  // end of [4,14)
  EXPECT_FALSE(IsEdge(w, 5));
}

TEST(SlidingWindow, TriggerEnumeratesOverlappingWindows) {
  SlidingWindow w(10, 4);
  WindowCollector c;
  w.TriggerWindows(c, 9, 20);
  const std::vector<std::pair<Time, Time>> expected = {
      {0, 10}, {4, 14}, {8, 18}};
  EXPECT_EQ(c.windows, expected);
}

TEST(SlidingWindow, TumblingEquivalenceWhenSlideEqualsLength) {
  SlidingWindow s(10, 10);
  TumblingWindow t(10);
  for (Time x : {0, 5, 9, 10, 17, 100}) {
    EXPECT_EQ(s.GetNextEdge(x), t.GetNextEdge(x)) << x;
    EXPECT_EQ(s.LastEdgeAtOrBefore(x), t.LastEdgeAtOrBefore(x)) << x;
  }
}

// --------------------------- Session ---------------------------

TEST(SessionWindow, InOrderTuplesFormSessions) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(12, 1, 1));
  w.ProcessContext(T(20, 1, 2));  // 20 - 12 = 8 > 5: new session
  EXPECT_EQ(w.ActiveSessionCount(), 2u);
  WindowCollector c;
  w.TriggerWindows(c, 0, 100);
  const std::vector<std::pair<Time, Time>> expected = {{10, 17}, {20, 25}};
  EXPECT_EQ(c.windows, expected);
}

TEST(SessionWindow, InOrderExtensionProducesNoMods) {
  SessionWindow w(5);
  EXPECT_TRUE(w.ProcessContext(T(10, 1, 0)).Empty());
  EXPECT_TRUE(w.ProcessContext(T(13, 1, 1)).Empty());
}

TEST(SessionWindow, OutOfOrderTupleCreatesSessionBetween) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(40, 1, 1));
  ContextModifications mods = w.ProcessContext(T(25, 1, 2));  // new session
  EXPECT_EQ(w.ActiveSessionCount(), 3u);
  ASSERT_EQ(mods.changed_windows.size(), 1u);
  EXPECT_EQ(mods.changed_windows[0], (std::pair<Time, Time>{25, 30}));
}

TEST(SessionWindow, OutOfOrderTupleMergesSessions) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(18, 1, 1));  // session 2 (18 - 10 = 8 > 5)
  ASSERT_EQ(w.ActiveSessionCount(), 2u);
  // 14 bridges: 14 - 10 < 5 and 18 - 14 < 5.
  ContextModifications mods = w.ProcessContext(T(14, 1, 2));
  EXPECT_EQ(w.ActiveSessionCount(), 1u);
  ASSERT_EQ(mods.merged_ranges.size(), 1u);
  EXPECT_EQ(mods.merged_ranges[0], (std::pair<Time, Time>{10, 23}));
  WindowCollector c;
  w.TriggerWindows(c, 0, 100);
  ASSERT_EQ(c.windows.size(), 1u);
  EXPECT_EQ(c.windows[0], (std::pair<Time, Time>{10, 23}));
}

TEST(SessionWindow, OutOfOrderBackwardExtension) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(30, 1, 1));
  ContextModifications mods = w.ProcessContext(T(7, 1, 2));  // extends [10..]
  EXPECT_EQ(w.ActiveSessionCount(), 2u);
  ASSERT_EQ(mods.resizes.size(), 1u);
  EXPECT_EQ(mods.resizes[0].new_start, 7);
  EXPECT_EQ(mods.resizes[0].new_end, 15);
  WindowCollector c;
  w.TriggerWindows(c, 0, 20);
  ASSERT_EQ(c.windows.size(), 1u);
  EXPECT_EQ(c.windows[0], (std::pair<Time, Time>{7, 15}));
}

TEST(SessionWindow, OutOfOrderForwardExtension) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(30, 1, 1));
  ContextModifications mods = w.ProcessContext(T(13, 1, 2));
  ASSERT_EQ(mods.resizes.size(), 1u);
  EXPECT_EQ(mods.resizes[0].new_start, 10);
  EXPECT_EQ(mods.resizes[0].new_end, 18);
}

TEST(SessionWindow, EdgesFollowSessions) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(12, 1, 1));
  EXPECT_EQ(w.GetNextEdge(12), 17);  // session timeout
  EXPECT_EQ(w.LastEdgeAtOrBefore(13), 10);
  EXPECT_TRUE(IsEdge(w, 10));
  EXPECT_TRUE(IsEdge(w, 17));
  EXPECT_FALSE(IsEdge(w, 12));
  // Outside any session, a new tuple would start a session at its own ts.
  EXPECT_EQ(w.LastEdgeAtOrBefore(40), 40);
}

TEST(SessionWindow, EvictionSafePointProtectsActiveSessions) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  // Session [10, 15) has not timed out at wm=12: keep from its start.
  EXPECT_EQ(w.EvictionSafePoint(12), 10);
  // At wm=50 the session has timed out.
  EXPECT_EQ(w.EvictionSafePoint(50), 50);
}

TEST(SessionWindow, EvictStateDropsTimedOutSessions) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(30, 1, 1));
  w.EvictState(20);
  EXPECT_EQ(w.ActiveSessionCount(), 1u);
}

TEST(SessionWindow, TriggerRespectsWatermarkRange) {
  SessionWindow w(5);
  w.ProcessContext(T(10, 1, 0));
  w.ProcessContext(T(30, 1, 1));
  WindowCollector c;
  w.TriggerWindows(c, 0, 20);  // only the first session has ended
  ASSERT_EQ(c.windows.size(), 1u);
  EXPECT_EQ(c.windows[0], (std::pair<Time, Time>{10, 15}));
}

// --------------------------- Punctuation ---------------------------

Tuple Punct(Time ts, uint64_t seq) {
  Tuple t = T(ts, 0, seq);
  t.is_punctuation = true;
  return t;
}

TEST(PunctuationWindow, WindowsSpanConsecutiveMarkers) {
  PunctuationWindow w;
  w.ProcessContext(T(1, 1, 0));
  w.ProcessContext(Punct(5, 1));
  w.ProcessContext(T(7, 1, 2));
  w.ProcessContext(Punct(12, 3));
  w.ProcessContext(Punct(20, 4));
  WindowCollector c;
  w.TriggerWindows(c, 0, 25);
  const std::vector<std::pair<Time, Time>> expected = {{5, 12}, {12, 20}};
  EXPECT_EQ(c.windows, expected);
}

TEST(PunctuationWindow, InOrderMarkerRequestsCheapSplit) {
  PunctuationWindow w;
  ContextModifications mods = w.ProcessContext(Punct(5, 0));
  ASSERT_EQ(mods.split_edges.size(), 1u);
  EXPECT_EQ(mods.split_edges[0], 5);
  EXPECT_TRUE(mods.changed_windows.empty());
}

TEST(PunctuationWindow, OutOfOrderMarkerSplitsKnownWindow) {
  PunctuationWindow w;
  w.ProcessContext(Punct(5, 0));
  w.ProcessContext(Punct(20, 1));
  w.ProcessContext(T(25, 1, 2));
  ContextModifications mods = w.ProcessContext(Punct(12, 3));
  ASSERT_EQ(mods.split_edges.size(), 1u);
  EXPECT_EQ(mods.split_edges[0], 12);
  ASSERT_EQ(mods.changed_windows.size(), 2u);
  EXPECT_EQ(mods.changed_windows[0], (std::pair<Time, Time>{5, 12}));
  EXPECT_EQ(mods.changed_windows[1], (std::pair<Time, Time>{12, 20}));
}

TEST(PunctuationWindow, DuplicateMarkersIgnored) {
  PunctuationWindow w;
  w.ProcessContext(Punct(5, 0));
  EXPECT_TRUE(w.ProcessContext(Punct(5, 1)).Empty());
  EXPECT_EQ(w.EdgeCount(), 1u);
}

TEST(PunctuationWindow, EdgeQueries) {
  PunctuationWindow w;
  w.ProcessContext(Punct(5, 0));
  w.ProcessContext(Punct(12, 1));
  EXPECT_EQ(w.GetNextEdge(5), 12);
  EXPECT_EQ(w.GetNextEdge(12), kMaxTime);
  EXPECT_EQ(w.LastEdgeAtOrBefore(11), 5);
  EXPECT_EQ(w.LastEdgeAtOrBefore(4), kNoTime);
  EXPECT_TRUE(IsEdge(w, 12));
  EXPECT_FALSE(IsEdge(w, 7));
  EXPECT_EQ(w.context_class(), ContextClass::kForwardContextFree);
}

TEST(PunctuationWindow, EvictStateKeepsOpenWindowEdge) {
  PunctuationWindow w;
  w.ProcessContext(Punct(5, 0));
  w.ProcessContext(Punct(12, 1));
  w.ProcessContext(Punct(30, 2));
  w.EvictState(20);
  // Edges 5 and 12 closed windows before 20; 12 opens [12,30): keep 12, 30.
  EXPECT_EQ(w.EdgeCount(), 2u);
  EXPECT_EQ(w.EvictionSafePoint(20), 12);
}

// --------------------------- Multi-measure (FCA) ---------------------------

class FakeView : public StreamStateView {
 public:
  explicit FakeView(std::vector<Time> tuple_times)
      : times_(std::move(tuple_times)) {}

  Time NthRecentTupleTime(Time t, int64_t n) const override {
    std::vector<Time> before;
    for (Time x : times_) {
      if (x < t) before.push_back(x);
    }
    if (static_cast<int64_t>(before.size()) < n) return kNoTime;
    return before[before.size() - static_cast<size_t>(n)];
  }

 private:
  std::vector<Time> times_;
};

TEST(LastNEveryTWindow, DerivesStartFromForwardContext) {
  LastNEveryTWindow w(3, 10);
  FakeView view({1, 4, 6, 8, 13, 17});
  w.Bind(&view);
  WindowCollector c;
  w.TriggerWindows(c, 0, 20);
  // At edge 10: last 3 tuples before 10 are {4, 6, 8} -> start 4.
  // At edge 20: last 3 before 20 are {8, 13, 17} -> start 8.
  const std::vector<std::pair<Time, Time>> expected = {{4, 10}, {8, 20}};
  EXPECT_EQ(c.windows, expected);
}

TEST(LastNEveryTWindow, SkipsTriggerWithInsufficientTuples) {
  LastNEveryTWindow w(5, 10);
  FakeView view({1, 4});
  w.Bind(&view);
  WindowCollector c;
  w.TriggerWindows(c, 0, 10);
  EXPECT_TRUE(c.windows.empty());
}

TEST(LastNEveryTWindow, ClassificationIsFCA) {
  LastNEveryTWindow w(10, 5000);
  EXPECT_EQ(w.context_class(), ContextClass::kForwardContextAware);
  EXPECT_FALSE(w.IsSession());
  EXPECT_EQ(w.GetNextEdge(4999), 5000);
  EXPECT_EQ(w.GetNextEdge(5000), 10000);
  EXPECT_TRUE(IsEdge(w, 10000));
}

}  // namespace
}  // namespace scotty
