// Parameterized sweeps over context-free window parameters: for a grid of
// (length, slide) combinations, the edge arithmetic and the end-to-end
// operator results must match brute force.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "common/rng.h"
#include "core/general_slicing_operator.h"
#include "tests/test_util.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::BruteForce;
using testutil::FinalResults;
using testutil::RunStream;
using testutil::T;

// ---------------------------------------------------------------------
// Edge arithmetic: for every (length, slide) pair, GetNextEdge /
// LastEdgeAtOrBefore must agree with a brute-force edge set (an instant is
// an edge exactly when it is the last edge at or before itself).
// ---------------------------------------------------------------------

using SlideParam = std::tuple<Time, Time>;  // (length, slide)

class SlidingEdgeSweep : public ::testing::TestWithParam<SlideParam> {};

TEST_P(SlidingEdgeSweep, EdgeFunctionsAgreeWithEnumeration) {
  const auto [len, slide] = GetParam();
  SlidingWindow w(len, slide);
  // Brute-force edge set over [0, horizon].
  const Time horizon = 4 * len + 5 * slide;
  std::vector<char> is_edge(static_cast<size_t>(horizon) + 1, 0);
  for (Time k = 0; k * slide <= horizon; ++k) {
    is_edge[static_cast<size_t>(k * slide)] = 1;
    if (k * slide + len <= horizon) {
      is_edge[static_cast<size_t>(k * slide + len)] = 1;
    }
  }
  for (Time t = 0; t <= horizon; ++t) {
    EXPECT_EQ(w.LastEdgeAtOrBefore(t) == t,
              static_cast<bool>(is_edge[(size_t)t]))
        << "edge at " << t << " len=" << len << " slide=" << slide;
    // Next edge strictly after t.
    Time next = kMaxTime;
    for (Time e = t + 1; e <= horizon; ++e) {
      if (is_edge[static_cast<size_t>(e)]) {
        next = e;
        break;
      }
    }
    if (next != kMaxTime) {
      EXPECT_EQ(w.GetNextEdge(t), next) << "GetNextEdge(" << t << ")";
    }
    // Last edge at or before t.
    Time last = kNoTime;
    for (Time e = t; e >= 0; --e) {
      if (is_edge[static_cast<size_t>(e)]) {
        last = e;
        break;
      }
    }
    EXPECT_EQ(w.LastEdgeAtOrBefore(t), last) << "LastEdgeAtOrBefore(" << t
                                             << ")";
  }
}

TEST_P(SlidingEdgeSweep, TriggerMatchesEnumeratedWindows) {
  const auto [len, slide] = GetParam();
  SlidingWindow w(len, slide);
  const Time wm = 3 * len + 4 * slide;
  WindowCollector c;
  w.TriggerWindows(c, 0, wm);
  std::vector<std::pair<Time, Time>> expected;
  for (Time k = 0;; ++k) {
    const Time end = k * slide + len;
    if (end > wm) break;
    if (end > 0) expected.push_back({k * slide, end});
  }
  EXPECT_EQ(c.windows, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SlidingEdgeSweep,
    ::testing::Values(SlideParam{10, 10}, SlideParam{10, 5}, SlideParam{10, 3},
                      SlideParam{12, 5}, SlideParam{7, 2}, SlideParam{20, 1},
                      SlideParam{5, 4}, SlideParam{100, 33}),
    [](const ::testing::TestParamInfo<SlideParam>& info) {
      return "l" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// End-to-end: the operator's results over a random stream must equal brute
// force for every (length, slide) of the grid — in-order and out-of-order.
// ---------------------------------------------------------------------

class SlidingEndToEndSweep : public ::testing::TestWithParam<SlideParam> {};

TEST_P(SlidingEndToEndSweep, OperatorMatchesBruteForce) {
  const auto [len, slide] = GetParam();
  for (const bool in_order : {true, false}) {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = in_order;
    o.allowed_lateness = 1000000;
    GeneralSlicingOperator op(o);
    op.AddAggregation(MakeAggregation("sum"));
    op.AddWindow(std::make_shared<SlidingWindow>(len, slide));

    Rng rng(static_cast<uint64_t>(len * 131 + slide));
    std::vector<Tuple> stream;
    Time ts = 0;
    for (int i = 0; i < 300; ++i) {
      ts += 1 + static_cast<Time>(rng.NextBounded(3));
      stream.push_back(T(ts, static_cast<double>(rng.NextBounded(10))));
    }
    if (!in_order) {
      for (size_t i = 1; i + 1 < stream.size(); i += 3) {
        std::swap(stream[i], stream[i + 1]);  // bounded disorder
      }
    }
    auto fin = FinalResults(RunStream(op, stream, ts + len + 1));
    ASSERT_FALSE(fin.empty());
    const AggregateFunctionPtr sum = MakeAggregation("sum");
    std::vector<Tuple> seqd = stream;
    for (size_t i = 0; i < seqd.size(); ++i) seqd[i].seq = i;
    for (const auto& [key, value] : fin) {
      const auto [w, a, s, e] = key;
      const Value expected = BruteForce(*sum, seqd, s, e);
      if (expected.IsEmpty()) {
        EXPECT_TRUE(value.IsEmpty()) << s << "," << e;
      } else {
        EXPECT_DOUBLE_EQ(value.Numeric(), expected.Numeric())
            << "len=" << len << " slide=" << slide << " [" << s << "," << e
            << ") in_order=" << in_order;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SlidingEndToEndSweep,
    ::testing::Values(SlideParam{10, 10}, SlideParam{10, 5}, SlideParam{12, 5},
                      SlideParam{7, 2}, SlideParam{25, 10},
                      SlideParam{40, 13}),
    [](const ::testing::TestParamInfo<SlideParam>& info) {
      return "l" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// Tumbling lengths sweep, count measure included.
class TumblingSweep : public ::testing::TestWithParam<Time> {};

TEST_P(TumblingSweep, TimeAndCountMeasuresMatchBruteForce) {
  const Time len = GetParam();
  GeneralSlicingOperator::Options o;
  o.stream_in_order = true;
  GeneralSlicingOperator op(o);
  op.AddAggregation(MakeAggregation("sum"));
  const int tw = op.AddWindow(std::make_shared<TumblingWindow>(len));
  const int cw =
      op.AddWindow(std::make_shared<TumblingWindow>(len, Measure::kCount));
  Rng rng(static_cast<uint64_t>(len));
  std::vector<Tuple> stream;
  Time ts = 0;
  for (int i = 0; i < 200; ++i) {
    ts += 1 + static_cast<Time>(rng.NextBounded(4));
    stream.push_back(T(ts, static_cast<double>(rng.NextBounded(9))));
  }
  auto fin = FinalResults(RunStream(op, stream, ts + len + 1));
  const AggregateFunctionPtr sum = MakeAggregation("sum");
  std::vector<Tuple> seqd = stream;
  for (size_t i = 0; i < seqd.size(); ++i) seqd[i].seq = i;
  int time_windows = 0;
  int count_windows = 0;
  for (const auto& [key, value] : fin) {
    const auto [w, a, s, e] = key;
    const Value expected =
        w == tw ? BruteForce(*sum, seqd, s, e)
                : testutil::BruteForceCount(*sum, seqd, s, e);
    if (expected.IsEmpty()) {
      EXPECT_TRUE(value.IsEmpty());
    } else {
      EXPECT_DOUBLE_EQ(value.Numeric(), expected.Numeric())
          << "w=" << w << " [" << s << "," << e << ") len=" << len;
    }
    if (w == tw) ++time_windows;
    if (w == cw) ++count_windows;
  }
  EXPECT_GT(time_windows, 0);
  EXPECT_GT(count_windows, 0);
}

INSTANTIATE_TEST_SUITE_P(Lengths, TumblingSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 50, 101),
                         [](const ::testing::TestParamInfo<Time>& info) {
                           return "len" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace scotty
