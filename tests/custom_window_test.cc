// Tests for user-defined context-free windows (the paper's extension point)
// and the fluent QueryBuilder front-end.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "baselines/pairs.h"
#include "core/query_builder.h"
#include "tests/test_util.h"
#include "windows/custom.h"

namespace scotty {
namespace {

using testutil::FinalResults;
using testutil::Num;
using testutil::RunStream;
using testutil::T;

/// Irregular "billing cycle" edges: months of alternating length 30 / 31.
Time BillingNextEdge(Time t) {
  // Edges at 0, 30, 61, 91, 122, ... (pairs of 30+31 days).
  const Time cycle = 61;
  const Time base = (t >= 0 ? t / cycle : -1) * cycle;
  if (t < base + 30 && t >= base) return base + 30;
  if (t < base + 61) return base + 61;
  return base + cycle + 30;
}

TEST(CustomWindow, EdgeDerivation) {
  CustomContextFreeWindow w("billing", BillingNextEdge, /*max_extent=*/31);
  EXPECT_EQ(w.GetNextEdge(0), 30);
  EXPECT_EQ(w.GetNextEdge(30), 61);
  EXPECT_EQ(w.GetNextEdge(45), 61);
  EXPECT_EQ(w.GetNextEdge(61), 91);
  EXPECT_EQ(w.LastEdgeAtOrBefore(29), 0);
  EXPECT_EQ(w.LastEdgeAtOrBefore(30), 30);
  EXPECT_EQ(w.LastEdgeAtOrBefore(90), 61);
  EXPECT_EQ(w.LastEdgeAtOrBefore(61), 61);  // 61 is an edge
  EXPECT_EQ(w.LastEdgeAtOrBefore(60), 30);  // 60 is not
}

TEST(CustomWindow, TriggerProducesIrregularWindows) {
  CustomContextFreeWindow w("billing", BillingNextEdge, 31);
  WindowCollector c;
  w.TriggerWindows(c, 0, 130);
  const std::vector<std::pair<Time, Time>> expected = {
      {0, 30}, {30, 61}, {61, 91}, {91, 122}};
  EXPECT_EQ(c.windows, expected);
}

TEST(CustomWindow, WorksInsideGeneralSlicing) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = true;
  GeneralSlicingOperator op(o);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<CustomContextFreeWindow>(
      "billing", BillingNextEdge, 31));
  std::vector<Tuple> tuples;
  for (int day = 0; day < 130; ++day) tuples.push_back(T(day, 1.0));
  auto fin = FinalResults(RunStream(op, tuples, 130));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 30}]), 30.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 30, 61}]), 31.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 61, 91}]), 30.0);
}

TEST(CustomWindow, CuttySupportsUserDefinedWindows) {
  // The Cutty baseline's defining feature [10]: user-defined CF windows.
  CuttyOperator op;
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<CustomContextFreeWindow>(
      "billing", BillingNextEdge, 31));
  std::vector<Tuple> tuples;
  for (int day = 0; day < 100; ++day) tuples.push_back(T(day, 1.0));
  auto fin = FinalResults(RunStream(op, tuples, 100));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 30}]), 30.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 30, 61}]), 31.0);
}

TEST(QueryBuilder, BuildsCompleteOperator) {
  auto op = QueryBuilder()
                .OutOfOrder(/*allowed_lateness=*/100)
                .Eager()
                .Aggregate("sum")
                .Aggregate("median")
                .Tumbling(10)
                .Session(5)
                .Build();
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->queries().aggs.size(), 2u);
  EXPECT_EQ(op->queries().windows.size(), 2u);
  EXPECT_EQ(op->Name(), "general-slicing-eager");

  auto fin = FinalResults(RunStream(*op, {T(1, 1), T(3, 2), T(20, 4)}, 40));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 3.0);   // tumbling sum
  EXPECT_DOUBLE_EQ(Num(fin[{1, 0, 1, 8}]), 3.0);    // session sum
  // Session median: nearest-rank median of {1, 2} is the 1st smallest.
  EXPECT_DOUBLE_EQ(Num(fin[{1, 1, 1, 8}]), 1.0);
}

TEST(QueryBuilder, InOrderSelfTriggering) {
  auto op = QueryBuilder().InOrder().Aggregate("count").Tumbling(10).Build();
  op->ProcessTuple(T(1, 1, 0));
  op->ProcessTuple(T(12, 1, 1));
  const auto results = op->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].value.AsInt(), 1);
}

TEST(QueryBuilder, SupportsAllWindowKinds) {
  auto op = QueryBuilder()
                .OutOfOrder(1000)
                .Aggregate("sum")
                .Tumbling(10)
                .Sliding(20, 5)
                .Session(7)
                .Punctuated()
                .Frames(3.0)
                .LastNEveryT(3, 50)
                .Tumbling(4, Measure::kCount)
                .Window(std::make_shared<CustomContextFreeWindow>(
                    "billing", BillingNextEdge, 31))
                .Build();
  EXPECT_EQ(op->queries().windows.size(), 8u);
  // FCA window + OOO stream: the decision tree must retain tuples.
  EXPECT_TRUE(op->queries().StoreTuples());
  EXPECT_TRUE(op->queries().splits_possible);
  // Smoke: stream a few tuples through the full query mix.
  uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    op->ProcessTuple(T(i, static_cast<double>(i % 5), seq++));
  }
  op->ProcessWatermark(200);
  EXPECT_GT(op->TakeResults().size(), 0u);
}

TEST(QueryBuilder, ReusableForFleetsOfOperators) {
  QueryBuilder builder;
  builder.OutOfOrder(50).Aggregate("sum").Tumbling(10);
  auto a = builder.Build();
  auto b = builder.Build();
  // Window objects are shared per Build; CF windows are stateless, so two
  // operators built from one builder stay independent.
  a->ProcessTuple(T(1, 1, 0));
  b->ProcessTuple(T(2, 2, 0));
  a->ProcessWatermark(20);
  b->ProcessWatermark(20);
  auto fa = FinalResults(a->TakeResults());
  auto fb = FinalResults(b->TakeResults());
  EXPECT_DOUBLE_EQ(Num(fa[{0, 0, 0, 10}]), 1.0);
  EXPECT_DOUBLE_EQ(Num(fb[{0, 0, 0, 10}]), 2.0);
}

}  // namespace
}  // namespace scotty
