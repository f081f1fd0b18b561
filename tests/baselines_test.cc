// Correctness tests for the baseline window operators (tuple buffer,
// aggregate tree, buckets, pairs, cutty): they must produce the same window
// aggregates as the semantics demand, whatever their internal strategy.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/pairs.h"
#include "baselines/tuple_buffer.h"
#include "common/memory.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::FinalResults;
using testutil::Num;
using testutil::RunStream;
using testutil::T;

// --------------------------- Tuple buffer ---------------------------

TEST(TupleBuffer, TumblingSumInOrder) {
  TupleBufferOperator op(/*stream_in_order=*/true);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(5, 2), T(12, 4), T(25, 8)}, 30));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 3.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 20}]), 4.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 20, 30}]), 8.0);
}

TEST(TupleBuffer, OutOfOrderInsertKeepsBufferSorted) {
  TupleBufferOperator op(/*stream_in_order=*/false, /*lateness=*/100);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(15, 2), T(5, 4), T(25, 8)}, 30));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 5.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 20}]), 2.0);
}

TEST(TupleBuffer, LateTupleEmitsUpdate) {
  TupleBufferOperator op(false, /*lateness=*/100);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  op.ProcessTuple(T(1, 1, 0));
  op.ProcessTuple(T(15, 2, 1));
  op.ProcessWatermark(12);
  op.TakeResults();
  op.ProcessTuple(T(5, 4, 2));
  auto updates = op.TakeResults();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_TRUE(updates[0].is_update);
  EXPECT_DOUBLE_EQ(Num(updates[0].value), 5.0);
}

TEST(TupleBuffer, SessionWindows) {
  TupleBufferOperator op(true);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<SessionWindow>(5));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(3, 2), T(20, 4)}, 40));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 1, 8}]), 3.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 20, 25}]), 4.0);
}

TEST(TupleBuffer, CountWindows) {
  TupleBufferOperator op(true);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(2, Measure::kCount));
  auto fin = FinalResults(RunStream(
      op, {T(10, 1), T(20, 2), T(30, 4), T(40, 8)}, 40));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 2}]), 3.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 2, 4}]), 12.0);
}

TEST(TupleBuffer, MemoryProportionalToBufferedTuples) {
  TupleBufferOperator op(false, /*lateness=*/1000000);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(1000000));
  for (int i = 0; i < 1000; ++i) op.ProcessTuple(T(i, 1, i));
  EXPECT_EQ(op.BufferedTuples(), 1000u);
  EXPECT_EQ(op.MemoryUsageBytes(), 1000 * MemoryModel::kTupleBytes);
}

// -------------------- Aggregate tree (eager tuple buffer) --------------------

TEST(AggregateTree, TumblingSumInOrder) {
  TupleBufferOperator op(true, 0, StoreMode::kEager);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(5, 2), T(12, 4), T(25, 8)}, 30));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 3.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 20}]), 4.0);
}

TEST(AggregateTree, SharesPartialsAcrossOverlappingWindows) {
  TupleBufferOperator op(true, 0, StoreMode::kEager);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<SlidingWindow>(20, 10));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 40; ++i) tuples.push_back(T(i, 1.0));
  auto fin = FinalResults(RunStream(op, tuples, 40));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 20}]), 20.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 30}]), 20.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 20, 40}]), 20.0);
}

TEST(AggregateTree, OutOfOrderLeafInsert) {
  TupleBufferOperator op(false, /*lateness=*/100, StoreMode::kEager);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(15, 2), T(5, 4), T(25, 8)}, 30));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 5.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 20}]), 2.0);
}

TEST(AggregateTree, MedianViaOrderedRangeQueries) {
  TupleBufferOperator op(true, 0, StoreMode::kEager);
  op.AddAggregation(MakeAggregation("median"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 9), T(3, 1), T(7, 5), T(15, 2)}, 20));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 5.0);
}

TEST(AggregateTree, EvictionSlidesLeaves) {
  TupleBufferOperator op(true, 0, StoreMode::kEager);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  for (int i = 0; i < 1000; ++i) op.ProcessTuple(T(i, 1, i));
  EXPECT_LT(op.BufferedTuples(), 100u);  // horizon = one window length
}

// --------------------------- Buckets ---------------------------

TEST(Buckets, TumblingAssignsSingleBucket) {
  BucketsOperator op(true);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(5, 2), T(12, 4), T(25, 8)}, 30));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 3.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 20}]), 4.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 20, 30}]), 8.0);
}

TEST(Buckets, SlidingReplicatesAcrossOverlappingBuckets) {
  BucketsOperator op(true);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<SlidingWindow>(20, 10));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 40; ++i) tuples.push_back(T(i, 1.0));
  auto fin = FinalResults(RunStream(op, tuples, 40));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 20}]), 20.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 30}]), 20.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 20, 40}]), 20.0);
}

TEST(Buckets, OutOfOrderTupleJoinsItsBuckets) {
  BucketsOperator op(false, /*lateness=*/100);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 1), T(15, 2), T(5, 4)}, 20));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 5.0);
}

TEST(Buckets, SessionBucketsMerge) {
  BucketsOperator op(false, /*lateness=*/100);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<SessionWindow>(5));
  auto fin = FinalResults(RunStream(
      op, {T(10, 1), T(18, 2), T(30, 0), T(14, 4)}, 50));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 23}]), 7.0);
}

TEST(Buckets, HolisticAggregationUsesTupleBuckets) {
  BucketsOperator op(true);
  op.AddAggregation(MakeAggregation("median"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  auto fin = FinalResults(RunStream(
      op, {T(1, 9), T(3, 1), T(7, 5), T(15, 0)}, 20));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 5.0);
}

TEST(Buckets, CountWindowsOnOutOfOrderStream) {
  BucketsOperator op(false, /*lateness=*/1000);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(2, Measure::kCount));
  // Event-time order: 10, 15, 20, 30 -> ranks [0,2) = 1+4, [2,4) = 2+8.
  auto fin = FinalResults(RunStream(
      op, {T(10, 1), T(20, 2), T(30, 8), T(15, 4)}, 30));
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 2}]), 5.0);
  EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 2, 4}]), 10.0);
}

TEST(Buckets, MemoryGrowsWithOverlap) {
  auto run = [](Time slide) {
    BucketsOperator op(false, /*lateness=*/100000);
    op.AddAggregation(MakeAggregation("sum"));
    op.AddWindow(std::make_shared<SlidingWindow>(1000, slide));
    for (int i = 0; i < 2000; ++i) op.ProcessTuple(T(i, 1, i));
    return op.MemoryUsageBytes();
  };
  // 10x more overlapping buckets -> clearly more memory.
  EXPECT_GT(run(100), 2 * run(1000));
}

TEST(Buckets, NanosecondPathPrecomputesAggregates) {
  BucketsOperator op(true);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  for (int i = 0; i < 100; ++i) op.ProcessTuple(T(i, 1, i));
  EXPECT_GT(op.TotalBuckets(), 0u);
}

// --------------------------- Pairs & Cutty ---------------------------

TEST(PairsCutty, BothMatchTumblingSemantics) {
  for (int variant = 0; variant < 2; ++variant) {
    std::unique_ptr<GeneralSlicingOperator> op;
    if (variant == 0) {
      op = std::make_unique<PairsOperator>();
    } else {
      op = std::make_unique<CuttyOperator>();
    }
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<TumblingWindow>(10));
    auto fin = FinalResults(RunStream(
        *op, {T(1, 1), T(5, 2), T(12, 4), T(25, 8)}, 30));
    EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 0, 10}]), 3.0) << variant;
    EXPECT_DOUBLE_EQ(Num(fin[{0, 0, 10, 20}]), 4.0) << variant;
  }
}

TEST(PairsCutty, SliceSetsCoincideUnderCorrectSlicing) {
  // Classic Pairs cuts every slide period twice (l mod ls and its
  // complement); Cutty cuts at window begins. With aligned windows the two
  // edge sets coincide, and for misaligned windows correctness forces the
  // begin-only strategy to cut at ends too — so the slice counts match.
  PairsOperator pairs;
  CuttyOperator cutty;
  for (GeneralSlicingOperator* op :
       std::initializer_list<GeneralSlicingOperator*>{&pairs, &cutty}) {
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<SlidingWindow>(12, 5));
  }
  std::vector<Tuple> tuples;
  for (int i = 0; i < 50; ++i) tuples.push_back(T(i, 1.0));
  RunStream(pairs, tuples, 0);
  RunStream(cutty, tuples, 0);
  EXPECT_EQ(pairs.time_store()->SlicesCreated(),
            cutty.time_store()->SlicesCreated());
}

TEST(PairsCutty, SlidingResultsAgreeWithEachOther) {
  PairsOperator pairs;
  CuttyOperator cutty;
  for (GeneralSlicingOperator* op :
       std::initializer_list<GeneralSlicingOperator*>{&pairs, &cutty}) {
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<SlidingWindow>(15, 5));
  }
  std::vector<Tuple> tuples;
  for (int i = 0; i < 60; ++i) {
    tuples.push_back(T(i, static_cast<double>(i % 7)));
  }
  auto a = FinalResults(RunStream(pairs, tuples, 60));
  auto b = FinalResults(RunStream(cutty, tuples, 60));
  EXPECT_EQ(a, b);
}

TEST(PairsCutty, NamesIdentifyTechniques) {
  EXPECT_EQ(PairsOperator().Name(), "pairs");
  EXPECT_EQ(CuttyOperator().Name(), "cutty");
}

}  // namespace
}  // namespace scotty
