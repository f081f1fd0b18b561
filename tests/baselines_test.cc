// Correctness tests for the baseline window operators (tuple buffer,
// aggregate tree, buckets, pairs, cutty): they must produce the same window
// aggregates as the semantics demand, whatever their internal strategy.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/pairs.h"
#include "baselines/tuple_buffer.h"
#include "common/memory.h"
#include "query/window_desc.h"
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

/// Bounds of the slices `op` holds that start at or after `from`.
std::vector<std::pair<Time, Time>> SliceBounds(const GeneralSlicingOperator& op,
                                               Time from) {
  std::vector<std::pair<Time, Time>> out;
  const AggregateStore& store = *op.time_store();
  for (size_t i = 0; i < store.NumSlices(); ++i) {
    const Slice& s = store.At(i);
    if (s.start() >= from) out.emplace_back(s.start(), s.end());
  }
  return out;
}

TEST(PairsCutty, SliceSetsCoincideUnderCorrectSlicing) {
  // Every cutter cuts one grid (QuerySet::TimeGridCell): the in-order
  // slicer, out-of-order inserts (AggregateStore::FindOrInsertCovering),
  // Pairs and Cutty create the same slices with the same bounds, whether a
  // window's ends fall on its starts (sliding 600/200) or not (500/200).
  //
  // An in-order stream with gaps wider than any cell. The tuple at 3900
  // fills its cell alone and opens a swapped pair, so the out-of-order
  // engine sees it behind a later cell and inserts its cell.
  std::vector<Tuple> tuples;
  for (Time ts = 0; ts < 2000; ts += 70) tuples.push_back(T(ts, 1.0));
  tuples.push_back(T(2750, 1.0));
  tuples.push_back(T(3900, 1.0));
  for (Time ts = 5000; ts < 7000; ts += 90) tuples.push_back(T(ts, 1.0));
  for (Time ts = 9000; ts < 10000; ts += 110) tuples.push_back(T(ts, 1.0));
  std::vector<Tuple> swapped = tuples;
  for (size_t i = 0; i + 1 < swapped.size(); i += 2) {
    std::swap(swapped[i], swapped[i + 1]);
  }

  const std::vector<std::vector<std::string>> shapes = {
      {"tumbling:300"},
      {"sliding:500:200"},
      {"sliding:600:200"},
      {"tumbling:300", "sliding:500:200", "sliding:600:200"}};
  constexpr Time kKeepAll = 1'000'000;  // no eviction in the two engines
  for (const std::vector<std::string>& shape : shapes) {
    std::string label;
    for (const std::string& text : shape) label += text + " ";
    GeneralSlicingOperator in_order(
        {.stream_in_order = true, .allowed_lateness = kKeepAll});
    GeneralSlicingOperator out_of_order(
        {.stream_in_order = false, .allowed_lateness = kKeepAll});
    PairsOperator pairs;
    CuttyOperator cutty;
    const std::vector<std::pair<std::string, GeneralSlicingOperator*>> ops = {
        {"in-order", &in_order},
        {"out-of-order", &out_of_order},
        {"pairs", &pairs},
        {"cutty", &cutty}};
    for (const auto& [name, op] : ops) {
      op->AddAggregation(MakeAggregation("sum"));
      for (const std::string& text : shape) {
        WindowDesc desc;
        ASSERT_TRUE(WindowDesc::Parse(text, &desc)) << text;
        op->AddWindow(desc.Instantiate());
      }
    }
    for (const Tuple& t : tuples) {
      in_order.ProcessTuple(t);
      pairs.ProcessTuple(t);
      cutty.ProcessTuple(t);
    }
    for (const Tuple& t : swapped) out_of_order.ProcessTuple(t);
    ASSERT_EQ(out_of_order.stats().out_of_order_tuples, tuples.size() / 2);

    // The out-of-order engine keeps every slice it created, each one grid
    // cell. Pairs and Cutty evict behind their triggers, so every cutter is
    // compared on the slices it still holds.
    const std::vector<std::pair<Time, Time>> all =
        SliceBounds(out_of_order, kNoTime);
    ASSERT_EQ(all.size(), out_of_order.time_store()->SlicesCreated()) << label;
    for (const auto& [start, end] : all) {
      EXPECT_EQ(out_of_order.queries().TimeGridCell(start),
                std::make_pair(start, end))
          << label;
    }
    for (const auto& [name, op] : ops) {
      EXPECT_EQ(op->time_store()->SlicesCreated(), all.size())
          << name << ": " << label;
      const std::vector<std::pair<Time, Time>> held = SliceBounds(*op, kNoTime);
      ASSERT_FALSE(held.empty()) << name << ": " << label;
      EXPECT_EQ(held, SliceBounds(out_of_order, held.front().first))
          << name << ": " << label;
    }
  }
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
