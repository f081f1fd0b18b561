// AggregateStore unit tests: slice lookup, ordered range queries in lazy and
// eager mode, eviction, structure changes, snapshot round trips, and the
// StreamStateView used by forward-context-aware windows.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/algebraic.h"
#include "aggregates/basic.h"
#include "aggregates/ordered.h"
#include "common/rng.h"
#include "core/aggregate_store.h"
#include "state/serde.h"
#include "tests/test_util.h"

namespace scotty {
namespace {

using testutil::T;

std::vector<AggregateFunctionPtr> SumFns() {
  return {std::make_shared<SumAggregation>()};
}

void Fill(AggregateStore& store, bool store_tuples = false) {
  // Slices [0,10), [10,20), [20,30) with one tuple each.
  uint64_t seq = 0;
  for (Time start = 0; start < 30; start += 10) {
    Slice& s = store.Append(start, start + 10);
    s.AddTuple(T(start + 5, static_cast<double>(start + 1), seq++),
               store.fns(), store_tuples);
    store.NoteTupleAdded();
    store.OnSliceAggUpdated(store.NumSlices() - 1);
  }
}

TEST(AggregateStore, FindCoveringAndByStart) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  Fill(store);
  EXPECT_EQ(store.FindCovering(0), 0u);
  EXPECT_EQ(store.FindCovering(9), 0u);
  EXPECT_EQ(store.FindCovering(10), 1u);
  EXPECT_EQ(store.FindCovering(29), 2u);
  EXPECT_EQ(store.FindCovering(30), AggregateStore::kNpos);
  EXPECT_EQ(store.FindByStart(25), 2u);
  EXPECT_EQ(store.FindByStart(-1), AggregateStore::kNpos);
  EXPECT_EQ(store.FirstEndingAfter(10), 1u);
  EXPECT_EQ(store.FirstEndingAfter(9), 0u);
}

TEST(AggregateStore, FindCoveringRespectsGaps) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  store.Append(0, 10);
  store.Append(20, 30);  // gap [10, 20)
  EXPECT_EQ(store.FindCovering(5), 0u);
  EXPECT_EQ(store.FindCovering(15), AggregateStore::kNpos);
  EXPECT_EQ(store.FindCovering(25), 1u);
}

TEST(AggregateStore, QueryRangeCombinesIntersectingSlices) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  Fill(store);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 1 + 11 + 21);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 10, 20).Get<double>(), 11);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 15).Get<double>(), 12);  // full slices
  EXPECT_TRUE(store.QueryRange(0, 30, 40).IsIdentity());
}

TEST(AggregateStore, EagerQueriesMatchLazy) {
  AggregateStore lazy(StoreMode::kLazy, SumFns());
  AggregateStore eager(StoreMode::kEager, SumFns());
  Fill(lazy);
  Fill(eager);
  for (Time s = 0; s <= 30; s += 10) {
    for (Time e = s; e <= 30; e += 10) {
      EXPECT_EQ(lazy.QueryRange(0, s, e), eager.QueryRange(0, s, e))
          << s << "," << e;
    }
  }
}

TEST(AggregateStore, EagerTreeFollowsSliceUpdates) {
  AggregateStore store(StoreMode::kEager, SumFns());
  Fill(store);
  Slice& s = store.At(1);
  s.AddTuple(T(15, 100.0, 9), store.fns(), false);
  store.OnSliceAggUpdated(1);
  EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 133.0);
}

TEST(AggregateStore, MergeWithNextCombines) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    Fill(store);
    store.MergeWithNext(0);
    EXPECT_EQ(store.NumSlices(), 2u);
    EXPECT_EQ(store.At(0).end(), 20);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 20).Get<double>(), 12.0);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 33.0);
  }
}

TEST(AggregateStore, SplitAtDividesSlice) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    uint64_t seq = 0;
    Slice& s = store.Append(0, 20);
    s.AddTuple(T(3, 1.0, seq++), store.fns(), true);
    s.AddTuple(T(14, 2.0, seq++), store.fns(), true);
    store.OnSliceAggUpdated(0);
    store.SplitAt(0, 10);
    ASSERT_EQ(store.NumSlices(), 2u);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 10).Get<double>(), 1.0);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 10, 20).Get<double>(), 2.0);
  }
}

TEST(AggregateStore, InsertAtKeepsOrderAndTrees) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    store.Append(0, 10);
    store.Append(40, 50);
    Slice& mid = store.InsertAt(1, 20, 30);
    mid.AddTuple(T(25, 7.0, 0), store.fns(), false);
    store.OnSliceAggUpdated(1);
    EXPECT_EQ(store.NumSlices(), 3u);
    EXPECT_EQ(store.FindCovering(25), 1u);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 50).Get<double>(), 7.0);
  }
}

TEST(AggregateStore, EvictBeforeDropsOldSlices) {
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, SumFns());
    Fill(store);
    EXPECT_EQ(store.TotalTupleCount(), 3u);
    store.EvictBefore(20);
    EXPECT_EQ(store.NumSlices(), 1u);
    EXPECT_EQ(store.At(0).start(), 20);
    EXPECT_EQ(store.TotalTupleCount(), 1u);
    EXPECT_DOUBLE_EQ(store.QueryRange(0, 0, 30).Get<double>(), 21.0);
  }
}

TEST(AggregateStore, OrderedCombineForNonCommutativeAggs) {
  std::vector<AggregateFunctionPtr> fns = {
      std::make_shared<ConcatAggregation>()};
  for (StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    AggregateStore store(mode, fns);
    uint64_t seq = 0;
    for (Time start = 0; start < 40; start += 10) {
      Slice& s = store.Append(start, start + 10);
      s.AddTuple(T(start + 1, static_cast<double>(start), seq++), fns, true);
      store.OnSliceAggUpdated(store.NumSlices() - 1);
    }
    const Partial p = store.QueryRange(0, 0, 40);
    const std::vector<double> expected = {0, 10, 20, 30};
    EXPECT_EQ(ConcatAggregation().Lower(p).AsSequence(), expected) << "mode";
  }
}

TEST(AggregateStore, NthRecentTupleTimeWalksBackward) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  uint64_t seq = 0;
  Slice& a = store.Append(0, 10);
  a.AddTuple(T(2, 1, seq++), store.fns(), true);
  a.AddTuple(T(6, 1, seq++), store.fns(), true);
  Slice& b = store.Append(10, 20);
  b.AddTuple(T(13, 1, seq++), store.fns(), true);
  b.AddTuple(T(17, 1, seq++), store.fns(), true);
  EXPECT_EQ(store.NthRecentTupleTime(20, 1), 17);
  EXPECT_EQ(store.NthRecentTupleTime(20, 2), 13);
  EXPECT_EQ(store.NthRecentTupleTime(20, 3), 6);
  EXPECT_EQ(store.NthRecentTupleTime(20, 4), 2);
  EXPECT_EQ(store.NthRecentTupleTime(20, 5), kNoTime);
  EXPECT_EQ(store.NthRecentTupleTime(15, 1), 13);  // excludes ts >= 15
  EXPECT_EQ(store.NthRecentTupleTime(13, 1), 6);   // strict: ts < 13
}

TEST(AggregateStore, NthRecentWithoutRetentionReturnsNoTime) {
  AggregateStore store(StoreMode::kLazy, SumFns());
  Fill(store, /*store_tuples=*/false);
  EXPECT_EQ(store.NthRecentTupleTime(30, 1), kNoTime);
}

TEST(AggregateStore, MemoryBytesReflectsEagerTreeOverhead) {
  AggregateStore lazy(StoreMode::kLazy, SumFns());
  AggregateStore eager(StoreMode::kEager, SumFns());
  Fill(lazy);
  Fill(eager);
  EXPECT_GT(eager.MemoryBytes(), lazy.MemoryBytes());
}

std::vector<uint8_t> PartialBytes(const Partial& p) {
  state::Writer w;
  p.Serialize(w);
  return w.Take();
}

std::vector<uint8_t> StoreBytes(const AggregateStore& store,
                                bool delta = false) {
  state::Writer w;
  store.Serialize(w, delta);
  return w.Take();
}

/// (capacity, offset) of the last eager tree: the encoding ends with each
/// tree's (capacity, offset, size) as three little-endian U64s.
std::pair<uint64_t, uint64_t> LastTreeLayout(const AggregateStore& store) {
  const std::vector<uint8_t> bytes = StoreBytes(store);
  const std::vector<uint8_t> tail(bytes.end() - 24, bytes.end());
  state::Reader r(tail);
  const uint64_t capacity = r.U64();
  return {capacity, r.U64()};
}

void ExpectSameAnswers(const AggregateStore& a, const AggregateStore& b) {
  ASSERT_EQ(a.NumSlices(), b.NumSlices());
  for (size_t agg = 0; agg < a.fns().size(); ++agg) {
    for (size_t i = 0; i <= a.NumSlices(); ++i) {
      for (size_t j = i; j <= a.NumSlices(); ++j) {
        ASSERT_EQ(PartialBytes(a.QuerySlices(agg, i, j)),
                  PartialBytes(b.QuerySlices(agg, i, j)))
            << "agg " << agg << " [" << i << "," << j << ")";
      }
    }
  }
}

TEST(AggregateStore, SnapshotRoundTripAnswersEveryRangeBitIdentically) {
  // A snapshot stores each eager tree as its layout only; restore rebuilds
  // the inner nodes from the slices' partials. Drive a store through every
  // mutator until its trees have regrown and compacted, and require the
  // restored twin to answer every slice range with the same bits.
  const std::vector<AggregateFunctionPtr> fns = {
      std::make_shared<SumAggregation>(), std::make_shared<AvgAggregation>()};
  AggregateStore store(StoreMode::kEager, fns);
  Rng rng(11);
  uint64_t seq = 0;
  auto fill = [&](size_t i, uint64_t n) {
    Slice& s = store.At(i);
    const uint64_t len = static_cast<uint64_t>(s.end() - s.start());
    for (uint64_t k = 0; k < n; ++k) {
      const Time ts = s.start() + static_cast<Time>(rng.NextBounded(len));
      s.AddTuple(T(ts, rng.NextDouble() * 100.0 - 50.0, seq++), fns,
                 /*store_tuple=*/true);
      store.NoteTupleAdded();
    }
    store.OnSliceAggUpdated(i);
  };
  Time next = 0;
  int regrows = 0, compactions = 0;
  std::pair<uint64_t, uint64_t> layout = LastTreeLayout(store);
  for (int round = 0; round < 40; ++round) {
    for (uint64_t n = 1 + rng.NextBounded(8); n > 0; --n) {
      const Time start = next + 10 * static_cast<Time>(rng.NextBounded(2));
      store.Append(start, start + 10);
      fill(store.NumSlices() - 1, 1 + rng.NextBounded(3));
      next = start + 10;
    }
    const size_t i = rng.NextBounded(store.NumSlices() - 1);
    switch (rng.NextBounded(3)) {
      case 0:  // fill the first gap at or after slice i
        for (size_t g = i; g + 1 < store.NumSlices(); ++g) {
          if (store.At(g).end() < store.At(g + 1).start()) {
            store.InsertAt(g + 1, store.At(g).end(), store.At(g + 1).start());
            fill(g + 1, 2);
            break;
          }
        }
        break;
      case 1: {
        const Time len = store.At(i).end() - store.At(i).start();
        if (len < 2) break;
        store.SplitAt(i, store.At(i).start() + 1 +
                             static_cast<Time>(rng.NextBounded(
                                 static_cast<uint64_t>(len - 1))));
        break;
      }
      default:
        store.MergeWithNext(i);
        break;
    }
    const size_t keep = 10 + rng.NextBounded(20);
    if (store.NumSlices() > keep) {
      store.EvictBefore(store.At(store.NumSlices() - keep).start());
    }

    // An offset that falls at unchanged capacity is an in-place rebuild.
    const std::pair<uint64_t, uint64_t> now = LastTreeLayout(store);
    regrows += now.first > layout.first ? 1 : 0;
    compactions +=
        now.first == layout.first && now.second < layout.second ? 1 : 0;
    layout = now;

    AggregateStore twin(StoreMode::kEager, fns);
    const std::vector<uint8_t> base = StoreBytes(store);
    state::Reader r(base);
    twin.Deserialize(r);
    ASSERT_TRUE(r.ok() && r.AtEnd()) << "round " << round;
    ExpectSameAnswers(store, twin);
    ASSERT_EQ(StoreBytes(twin), base) << "round " << round;
  }
  EXPECT_GT(regrows, 0);
  EXPECT_GT(compactions, 0);

  // A delta after one mutation, applied onto the restored twin.
  AggregateStore twin(StoreMode::kEager, fns);
  const std::vector<uint8_t> base = StoreBytes(store);
  state::Reader rb(base);
  twin.Deserialize(rb);
  ASSERT_TRUE(rb.ok() && rb.AtEnd());
  store.MarkAllClean();
  twin.MarkAllClean();
  size_t mid = store.NumSlices() / 2;
  while (store.At(mid).end() - store.At(mid).start() < 2) ++mid;
  store.SplitAt(mid, store.At(mid).start() + 1);
  const std::vector<uint8_t> delta = StoreBytes(store, /*delta=*/true);
  EXPECT_LT(delta.size(), base.size());
  state::Reader rd(delta);
  twin.Deserialize(rd);
  ASSERT_TRUE(rd.ok() && rd.AtEnd());
  ExpectSameAnswers(store, twin);
  EXPECT_EQ(StoreBytes(twin), StoreBytes(store));
}

}  // namespace
}  // namespace scotty
