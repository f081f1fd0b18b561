// Unit tests for the FlatFAT aggregate tree (ordered range queries, appends,
// middle inserts, eviction, snapshot round trips).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/basic.h"
#include "aggregates/ordered.h"
#include "common/rng.h"
#include "core/flat_fat.h"
#include "state/serde.h"
#include "tests/test_util.h"

namespace scotty {
namespace {

using testutil::T;

std::vector<uint8_t> PartialBytes(const Partial& p) {
  state::Writer w;
  p.Serialize(w);
  return w.Take();
}

FlatFat MakeSumTree(const std::vector<double>& values) {
  FlatFat tree(std::make_shared<SumAggregation>());
  SumAggregation sum;
  Time ts = 0;
  for (double v : values) tree.Append(sum.Lift(T(++ts, v)));
  return tree;
}

TEST(FlatFat, EmptyTreeHasIdentityRoot) {
  FlatFat tree(std::make_shared<SumAggregation>());
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Root().IsIdentity());
  EXPECT_TRUE(tree.Query(0, 0).IsIdentity());
}

TEST(FlatFat, RootAggregatesAllLeaves) {
  FlatFat tree = MakeSumTree({1, 2, 3, 4, 5});
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 15.0);
}

TEST(FlatFat, RangeQueriesMatchPrefixSums) {
  std::vector<double> vals;
  for (int i = 1; i <= 37; ++i) vals.push_back(i);
  FlatFat tree = MakeSumTree(vals);
  for (size_t i = 0; i <= vals.size(); ++i) {
    for (size_t j = i; j <= vals.size(); ++j) {
      double expected = 0;
      for (size_t k = i; k < j; ++k) expected += vals[k];
      const Partial p = tree.Query(i, j);
      if (i == j) {
        EXPECT_TRUE(p.IsIdentity());
      } else {
        EXPECT_DOUBLE_EQ(p.Get<double>(), expected) << i << "," << j;
      }
    }
  }
}

TEST(FlatFat, UpdateLeafPropagatesToRoot) {
  FlatFat tree = MakeSumTree({1, 2, 3, 4});
  SumAggregation sum;
  tree.UpdateLeaf(2, sum.Lift(T(3, 30.0)));
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 1 + 2 + 30 + 4);
  EXPECT_DOUBLE_EQ(tree.Query(2, 3).Get<double>(), 30.0);
}

TEST(FlatFat, CombineIntoLeafAccumulates) {
  FlatFat tree = MakeSumTree({1, 2});
  SumAggregation sum;
  tree.CombineIntoLeaf(0, sum.Lift(T(9, 10.0)));
  EXPECT_DOUBLE_EQ(tree.Leaf(0).Get<double>(), 11.0);
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 13.0);
}

TEST(FlatFat, InsertLeafInMiddleShiftsSuffix) {
  FlatFat tree = MakeSumTree({1, 2, 4, 5});
  SumAggregation sum;
  tree.InsertLeafAt(2, sum.Lift(T(3, 3.0)));
  EXPECT_EQ(tree.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(tree.Leaf(i).Get<double>(), static_cast<double>(i + 1));
  }
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 15.0);
  EXPECT_DOUBLE_EQ(tree.Query(1, 4).Get<double>(), 2 + 3 + 4);
}

TEST(FlatFat, InsertAtFrontAndBack) {
  FlatFat tree = MakeSumTree({2.0});
  SumAggregation sum;
  tree.InsertLeafAt(0, sum.Lift(T(1, 1.0)));
  tree.InsertLeafAt(2, sum.Lift(T(3, 3.0)));
  EXPECT_DOUBLE_EQ(tree.Leaf(0).Get<double>(), 1.0);
  EXPECT_DOUBLE_EQ(tree.Leaf(2).Get<double>(), 3.0);
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 6.0);
}

TEST(FlatFat, RemoveLeafShiftsSuffix) {
  FlatFat tree = MakeSumTree({1, 2, 3, 4});
  tree.RemoveLeafAt(1);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_DOUBLE_EQ(tree.Leaf(1).Get<double>(), 3.0);
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 8.0);
}

TEST(FlatFat, RemovingLastLeafDropsItFromRoot) {
  // The vacated slot is a left child whose sibling is dead too: its parent
  // must still be recomputed, or the root keeps the removed partial.
  FlatFat tree = MakeSumTree({1, 2, 3});
  tree.RemoveLeafAt(2);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 3.0);
}

TEST(FlatFat, PopFrontEvictsAndKeepsQueriesConsistent) {
  FlatFat tree = MakeSumTree({1, 2, 3, 4, 5, 6, 7, 8});
  tree.PopFront(3);
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_DOUBLE_EQ(tree.Leaf(0).Get<double>(), 4.0);
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 4 + 5 + 6 + 7 + 8);
  EXPECT_DOUBLE_EQ(tree.Query(1, 3).Get<double>(), 5 + 6);
}

TEST(FlatFat, PopFrontThenAppendCompacts) {
  FlatFat tree = MakeSumTree({1, 2, 3, 4});
  SumAggregation sum;
  // Slide far enough to force compaction several times.
  Time ts = 100;
  for (int round = 0; round < 50; ++round) {
    tree.PopFront(1);
    tree.Append(sum.Lift(T(++ts, 1.0)));
    EXPECT_EQ(tree.size(), 4u);
  }
  EXPECT_DOUBLE_EQ(tree.Root().Get<double>(), 4.0);
}

TEST(FlatFat, OrderedQueryPreservesNonCommutativeOrder) {
  FlatFat tree(std::make_shared<ConcatAggregation>());
  ConcatAggregation cat;
  for (int i = 1; i <= 9; ++i) tree.Append(cat.Lift(T(i, i)));
  const Partial p = tree.Query(2, 7);
  const std::vector<double> expected = {3, 4, 5, 6, 7};
  EXPECT_EQ(cat.Lower(p).AsSequence(), expected);
  // Root too.
  const std::vector<double> all = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(cat.Lower(tree.Root()).AsSequence(), all);
}

TEST(FlatFat, RandomizedAgainstBruteForce) {
  Rng rng(2024);
  FlatFat tree(std::make_shared<SumAggregation>());
  SumAggregation sum;
  std::vector<double> shadow;
  Time ts = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 6 || shadow.empty()) {
      const double v = static_cast<double>(rng.NextBounded(100));
      tree.Append(sum.Lift(T(++ts, v)));
      shadow.push_back(v);
    } else if (op < 8) {
      const size_t i = rng.NextBounded(shadow.size() + 1);
      const double v = static_cast<double>(rng.NextBounded(100));
      tree.InsertLeafAt(i, sum.Lift(T(++ts, v)));
      shadow.insert(shadow.begin() + static_cast<long>(i), v);
    } else {
      const size_t k = 1 + rng.NextBounded(std::min<size_t>(shadow.size(), 3));
      tree.PopFront(k);
      shadow.erase(shadow.begin(), shadow.begin() + static_cast<long>(k));
    }
    ASSERT_EQ(tree.size(), shadow.size());
    if (step % 50 == 49) {
      // A snapshot stores only the layout and the live leaves; the rebuilt
      // inner nodes must answer every range bit-identically.
      state::Writer w;
      tree.Serialize(w);
      FlatFat copy(std::make_shared<SumAggregation>());
      state::Reader r(w.bytes());
      copy.Deserialize(r);
      ASSERT_TRUE(r.ok() && r.AtEnd());
      ASSERT_EQ(copy.capacity(), tree.capacity());
      ASSERT_EQ(copy.offset(), tree.offset());
      ASSERT_EQ(copy.size(), tree.size());
      for (size_t i = 0; i <= tree.size(); ++i) {
        for (size_t j = i; j <= tree.size(); ++j) {
          ASSERT_EQ(PartialBytes(copy.Query(i, j)),
                    PartialBytes(tree.Query(i, j)))
              << "step " << step << " [" << i << "," << j << ")";
        }
      }
    }
    // Spot-check a random range.
    if (!shadow.empty()) {
      const size_t i = rng.NextBounded(shadow.size());
      const size_t j = i + rng.NextBounded(shadow.size() - i + 1);
      double expected = 0;
      for (size_t k = i; k < j; ++k) expected += shadow[k];
      const Partial p = tree.Query(i, j);
      EXPECT_DOUBLE_EQ(i == j ? 0.0 : p.Get<double>(),
                       i == j ? 0.0 : expected);
    }
  }
}

TEST(FlatFat, MemoryBytesGrowsWithLeaves) {
  FlatFat small = MakeSumTree({1, 2});
  FlatFat big = MakeSumTree(std::vector<double>(1000, 1.0));
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

}  // namespace
}  // namespace scotty
