// Unit tests for the incremental aggregation framework (lift / combine /
// lower / invert) and every built-in aggregation.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/algebraic.h"
#include "aggregates/basic.h"
#include "aggregates/holistic.h"
#include "aggregates/ordered.h"
#include "aggregates/registry.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace scotty {
namespace {

using testutil::T;

Partial FoldAll(const AggregateFunction& fn, const std::vector<Tuple>& ts) {
  Partial acc;
  for (const Tuple& t : ts) fn.Combine(acc, fn.Lift(t));
  return acc;
}

std::vector<Tuple> SomeTuples() {
  return {T(1, 4.0), T(2, -1.5), T(3, 7.0), T(4, 7.0), T(5, 0.5), T(6, 3.25)};
}

TEST(SumAggregation, LiftCombineLower) {
  SumAggregation sum;
  const Value v = sum.Lower(FoldAll(sum, SomeTuples()));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 4.0 - 1.5 + 7.0 + 7.0 + 0.5 + 3.25);
}

TEST(SumAggregation, IdentityIsNeutralOnBothSides) {
  SumAggregation sum;
  Partial lifted = sum.Lift(T(1, 5.0));
  Partial left = sum.Identity();
  sum.Combine(left, lifted);
  EXPECT_DOUBLE_EQ(sum.Lower(left).AsDouble(), 5.0);
  Partial right = lifted;
  sum.Combine(right, sum.Identity());
  EXPECT_DOUBLE_EQ(sum.Lower(right).AsDouble(), 5.0);
}

TEST(SumAggregation, InvertRemovesContribution) {
  SumAggregation sum;
  Partial acc = FoldAll(sum, SomeTuples());
  sum.Invert(acc, sum.Lift(T(3, 7.0)));
  EXPECT_DOUBLE_EQ(sum.Lower(acc).AsDouble(), 4.0 - 1.5 + 7.0 + 0.5 + 3.25);
  EXPECT_TRUE(sum.IsInvertible());
}

TEST(SumAggregation, EmptyLowersToEmptyValue) {
  SumAggregation sum;
  EXPECT_TRUE(sum.Lower(sum.Identity()).IsEmpty());
}

TEST(SumNoInvertAggregation, ReportsNotInvertible) {
  SumNoInvertAggregation s;
  EXPECT_FALSE(s.IsInvertible());
  EXPECT_EQ(s.Name(), "sum-no-invert");
  // Still sums correctly.
  EXPECT_DOUBLE_EQ(s.Lower(FoldAll(s, SomeTuples())).AsDouble(), 20.25);
}

TEST(CountAggregation, CountsAndInverts) {
  CountAggregation c;
  Partial acc = FoldAll(c, SomeTuples());
  EXPECT_EQ(c.Lower(acc).AsInt(), 6);
  c.Invert(acc, c.Lift(T(1, 4.0)));
  EXPECT_EQ(c.Lower(acc).AsInt(), 5);
}

TEST(CountAggregation, EmptyIsZero) {
  CountAggregation c;
  EXPECT_EQ(c.Lower(c.Identity()).AsInt(), 0);
}

TEST(MinMaxAggregation, ComputeExtremes) {
  MinAggregation mn;
  MaxAggregation mx;
  EXPECT_DOUBLE_EQ(mn.Lower(FoldAll(mn, SomeTuples())).AsDouble(), -1.5);
  EXPECT_DOUBLE_EQ(mx.Lower(FoldAll(mx, SomeTuples())).AsDouble(), 7.0);
  EXPECT_FALSE(mn.IsInvertible());
  EXPECT_FALSE(mx.IsInvertible());
}

TEST(AvgAggregation, AveragesAndInverts) {
  AvgAggregation avg;
  Partial acc = FoldAll(avg, SomeTuples());
  EXPECT_DOUBLE_EQ(avg.Lower(acc).AsDouble(), 20.25 / 6.0);
  avg.Invert(acc, avg.Lift(T(2, -1.5)));
  EXPECT_DOUBLE_EQ(avg.Lower(acc).AsDouble(), 21.75 / 5.0);
}

TEST(GeometricMeanAggregation, MatchesClosedForm) {
  GeometricMeanAggregation g;
  std::vector<Tuple> ts = {T(1, 2.0), T(2, 8.0)};
  EXPECT_NEAR(g.Lower(FoldAll(g, ts)).AsDouble(), 4.0, 1e-12);
}

TEST(GeometricMeanAggregation, InvertRestoresPrefix) {
  GeometricMeanAggregation g;
  std::vector<Tuple> ts = {T(1, 2.0), T(2, 8.0), T(3, 4.0)};
  Partial acc = FoldAll(g, ts);
  g.Invert(acc, g.Lift(T(3, 4.0)));
  EXPECT_NEAR(g.Lower(acc).AsDouble(), 4.0, 1e-12);
}

TEST(StdDevAggregation, MatchesTwoPassFormula) {
  StdDevAggregation sd;
  std::vector<Tuple> ts = SomeTuples();
  Partial acc = FoldAll(sd, ts);
  // Two-pass reference.
  double mean = 0;
  for (const Tuple& t : ts) mean += t.value;
  mean /= static_cast<double>(ts.size());
  double m2 = 0;
  for (const Tuple& t : ts) m2 += (t.value - mean) * (t.value - mean);
  const double expected = std::sqrt(m2 / static_cast<double>(ts.size() - 1));
  EXPECT_NEAR(sd.Lower(acc).AsDouble(), expected, 1e-9);
}

TEST(StdDevAggregation, CombineIsOrderInsensitive) {
  StdDevAggregation sd;
  std::vector<Tuple> ts = SomeTuples();
  Partial a = FoldAll(sd, {ts[0], ts[1], ts[2]});
  Partial b = FoldAll(sd, {ts[3], ts[4], ts[5]});
  Partial ab = a;
  sd.Combine(ab, b);
  Partial ba = b;
  sd.Combine(ba, a);
  EXPECT_NEAR(sd.Lower(ab).AsDouble(), sd.Lower(ba).AsDouble(), 1e-9);
}

TEST(StdDevAggregation, InvertRemovesSuffix) {
  StdDevAggregation sd;
  std::vector<Tuple> ts = SomeTuples();
  Partial all = FoldAll(sd, ts);
  Partial suffix = FoldAll(sd, {ts[4], ts[5]});
  sd.Invert(all, suffix);
  Partial prefix = FoldAll(sd, {ts[0], ts[1], ts[2], ts[3]});
  EXPECT_NEAR(sd.Lower(all).AsDouble(), sd.Lower(prefix).AsDouble(), 1e-9);
}

TEST(MinCountAggregation, CountsMultiplicityOfMinimum) {
  MinCountAggregation mc;
  std::vector<Tuple> ts = {T(1, 3.0), T(2, 1.0), T(3, 1.0), T(4, 2.0)};
  const Value v = mc.Lower(FoldAll(mc, ts));
  EXPECT_DOUBLE_EQ(v.AsArg().value, 1.0);
  EXPECT_EQ(v.AsArg().arg, 2);  // multiplicity stored in arg slot
}

TEST(MaxCountAggregation, CountsMultiplicityOfMaximum) {
  MaxCountAggregation mc;
  std::vector<Tuple> ts = {T(1, 7.0), T(2, 7.0), T(3, 7.0), T(4, 2.0)};
  const Value v = mc.Lower(FoldAll(mc, ts));
  EXPECT_DOUBLE_EQ(v.AsArg().value, 7.0);
  EXPECT_EQ(v.AsArg().arg, 3);
}

TEST(ArgMinArgMax, ReturnExtremumTimestamps) {
  ArgMinAggregation amin;
  ArgMaxAggregation amax;
  std::vector<Tuple> ts = SomeTuples();
  const Value lo = amin.Lower(FoldAll(amin, ts));
  const Value hi = amax.Lower(FoldAll(amax, ts));
  EXPECT_DOUBLE_EQ(lo.AsArg().value, -1.5);
  EXPECT_EQ(lo.AsArg().arg, 2);
  EXPECT_DOUBLE_EQ(hi.AsArg().value, 7.0);
  EXPECT_EQ(hi.AsArg().arg, 3);  // earliest occurrence wins the tie
}

TEST(ArgMaxAggregation, TieBreakIsCombineOrderIndependent) {
  ArgMaxAggregation amax;
  Partial a = amax.Lift(T(10, 7.0));
  Partial b = amax.Lift(T(3, 7.0));
  Partial ab = a;
  amax.Combine(ab, b);
  Partial ba = b;
  amax.Combine(ba, a);
  EXPECT_EQ(amax.Lower(ab).AsArg().arg, 3);
  EXPECT_EQ(amax.Lower(ba).AsArg().arg, 3);
}

TEST(M4Aggregation, ComputesMinMaxFirstLast) {
  M4Aggregation m4;
  const Value v = m4.Lower(FoldAll(m4, SomeTuples()));
  EXPECT_DOUBLE_EQ(v.AsM4().min, -1.5);
  EXPECT_DOUBLE_EQ(v.AsM4().max, 7.0);
  EXPECT_DOUBLE_EQ(v.AsM4().first, 4.0);
  EXPECT_DOUBLE_EQ(v.AsM4().last, 3.25);
}

TEST(M4Aggregation, FirstLastResolvedByTimestampNotCombineOrder) {
  M4Aggregation m4;
  // Combine the later partial first: first/last must still follow event time.
  Partial late = FoldAll(m4, {T(5, 0.5), T(6, 3.25)});
  Partial early = FoldAll(m4, {T(1, 4.0), T(2, -1.5)});
  Partial acc = late;
  m4.Combine(acc, early);
  const Value v = m4.Lower(acc);
  EXPECT_DOUBLE_EQ(v.AsM4().first, 4.0);
  EXPECT_DOUBLE_EQ(v.AsM4().last, 3.25);
}

TEST(MedianAggregation, OddAndEvenCounts) {
  MedianAggregation med;
  std::vector<Tuple> odd = {T(1, 5.0), T(2, 1.0), T(3, 9.0)};
  EXPECT_DOUBLE_EQ(med.Lower(FoldAll(med, odd)).AsDouble(), 5.0);
  std::vector<Tuple> even = {T(1, 5.0), T(2, 1.0), T(3, 9.0), T(4, 7.0)};
  // Nearest-rank median of {1,5,7,9}: rank ceil(0.5*4)=2 -> 5 (0-indexed 1).
  EXPECT_DOUBLE_EQ(med.Lower(FoldAll(med, even)).AsDouble(), 5.0);
}

TEST(MedianAggregation, MergePreservesMultiplicities) {
  MedianAggregation med;
  Partial a = FoldAll(med, {T(1, 2.0), T(2, 2.0), T(3, 2.0)});
  Partial b = FoldAll(med, {T(4, 1.0), T(5, 3.0)});
  Partial acc = a;
  med.Combine(acc, b);
  EXPECT_EQ(acc.Get<SortedRuns>().total, 5);
  EXPECT_EQ(acc.Get<SortedRuns>().runs.size(), 3u);
  EXPECT_DOUBLE_EQ(med.Lower(acc).AsDouble(), 2.0);
}

TEST(MedianAggregation, InvertRemovesValues) {
  MedianAggregation med;
  Partial acc = FoldAll(med, {T(1, 1.0), T(2, 2.0), T(3, 3.0), T(4, 4.0)});
  med.Invert(acc, med.Lift(T(4, 4.0)));
  EXPECT_EQ(acc.Get<SortedRuns>().total, 3);
  EXPECT_DOUBLE_EQ(med.Lower(acc).AsDouble(), 2.0);
}

TEST(Percentile90, NearestRankSemantics) {
  Percentile90Aggregation p90;
  std::vector<Tuple> ts;
  for (int i = 1; i <= 100; ++i) ts.push_back(T(i, i));
  // Nearest rank: ceil(0.9 * 100) = 90th smallest -> value 90.
  EXPECT_DOUBLE_EQ(p90.Lower(FoldAll(p90, ts)).AsDouble(), 90.0);
}

TEST(SortedRuns, RunLengthEncodingCompressesDuplicates) {
  SortedRuns runs;
  for (int i = 0; i < 1000; ++i) runs.Insert(static_cast<double>(i % 4));
  EXPECT_EQ(runs.total, 1000);
  EXPECT_EQ(runs.runs.size(), 4u);  // the paper's RLE memory saving
  EXPECT_TRUE(runs.Remove(2.0));
  EXPECT_EQ(runs.total, 999);
  EXPECT_FALSE(runs.Remove(17.0));
}

TEST(SortedRuns, ValueAtRankWalksRuns) {
  SortedRuns runs;
  runs.Insert(1.0);
  runs.Insert(1.0);
  runs.Insert(5.0);
  EXPECT_DOUBLE_EQ(runs.ValueAtRank(0), 1.0);
  EXPECT_DOUBLE_EQ(runs.ValueAtRank(1), 1.0);
  EXPECT_DOUBLE_EQ(runs.ValueAtRank(2), 5.0);
}

TEST(ConcatAggregation, IsAssociativeButNotCommutative) {
  ConcatAggregation cat;
  EXPECT_FALSE(cat.IsCommutative());
  Partial a = cat.Lift(T(1, 1.0));
  Partial b = cat.Lift(T(2, 2.0));
  Partial c = cat.Lift(T(3, 3.0));
  // (a+b)+c
  Partial ab = a;
  cat.Combine(ab, b);
  Partial abc1 = ab;
  cat.Combine(abc1, c);
  // a+(b+c)
  Partial bc = b;
  cat.Combine(bc, c);
  Partial abc2 = a;
  cat.Combine(abc2, bc);
  EXPECT_EQ(cat.Lower(abc1).AsSequence(), cat.Lower(abc2).AsSequence());
  // b+a differs from a+b.
  Partial ba = b;
  cat.Combine(ba, a);
  EXPECT_NE(cat.Lower(ab).AsSequence(), cat.Lower(ba).AsSequence());
}

TEST(Registry, CreatesEveryBuiltin) {
  for (const std::string& name : BuiltinAggregationNames()) {
    AggregateFunctionPtr fn = MakeAggregation(name);
    ASSERT_NE(fn, nullptr) << name;
    EXPECT_EQ(fn->Name(), name);
  }
  EXPECT_EQ(MakeAggregation("no-such-aggregation"), nullptr);
}

TEST(Registry, ClassificationsMatchPaperTable) {
  EXPECT_EQ(MakeAggregation("sum")->Class(), AggClass::kDistributive);
  EXPECT_EQ(MakeAggregation("count")->Class(), AggClass::kDistributive);
  EXPECT_EQ(MakeAggregation("min")->Class(), AggClass::kDistributive);
  EXPECT_EQ(MakeAggregation("avg")->Class(), AggClass::kAlgebraic);
  EXPECT_EQ(MakeAggregation("m4")->Class(), AggClass::kAlgebraic);
  EXPECT_EQ(MakeAggregation("stddev")->Class(), AggClass::kAlgebraic);
  EXPECT_EQ(MakeAggregation("median")->Class(), AggClass::kHolistic);
  EXPECT_EQ(MakeAggregation("p90")->Class(), AggClass::kHolistic);
  EXPECT_EQ(MakeAggregation("concat")->Class(), AggClass::kHolistic);
}

TEST(Registry, RegroupsExactlyOnlyForSelectionsAndCounts) {
  std::set<std::string> declared;
  for (const std::string& name : BuiltinAggregationNames()) {
    if (MakeAggregation(name)->RegroupsExactly()) declared.insert(name);
  }
  // Not sum, sum-no-invert, avg, stddev or geometric-mean (floating-point
  // sums round by grouping), the holistic aggregations or concat.
  EXPECT_EQ(declared,
            (std::set<std::string>{"count", "min", "max", "min-count",
                                   "max-count", "arg-min", "arg-max", "first",
                                   "last", "m4"}));
}

// ---------------------------------------------------------------------------
// Property sweep: associativity of Combine for every builtin — random splits
// and random multi-way groupings of a random tuple sequence must produce
// the same final aggregate, bit for bit where RegroupsExactly() says so.
// ---------------------------------------------------------------------------

/// Folds ts[lo, hi) under a random grouping: the range splits into two to
/// four parts (some may be empty, one cut lies strictly inside), each part
/// is grouped the same way, and the parts' partials combine left to right.
Partial FoldGrouped(const AggregateFunction& fn, const std::vector<Tuple>& ts,
                    size_t lo, size_t hi, Rng& rng) {
  if (hi - lo <= 1) return lo == hi ? Partial{} : fn.Lift(ts[lo]);
  std::vector<size_t> cuts = {lo, hi, lo + 1 + rng.NextBounded(hi - lo - 1)};
  const uint64_t extra = rng.NextBounded(3);
  for (uint64_t i = 0; i < extra; ++i) {
    cuts.push_back(lo + rng.NextBounded(hi - lo + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  Partial acc;
  for (size_t p = 0; p + 1 < cuts.size(); ++p) {
    fn.Combine(acc, FoldGrouped(fn, ts, cuts[p], cuts[p + 1], rng));
  }
  return acc;
}

class AssociativityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AssociativityTest, RandomSplitsAgree) {
  AggregateFunctionPtr fn = MakeAggregation(GetParam());
  ASSERT_NE(fn, nullptr);
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(40));
    // Every other trial draws timestamps out of order from a narrow range
    // and values from four, so timestamps and values repeat and the
    // tie-breaks run; every fourth also repeats arrival sequence numbers.
    const bool ties = trial % 2 == 1;
    std::vector<Tuple> ts;
    for (int i = 0; i < n; ++i) {
      const Time t = ties ? 1 + static_cast<Time>(rng.NextBounded(
                                    static_cast<uint64_t>(n / 3 + 1)))
                          : i + 1;
      const double v =
          static_cast<double>(rng.NextBounded(ties ? 4 : 50)) + 0.5;
      const uint64_t seq = static_cast<uint64_t>(trial % 4 == 3 ? i / 2 : i);
      ts.push_back(T(t, v, seq));
    }
    // Reference: straight left fold.
    const Partial ref = FoldAll(*fn, ts);
    // Random split point: fold halves, then combine.
    const size_t cut = rng.NextBounded(static_cast<uint64_t>(n) + 1);
    Partial left = FoldAll(
        *fn, std::vector<Tuple>(ts.begin(), ts.begin() + static_cast<long>(cut)));
    Partial right = FoldAll(
        *fn, std::vector<Tuple>(ts.begin() + static_cast<long>(cut), ts.end()));
    fn->Combine(left, right);
    const Partial grouped = FoldGrouped(*fn, ts, 0, ts.size(), rng);
    if (fn->RegroupsExactly()) {
      EXPECT_EQ(left, ref) << fn->Name() << " trial " << trial;
      EXPECT_EQ(grouped, ref) << fn->Name() << " trial " << trial;
      continue;
    }
    const Value expected = fn->Lower(ref);
    const Partial* const regrouped[] = {&left, &grouped};
    for (const Partial* p : regrouped) {
      const Value actual = fn->Lower(*p);
      if (expected.IsDouble()) {
        // Floating-point folds may round differently across associations.
        EXPECT_NEAR(actual.AsDouble(), expected.AsDouble(), 1e-9)
            << fn->Name() << " trial " << trial;
      } else {
        EXPECT_EQ(actual, expected) << fn->Name() << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregations, AssociativityTest,
    ::testing::ValuesIn(BuiltinAggregationNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Commutative builtins must also satisfy x (+) y == y (+) x.
class CommutativityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CommutativityTest, PairwiseSwapsAgree) {
  AggregateFunctionPtr fn = MakeAggregation(GetParam());
  ASSERT_NE(fn, nullptr);
  if (!fn->IsCommutative()) GTEST_SKIP() << "non-commutative by design";
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    // Distinct seq values: ties on equal timestamps resolve by arrival order.
    Partial a = fn->Lift(T(static_cast<Time>(rng.NextBounded(100)),
                           static_cast<double>(rng.NextBounded(10)),
                           static_cast<uint64_t>(2 * trial)));
    Partial b = fn->Lift(T(static_cast<Time>(rng.NextBounded(100)),
                           static_cast<double>(rng.NextBounded(10)),
                           static_cast<uint64_t>(2 * trial + 1)));
    Partial ab = a;
    fn->Combine(ab, b);
    Partial ba = b;
    fn->Combine(ba, a);
    EXPECT_EQ(fn->Lower(ab), fn->Lower(ba)) << fn->Name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregations, CommutativityTest,
    ::testing::ValuesIn(BuiltinAggregationNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Invertible builtins: (acc (+) x) (-) x == acc, verified through Lower.
class InvertibilityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InvertibilityTest, CombineThenInvertRoundTrips) {
  AggregateFunctionPtr fn = MakeAggregation(GetParam());
  ASSERT_NE(fn, nullptr);
  if (!fn->IsInvertible()) GTEST_SKIP() << "not invertible by design";
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(20));
    std::vector<Tuple> ts;
    for (int i = 0; i < n; ++i) {
      ts.push_back(T(i + 1, static_cast<double>(rng.NextBounded(30)) + 1.0));
    }
    Partial acc = FoldAll(*fn, ts);
    const Tuple extra = T(n + 1, 17.0);
    fn->Combine(acc, fn->Lift(extra));
    fn->Invert(acc, fn->Lift(extra));
    const Value expected = fn->Lower(FoldAll(*fn, ts));
    const Value actual = fn->Lower(acc);
    if (expected.IsDouble()) {
      EXPECT_NEAR(actual.AsDouble(), expected.AsDouble(), 1e-6) << fn->Name();
    } else {
      EXPECT_EQ(actual, expected) << fn->Name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregations, InvertibilityTest,
    ::testing::ValuesIn(BuiltinAggregationNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace scotty
