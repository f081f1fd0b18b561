// Cross-technique equivalence: the paper's premise is that general stream
// slicing is a drop-in replacement for alternative window operators — same
// input and output semantics, different performance. These tests run the
// same randomized streams through every applicable technique and require
// identical final window aggregates.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/pairs.h"
#include "baselines/tuple_buffer.h"
#include "common/rng.h"
#include "core/general_slicing_operator.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::FinalResults;
using testutil::RunStream;
using testutil::T;

std::vector<Tuple> RandomStream(uint64_t seed, int n, double ooo_fraction,
                                Time max_delay) {
  testing::StreamSpec spec;
  spec.seed = seed;
  spec.num_tuples = n;
  spec.step_lo = 1;
  spec.step_hi = 4;
  spec.gap_probability = 0.03;  // inactivity gaps for sessions
  spec.gap_length = 50;
  spec.value_range = 20;
  spec.ooo_fraction = ooo_fraction;
  spec.max_delay = max_delay;
  return testing::GenerateStream(spec);
}

using OperatorFactory = std::function<std::unique_ptr<WindowOperator>(
    const std::vector<WindowPtr>&, const std::string&)>;

std::unique_ptr<WindowOperator> MakeSlicing(const std::vector<WindowPtr>& ws,
                                            const std::string& agg,
                                            StoreMode mode) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = false;
  o.allowed_lateness = 1000000;
  o.store_mode = mode;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation(agg));
  for (const WindowPtr& w : ws) op->AddWindow(w);
  return op;
}

std::unique_ptr<WindowOperator> MakeBuffer(const std::vector<WindowPtr>& ws,
                                           const std::string& agg) {
  auto op = std::make_unique<TupleBufferOperator>(false, 1000000);
  op->AddAggregation(MakeAggregation(agg));
  for (const WindowPtr& w : ws) op->AddWindow(w);
  return op;
}

std::unique_ptr<WindowOperator> MakeTree(const std::vector<WindowPtr>& ws,
                                         const std::string& agg) {
  auto op = std::make_unique<TupleBufferOperator>(false, 1000000,
                                                  StoreMode::kEager);
  op->AddAggregation(MakeAggregation(agg));
  for (const WindowPtr& w : ws) op->AddWindow(w);
  return op;
}

std::unique_ptr<WindowOperator> MakeBuckets(const std::vector<WindowPtr>& ws,
                                            const std::string& agg) {
  auto op = std::make_unique<BucketsOperator>(false, 1000000);
  op->AddAggregation(MakeAggregation(agg));
  for (const WindowPtr& w : ws) op->AddWindow(w);
  return op;
}

/// Window factories: fresh window objects per operator (they are stateful).
using WindowFactory = std::function<std::vector<WindowPtr>()>;

void ExpectAllTechniquesAgree(const WindowFactory& windows,
                              const std::string& agg, uint64_t seed,
                              double ooo, Time max_delay,
                              bool include_buckets = true,
                              bool include_tree = true) {
  const std::vector<Tuple> stream = RandomStream(seed, 300, ooo, max_delay);
  Time raw_last = 0;
  for (const Tuple& t : stream) raw_last = std::max(raw_last, t.ts);
  const Time last = raw_last + 100;  // closes trailing sessions too

  auto reference =
      FinalResults(RunStream(*MakeSlicing(windows(), agg, StoreMode::kLazy),
                             stream, last + 1));
  ASSERT_FALSE(reference.empty());

  auto eager = FinalResults(RunStream(
      *MakeSlicing(windows(), agg, StoreMode::kEager), stream, last + 1));
  EXPECT_EQ(eager, reference) << "eager vs lazy, agg=" << agg;

  auto buffer =
      FinalResults(RunStream(*MakeBuffer(windows(), agg), stream, last + 1));
  EXPECT_EQ(buffer, reference) << "tuple-buffer vs slicing, agg=" << agg;

  if (include_tree) {
    auto tree =
        FinalResults(RunStream(*MakeTree(windows(), agg), stream, last + 1));
    EXPECT_EQ(tree, reference) << "aggregate-tree vs slicing, agg=" << agg;
  }
  if (include_buckets) {
    auto buckets = FinalResults(
        RunStream(*MakeBuckets(windows(), agg), stream, last + 1));
    EXPECT_EQ(buckets, reference) << "buckets vs slicing, agg=" << agg;
  }
}

TEST(Equivalence, TumblingSumInOrderStream) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(10)};
      },
      "sum", 1, 0.0, 1);
}

TEST(Equivalence, TumblingSumOutOfOrderStream) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(10)};
      },
      "sum", 2, 0.2, 30);
}

TEST(Equivalence, SlidingAvgOutOfOrder) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{
            std::make_shared<SlidingWindow>(30, 10)};
      },
      "avg", 3, 0.2, 30);
}

TEST(Equivalence, MultiQuerySharedSlices) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(10),
                                      std::make_shared<TumblingWindow>(15),
                                      std::make_shared<SlidingWindow>(40, 20)};
      },
      "sum", 4, 0.15, 25);
}

TEST(Equivalence, MinMaxOutOfOrder) {
  for (const char* agg : {"min", "max"}) {
    ExpectAllTechniquesAgree(
        [] {
          return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(20)};
        },
        agg, 5, 0.25, 40);
  }
}

TEST(Equivalence, MedianHolisticOutOfOrder) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(25)};
      },
      "median", 6, 0.2, 30);
}

TEST(Equivalence, M4OutOfOrder) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(25)};
      },
      "m4", 7, 0.2, 30);
}

TEST(Equivalence, SessionsAcrossTechniques) {
  // Buckets use merging session buckets; trees/buffers track sessions too.
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<SessionWindow>(12)};
      },
      "sum", 8, 0.0, 1);
}

TEST(Equivalence, SessionsWithOutOfOrderTuples) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{std::make_shared<SessionWindow>(12)};
      },
      "sum", 9, 0.15, 20,
      /*include_buckets=*/true, /*include_tree=*/true);
}

TEST(Equivalence, CountWindowsAcrossTechniques) {
  ExpectAllTechniquesAgree(
      [] {
        return std::vector<WindowPtr>{
            std::make_shared<TumblingWindow>(7, Measure::kCount)};
      },
      "sum", 10, 0.2, 25, /*include_buckets=*/true, /*include_tree=*/true);
}

TEST(Equivalence, StdDevAcrossTechniques) {
  // StdDev is algebraic with float rounding: compare numerically.
  const auto windows = [] {
    return std::vector<WindowPtr>{std::make_shared<TumblingWindow>(20)};
  };
  const std::vector<Tuple> stream = RandomStream(11, 300, 0.2, 30);
  Time last = 0;
  for (const Tuple& t : stream) last = std::max(last, t.ts);
  auto a = FinalResults(RunStream(
      *MakeSlicing(windows(), "stddev", StoreMode::kLazy), stream, last + 1));
  auto b = FinalResults(
      RunStream(*MakeBuffer(windows(), "stddev"), stream, last + 1));
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, val] : a) {
    ASSERT_TRUE(b.count(key));
    if (val.IsEmpty()) {
      EXPECT_TRUE(b[key].IsEmpty());
    } else {
      EXPECT_NEAR(val.Numeric(), b[key].Numeric(), 1e-6);
    }
  }
}

TEST(Equivalence, PairsAndCuttyAgreeWithGeneralSlicingInOrder) {
  const std::vector<Tuple> stream = RandomStream(12, 300, 0.0, 1);
  Time last = 0;
  for (const Tuple& t : stream) last = std::max(last, t.ts);
  auto make_windows = [] {
    return std::vector<WindowPtr>{std::make_shared<SlidingWindow>(30, 10),
                                  std::make_shared<TumblingWindow>(15)};
  };
  GeneralSlicingOperator::Options o;
  o.stream_in_order = true;
  GeneralSlicingOperator general(o);
  PairsOperator pairs;
  CuttyOperator cutty;
  std::vector<GeneralSlicingOperator*> ops = {&general, &pairs, &cutty};
  std::vector<std::map<testutil::ResultKey, Value>> finals;
  for (GeneralSlicingOperator* op : ops) {
    op->AddAggregation(MakeAggregation("sum"));
    for (const WindowPtr& w : make_windows()) op->AddWindow(w);
    finals.push_back(FinalResults(RunStream(*op, stream, last + 1)));
  }
  EXPECT_EQ(finals[1], finals[0]);
  EXPECT_EQ(finals[2], finals[0]);
}

}  // namespace
}  // namespace scotty
