// Parameterized property sweeps: the general slicing operator must match
// brute-force window semantics across the cross product of workload
// characteristics the paper identifies — stream order x aggregation x
// window type x store mode.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "common/rng.h"
#include "core/general_slicing_operator.h"
#include "testing/harness.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::BruteForce;
using testutil::FinalResults;
using testutil::RunStream;
using testutil::T;

std::vector<Tuple> MakeStream(uint64_t seed, int n, double ooo_fraction,
                              Time max_delay, bool with_gaps) {
  testing::StreamSpec spec;
  spec.seed = seed;
  spec.num_tuples = n;
  spec.step_lo = 1;
  spec.step_hi = 3;
  spec.gap_probability = with_gaps ? 0.03 : 0.0;
  spec.gap_length = 40;
  spec.value_range = 30;
  spec.ooo_fraction = ooo_fraction;
  spec.max_delay = max_delay;
  return testing::GenerateStream(spec);
}

// Parameters: aggregation name, out-of-order fraction, store mode,
// window kind (0=tumbling, 1=sliding, 2=both).
using Param = std::tuple<std::string, double, StoreMode, int>;

class SlicingPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(SlicingPropertyTest, MatchesBruteForce) {
  const auto& [agg_name, ooo, mode, window_kind] = GetParam();
  GeneralSlicingOperator::Options o;
  o.stream_in_order = ooo == 0.0;
  o.allowed_lateness = 1000000;
  o.store_mode = mode;
  GeneralSlicingOperator op(o);
  op.AddAggregation(MakeAggregation(agg_name));
  std::vector<WindowPtr> windows;
  if (window_kind == 0 || window_kind == 2) {
    windows.push_back(std::make_shared<TumblingWindow>(17));
  }
  if (window_kind == 1 || window_kind == 2) {
    windows.push_back(std::make_shared<SlidingWindow>(24, 8));
  }
  for (const WindowPtr& w : windows) op.AddWindow(w);

  const std::vector<Tuple> stream =
      MakeStream(/*seed=*/std::hash<std::string>{}(agg_name) + window_kind,
                 250, ooo, 30, false);
  Time last = 0;
  for (const Tuple& t : stream) last = std::max(last, t.ts);
  auto fin = FinalResults(RunStream(op, stream, last + 1));
  ASSERT_FALSE(fin.empty());

  const AggregateFunctionPtr fn = MakeAggregation(agg_name);
  std::vector<Tuple> seqd = stream;
  for (size_t i = 0; i < seqd.size(); ++i) seqd[i].seq = i;
  for (const auto& [key, value] : fin) {
    const auto [w, a, s, e] = key;
    const Value expected = BruteForce(*fn, seqd, s, e);
    if (expected.IsEmpty() || value.IsEmpty()) {
      EXPECT_EQ(value.IsEmpty(), expected.IsEmpty()) << s << "," << e;
    } else if (expected.IsDouble()) {
      EXPECT_NEAR(value.AsDouble(), expected.AsDouble(), 1e-6)
          << agg_name << " [" << s << "," << e << ")";
    } else {
      EXPECT_EQ(value, expected) << agg_name << " [" << s << "," << e << ")";
    }
  }
}

// Same workload matrix, but comparing columnar batch ingestion against
// per-tuple ingestion: every batch size must reproduce the per-tuple run
// bit-for-bit (no tolerance, even for stddev — every column fold preserves
// the per-tuple fold order).
TEST_P(SlicingPropertyTest, BatchedIngestionBitIdenticalToPerTuple) {
  const auto& [agg_name, ooo, mode, window_kind] = GetParam();
  auto make = [&] {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = ooo == 0.0;
    o.allowed_lateness = 1000000;
    o.store_mode = mode;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation(agg_name));
    if (window_kind == 0 || window_kind == 2) {
      op->AddWindow(std::make_shared<TumblingWindow>(17));
    }
    if (window_kind == 1 || window_kind == 2) {
      op->AddWindow(std::make_shared<SlidingWindow>(24, 8));
    }
    return op;
  };
  const std::vector<Tuple> stream =
      MakeStream(/*seed=*/std::hash<std::string>{}(agg_name) + window_kind,
                 250, ooo, 30, false);
  Time last = 0;
  for (const Tuple& t : stream) last = std::max(last, t.ts);
  const Time wm_lag = 31;  // > max_delay: mid-stream watermarks drop nothing

  auto ref_op = make();
  const auto ref =
      testing::RunToFinalResults(*ref_op, stream, last + 1, 64, wm_lag);
  ASSERT_FALSE(ref.empty());
  for (const size_t bs : {size_t{1}, size_t{7}, size_t{64}, stream.size()}) {
    auto op = make();
    const auto got = testing::RunToFinalResultsColumns(*op, stream, last + 1,
                                                       64, wm_lag, bs);
    EXPECT_EQ(got, ref) << agg_name << " batch=" << bs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadMatrix, SlicingPropertyTest,
    ::testing::Combine(
        ::testing::Values("sum", "count", "avg", "min", "max", "m4", "median",
                          "arg-max", "min-count", "stddev"),
        ::testing::Values(0.0, 0.25),
        ::testing::Values(StoreMode::kLazy, StoreMode::kEager),
        ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += std::get<1>(info.param) > 0 ? "_ooo" : "_inorder";
      name +=
          std::get<2>(info.param) == StoreMode::kLazy ? "_lazy" : "_eager";
      const int wk = std::get<3>(info.param);
      name += wk == 0 ? "_tumbling" : (wk == 1 ? "_sliding" : "_both");
      return name;
    });

// Session property sweep: sessions derived from the stream by brute force
// (split on gaps) must match the operator's session windows.
using SessionParam = std::tuple<double, StoreMode>;

class SessionPropertyTest : public ::testing::TestWithParam<SessionParam> {};

TEST_P(SessionPropertyTest, SessionsMatchGapSemantics) {
  const auto& [ooo, mode] = GetParam();
  const Time gap = 15;
  GeneralSlicingOperator::Options o;
  o.stream_in_order = ooo == 0.0;
  o.allowed_lateness = 1000000;
  o.store_mode = mode;
  GeneralSlicingOperator op(o);
  op.AddAggregation(MakeAggregation("sum"));
  op.AddWindow(std::make_shared<SessionWindow>(gap));

  const std::vector<Tuple> stream = MakeStream(77, 250, ooo, 25, true);
  Time last = 0;
  for (const Tuple& t : stream) last = std::max(last, t.ts);
  auto fin = FinalResults(RunStream(op, stream, last + gap + 1));

  // Brute-force sessions: sort by ts, split where the gap is exceeded.
  std::vector<Tuple> sorted = stream;
  std::sort(sorted.begin(), sorted.end(),
            [](const Tuple& a, const Tuple& b) { return a.ts < b.ts; });
  std::vector<std::tuple<Time, Time, double>> sessions;  // start, end, sum
  for (const Tuple& t : sorted) {
    if (!sessions.empty() &&
        t.ts < std::get<1>(sessions.back())) {
      std::get<1>(sessions.back()) = t.ts + gap;
      std::get<2>(sessions.back()) += t.value;
    } else {
      sessions.push_back({t.ts, t.ts + gap, t.value});
    }
  }
  ASSERT_EQ(fin.size(), sessions.size());
  for (const auto& [start, end, sum] : sessions) {
    const auto it = fin.find({0, 0, start, end});
    ASSERT_NE(it, fin.end()) << "missing session [" << start << "," << end
                             << ")";
    EXPECT_NEAR(it->second.Numeric(), sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SessionMatrix, SessionPropertyTest,
    ::testing::Combine(::testing::Values(0.0, 0.2),
                       ::testing::Values(StoreMode::kLazy, StoreMode::kEager)),
    [](const ::testing::TestParamInfo<SessionParam>& info) {
      std::string name =
          std::get<0>(info.param) > 0 ? "ooo" : "inorder";
      name += std::get<1>(info.param) == StoreMode::kLazy ? "_lazy" : "_eager";
      return name;
    });

}  // namespace
}  // namespace scotty
