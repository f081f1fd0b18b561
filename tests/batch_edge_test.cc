// Edge cases of the columnar (SoA) batch path: degenerate batch shapes
// (empty, all-punctuation, shorter than a vector register, unaligned tails),
// kernel-mode cross-checks pinned through every dispatch target the binary
// supports, and the supporting utilities (FastMod, FlatKeyMap) the hot
// paths lean on.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/kernels.h"
#include "aggregates/registry.h"
#include "common/fastmod.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/tuple_batch.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "testing/harness.h"
#include "tests/test_util.h"
#include "windows/punctuation.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testing::FinalResults;
using testing::ResultKey;
using testing::T;
using testutil::ScopedKernelMode;
using testutil::SupportedModes;

std::unique_ptr<GeneralSlicingOperator> MakeOp(bool punct_window = false) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = false;
  o.allowed_lateness = 1'000'000;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation("sum"));
  op->AddAggregation(MakeAggregation("min"));
  op->AddWindow(std::make_shared<TumblingWindow>(20));
  op->AddWindow(std::make_shared<SlidingWindow>(30, 10));
  if (punct_window) op->AddWindow(std::make_shared<PunctuationWindow>());
  return op;
}

std::map<ResultKey, Value> RunColumns(const std::vector<Tuple>& tuples,
                                      Time final_wm, bool punct_window,
                                      size_t offset_jitter = 0) {
  auto op = MakeOp(punct_window);
  // Stage the whole stream into one SoA batch, then deliver it in subviews
  // whose start offsets are deliberately NOT multiples of the alignment
  // quantum when offset_jitter > 0: column kernels must accept unaligned
  // heads and ragged tails.
  TupleBatchSoA all(tuples.size());
  for (const Tuple& t : tuples) all.PushBack(t);
  size_t i = 0;
  size_t chunk = offset_jitter == 0 ? tuples.size() : offset_jitter;
  while (i < all.size()) {
    const size_t len = std::min(chunk, all.size() - i);
    op->ProcessTupleColumns(all.Subview(i, len));
    i += len;
    chunk = chunk == 1 ? 5 : chunk - 1;  // 5,4,3,2,1,5,4,... odd offsets
  }
  op->ProcessWatermark(final_wm);
  return FinalResults(op->TakeResults());
}

std::map<ResultKey, Value> RunPerTuple(const std::vector<Tuple>& tuples,
                                       Time final_wm, bool punct_window) {
  auto op = MakeOp(punct_window);
  for (const Tuple& t : tuples) op->ProcessTuple(t);
  op->ProcessWatermark(final_wm);
  return FinalResults(op->TakeResults());
}

TEST(BatchEdgeTest, EmptyBatchIsANoOp) {
  auto op = MakeOp();
  op->ProcessTupleColumns(TupleColumnsView{});  // null columns, size 0
  TupleBatchSoA empty(8);
  op->ProcessTupleColumns(empty.View());
  op->ProcessTuple(T(5, 1.0, 0));
  op->ProcessTupleColumns(empty.View());
  op->ProcessWatermark(100);
  const auto got = FinalResults(op->TakeResults());
  const auto want = RunPerTuple({T(5, 1.0, 0)}, 100, false);
  EXPECT_EQ(got, want);
}

TEST(BatchEdgeTest, AllPunctuationBatchMatchesPerTuple) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 6; ++i) {
    Tuple t = T(10 + i * 7, 0.0, static_cast<uint64_t>(i));
    t.is_punctuation = true;
    tuples.push_back(t);
  }
  const auto want = RunPerTuple(tuples, 200, /*punct_window=*/true);
  const auto got = RunColumns(tuples, 200, /*punct_window=*/true);
  EXPECT_EQ(got, want);
}

TEST(BatchEdgeTest, MixedPunctuationAndDataMatchesPerTuple) {
  Rng rng(7);
  std::vector<Tuple> tuples;
  Time ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += static_cast<Time>(rng.NextBounded(3));
    Tuple t = T(ts, static_cast<double>(rng.NextBounded(50)),
                static_cast<uint64_t>(i));
    t.is_punctuation = rng.NextBounded(10) == 0;
    tuples.push_back(t);
  }
  const auto want = RunPerTuple(tuples, ts + 100, /*punct_window=*/true);
  for (const size_t jitter : {size_t{0}, size_t{5}}) {
    EXPECT_EQ(RunColumns(tuples, ts + 100, true, jitter), want)
        << "jitter=" << jitter;
  }
}

TEST(BatchEdgeTest, BatchesSmallerThanVectorWidthMatchPerTuple) {
  // 1..7 tuples: shorter than the widest vector step (4 doubles with AVX2)
  // and than the alignment quantum (8 elements). Every kernel must fall
  // through its tail handling correctly.
  for (size_t n = 1; n <= 7; ++n) {
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < n; ++i) {
      tuples.push_back(T(static_cast<Time>(3 * i), 1.5 * (i + 1), i));
    }
    const auto want = RunPerTuple(tuples, 100, false);
    for (const simd::KernelMode m : SupportedModes()) {
      ScopedKernelMode pin(m);
      EXPECT_EQ(RunColumns(tuples, 100, false), want)
          << "n=" << n << " mode=" << simd::ModeName(m);
    }
  }
}

TEST(BatchEdgeTest, SingleRunSpanningWholeBatchMatchesPerTuple) {
  // All 256 tuples share one slice (monotone ts inside [0,20)): the
  // foldable-run scan must cover the entire batch in a single fold.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 256; ++i) {
    tuples.push_back(T(i % 20 == 0 ? 3 : 3, (i % 13) / 3.0,
                       static_cast<uint64_t>(i)));
  }
  const auto want = RunPerTuple(tuples, 100, false);
  for (const simd::KernelMode m : SupportedModes()) {
    ScopedKernelMode pin(m);
    EXPECT_EQ(RunColumns(tuples, 100, false), want) << simd::ModeName(m);
  }
}

TEST(BatchEdgeTest, UnalignedSubviewDeliveryMatchesPerTuple) {
  Rng rng(99);
  std::vector<Tuple> tuples;
  Time ts = 0;
  for (int i = 0; i < 500; ++i) {
    ts += static_cast<Time>(rng.NextBounded(2));
    tuples.push_back(T(ts, (static_cast<double>(rng.NextBounded(400)) - 197) / 9.0,
                       static_cast<uint64_t>(i)));
  }
  const auto want = RunPerTuple(tuples, ts + 100, false);
  for (const simd::KernelMode m : SupportedModes()) {
    ScopedKernelMode pin(m);
    EXPECT_EQ(RunColumns(tuples, ts + 100, false, /*offset_jitter=*/5), want)
        << simd::ModeName(m);
  }
}

// ---------------------------------------------------------------------------
// Raw kernel cross-checks: every mode vs the scalar reference at lengths
// that cover empty, sub-width, width-multiple, and ragged-tail cases, from
// aligned and unaligned column heads.

TEST(KernelEdgeTest, FoldKernelsAgreeAcrossModesLengthsAndOffsets) {
  constexpr size_t kN = 100;
  alignas(kBatchAlignBytes) double v[kN];
  Rng rng(31);
  for (size_t i = 0; i < kN; ++i) {
    v[i] = (static_cast<double>(rng.NextBounded(2000)) - 997.0) / 7.0;
  }
  const auto modes = SupportedModes();
  for (const size_t off : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{4},
                           size_t{5}, size_t{8}, size_t{15}, size_t{64},
                           size_t{93}}) {
      ASSERT_LE(off + n, kN);
      ScopedKernelMode pin(simd::KernelMode::kScalar);
      const double sum_ref = simd::SumColumn(v + off, n, 0.25);
      const double min_ref =
          simd::MinColumn(v + off, n, std::numeric_limits<double>::infinity());
      const double max_ref =
          simd::MaxColumn(v + off, n, -std::numeric_limits<double>::infinity());
      for (const simd::KernelMode m : modes) {
        simd::SetModeForTesting(m);
        // Bit-identical equality — EXPECT_EQ on doubles, no tolerance.
        EXPECT_EQ(simd::SumColumn(v + off, n, 0.25), sum_ref)
            << simd::ModeName(m) << " off=" << off << " n=" << n;
        EXPECT_EQ(simd::MinColumn(v + off, n,
                                  std::numeric_limits<double>::infinity()),
                  min_ref)
            << simd::ModeName(m) << " off=" << off << " n=" << n;
        EXPECT_EQ(simd::MaxColumn(v + off, n,
                                  -std::numeric_limits<double>::infinity()),
                  max_ref)
            << simd::ModeName(m) << " off=" << off << " n=" << n;
      }
    }
  }
}

TEST(KernelEdgeTest, MonotoneRunLengthAgreesAcrossModes) {
  constexpr size_t kN = 120;
  alignas(kBatchAlignBytes) Time ts[kN];
  Rng rng(17);
  Time t = 0;
  for (size_t i = 0; i < kN; ++i) {
    // Mostly monotone with occasional regressions, so runs end both at
    // ts-order breaks and at the bound.
    if (rng.NextBounded(12) == 0 && t > 3) t -= 3;
    ts[i] = t;
    t += static_cast<Time>(rng.NextBounded(3));
  }
  const auto modes = SupportedModes();
  for (const size_t off : {size_t{0}, size_t{1}, size_t{5}}) {
    for (const size_t n : {size_t{0}, size_t{3}, size_t{16}, size_t{100}}) {
      ASSERT_LE(off + n, kN);
      for (const Time last : {Time{0}, ts[off], ts[off] + 1}) {
        for (const Time bound : {Time{5}, Time{40},
                                 std::numeric_limits<Time>::max()}) {
          ScopedKernelMode pin(simd::KernelMode::kScalar);
          const size_t ref =
              simd::MonotoneRunLength(ts + off, n, last, bound);
          for (const simd::KernelMode m : modes) {
            simd::SetModeForTesting(m);
            EXPECT_EQ(simd::MonotoneRunLength(ts + off, n, last, bound), ref)
                << simd::ModeName(m) << " off=" << off << " n=" << n
                << " last=" << last << " bound=" << bound;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FastMod: exactness against the hardware `%`, and stream bit-identity.

TEST(FastModTest, MatchesHardwareModuloExhaustively) {
  std::vector<uint64_t> divisors = {1,  2,  3,   5,   7,    8,    16,  37,
                                    63, 64, 100, 127, 1000, 84232};
  // The round-up-magic-overflow (kMagicAdd) and huge-divisor (kDiv) paths.
  divisors.push_back((uint64_t{1} << 62) + 1);
  divisors.push_back((uint64_t{1} << 63) + 12345);
  Rng rng(5);
  for (const uint64_t d : divisors) {
    FastMod fm(d);
    EXPECT_EQ(fm.divisor(), d);
    for (uint64_t x = 0; x < 200; ++x) EXPECT_EQ(fm.Mod(x), x % d) << d;
    for (int i = 0; i < 5000; ++i) {
      const uint64_t x = rng.NextU64();
      ASSERT_EQ(fm.Mod(x), x % d) << "d=" << d << " x=" << x;
    }
    // Boundary values around multiples of d and the extremes.
    for (const uint64_t x :
         {d - 1, d, d + 1, 2 * d - 1, 2 * d,
          std::numeric_limits<uint64_t>::max(),
          std::numeric_limits<uint64_t>::max() - 1}) {
      EXPECT_EQ(fm.Mod(x), x % d) << "d=" << d << " x=" << x;
    }
  }
}

TEST(FastModTest, SensorStreamBitIdenticalToPlainModulo) {
  // The generator draws value/key via FastMod; an independent replay of the
  // same Rng with plain `%` must reproduce the stream exactly.
  SensorConfig cfg = SensorStream::Football();
  SensorStream stream(cfg);
  Rng replay(cfg.seed);
  Time now = 0;
  double carry = 0.0;
  double until_gap =
      cfg.rate_hz * 60.0 / cfg.session_gaps_per_minute;
  for (int i = 0; i < 20000; ++i) {
    Tuple t;
    ASSERT_TRUE(stream.Next(&t));
    carry += 1000.0 / cfg.rate_hz;
    const Time step = static_cast<Time>(carry);
    carry -= static_cast<double>(step);
    now += step;
    until_gap -= 1.0;
    if (until_gap <= 0) {
      now += cfg.gap_length_ms;
      until_gap = cfg.rate_hz * 60.0 / cfg.session_gaps_per_minute;
    }
    ASSERT_EQ(t.ts, now) << i;
    ASSERT_EQ(t.value,
              static_cast<double>(
                  replay.NextU64() %
                  static_cast<uint64_t>(cfg.distinct_values)))
        << i;
    ASSERT_EQ(t.key, static_cast<int64_t>(
                         replay.NextU64() %
                         static_cast<uint64_t>(cfg.num_keys)))
        << i;
  }
}

// ---------------------------------------------------------------------------
// FlatKeyMap: the open-addressing map under the keyed shuffle's usage
// pattern (FindOrInsert, O(1) Clear via generations, growth).

TEST(FlatKeyMapTest, FindOrInsertGrowthAndClear) {
  FlatKeyMap<uint32_t> map(16);
  std::map<int64_t, uint32_t> ref;
  Rng rng(123);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 500; ++i) {
      const int64_t key =
          static_cast<int64_t>(rng.NextBounded(300)) - 150;  // negatives too
      bool inserted = false;
      uint32_t& slot =
          map.FindOrInsert(key, static_cast<uint32_t>(ref.size()), &inserted);
      const bool was_new = ref.find(key) == ref.end();
      EXPECT_EQ(inserted, was_new);
      if (was_new) ref[key] = slot;
      EXPECT_EQ(slot, ref[key]);
    }
    EXPECT_EQ(map.size(), ref.size());
    for (const auto& [key, value] : ref) {
      uint32_t* found = map.Find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, value);
    }
    EXPECT_EQ(map.Find(10'000), nullptr);
    map.Clear();
    ref.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.Find(0), nullptr);  // stale generations read as empty
  }
}

}  // namespace
}  // namespace scotty
