// Batched-ingestion equivalence suite: every layer of the columnar batch
// path (aggregation kernels, the general slicing operator, the keyed
// wrapper, the SPSC queue, the pipeline driver) must produce results
// bit-identical to the per-tuple path, and the supporting plumbing (slice
// freelist, Name() caching, queue capacity knob) must behave as documented.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "common/rng.h"
#include "common/tuple_batch.h"
#include "core/aggregate_store.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"
#include "runtime/pipeline.h"
#include "testing/differential.h"
#include "testing/harness.h"
#include "testing/stream_gen.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testing::RunToFinalResults;
using testing::RunToFinalResultsColumns;
using testing::T;
using testutil::ScopedKernelMode;
using testutil::SupportedModes;

// ---------------------------------------------------------------------------
// Kernel level: LiftCombineColumns vs the per-tuple Lift+Combine fold, from
// both an identity and a pre-seeded partial, over aligned and unaligned
// column heads, in every kernel mode this binary+CPU supports.

std::vector<Tuple> KernelStream(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Tuple> out;
  Time ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Time>(rng.NextBounded(3));
    // Mix signs and magnitudes so floating-point rounding actually differs
    // between fold orders if a kernel gets the order wrong.
    const double v =
        (static_cast<double>(rng.NextBounded(2000)) - 997.0) / 7.0;
    out.push_back(T(ts, v, static_cast<uint64_t>(i)));
  }
  return out;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelEquivalenceTest, BatchKernelBitIdenticalToPerTupleFold) {
  const AggregateFunctionPtr fn = MakeAggregation(GetParam());
  ASSERT_NE(fn, nullptr);
  const std::vector<Tuple> tuples = KernelStream(0xBADC0FFEE + 1, 257);
  TupleBatchSoA cols;
  cols.AppendTuples(tuples);

  for (const simd::KernelMode m : SupportedModes()) {
    ScopedKernelMode pin(m);
    // `prefix` tuples seed both partials per tuple (0 = identity); the
    // column fold then starts `gap` tuples later, so the subview head is
    // unaligned for every start but 0 and 16.
    for (const size_t prefix : {size_t{0}, size_t{1}, size_t{13}}) {
      for (const size_t gap : {size_t{0}, size_t{3}}) {
        Partial per_tuple;
        Partial batched;
        for (size_t i = 0; i < prefix; ++i) {
          fn->Combine(per_tuple, fn->Lift(tuples[i]));
          fn->Combine(batched, fn->Lift(tuples[i]));
        }
        const size_t start = prefix + gap;
        for (size_t i = start; i < tuples.size(); ++i) {
          fn->Combine(per_tuple, fn->Lift(tuples[i]));
        }
        fn->LiftCombineColumns(cols.Subview(start, tuples.size() - start),
                               batched);
        // Exact equality, no tolerance: the kernels must replicate the fold
        // order bit-for-bit (this is what lets the differential fuzzer
        // compare batched and per-tuple operator runs exactly).
        EXPECT_TRUE(per_tuple == batched)
            << GetParam() << " mode=" << simd::ModeName(m)
            << " prefix=" << prefix << " start=" << start;
        EXPECT_EQ(fn->Lower(per_tuple), fn->Lower(batched))
            << GetParam() << " mode=" << simd::ModeName(m)
            << " prefix=" << prefix << " start=" << start;
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, BatchKernelMatchesBaseClassLoop) {
  const AggregateFunctionPtr fn = MakeAggregation(GetParam());
  ASSERT_NE(fn, nullptr);
  TupleBatchSoA cols;
  cols.AppendTuples(KernelStream(77, 64));
  for (const simd::KernelMode m : SupportedModes()) {
    ScopedKernelMode pin(m);
    Partial via_base;
    Partial via_kernel;
    // Qualified call bypasses the virtual override: the documented default.
    fn->AggregateFunction::LiftCombineColumns(cols.View(), via_base);
    fn->LiftCombineColumns(cols.View(), via_kernel);
    EXPECT_TRUE(via_base == via_kernel)
        << GetParam() << " mode=" << simd::ModeName(m);
    EXPECT_EQ(fn->Lower(via_base), fn->Lower(via_kernel))
        << GetParam() << " mode=" << simd::ModeName(m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregations, KernelEquivalenceTest,
    ::testing::Values("sum", "count", "avg", "min", "max", "stddev", "m4",
                      "sum-no-invert", "median", "p90", "arg-max", "arg-min",
                      "min-count", "max-count", "concat", "geometric-mean",
                      "first", "last"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Operator level: ProcessTupleColumns vs ProcessTuple across store modes,
// stream orders, batch sizes, and workloads that force the per-tuple
// fallback (count lane, sessions).

struct OpCase {
  std::string name;
  bool in_order = false;
  StoreMode mode = StoreMode::kLazy;
  double ooo = 0.0;
  bool sessions = false;
  bool count_window = false;
  int wm_every = 0;
};

std::unique_ptr<GeneralSlicingOperator> MakeCaseOp(const OpCase& c) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = c.in_order;
  o.allowed_lateness = 1'000'000;
  o.store_mode = c.mode;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation("sum"));
  op->AddAggregation(MakeAggregation("stddev"));
  op->AddWindow(std::make_shared<TumblingWindow>(17));
  op->AddWindow(std::make_shared<SlidingWindow>(24, 8));
  if (c.sessions) op->AddWindow(std::make_shared<SessionWindow>(12));
  if (c.count_window) {
    op->AddWindow(std::make_shared<TumblingWindow>(7, Measure::kCount));
  }
  return op;
}

class OperatorBatchTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OperatorBatchTest, BatchedRunBitIdenticalToPerTuple) {
  const OpCase& c = GetParam();
  testing::StreamSpec spec;
  spec.seed = 99;
  spec.num_tuples = 700;
  spec.step_lo = 0;
  spec.step_hi = 3;
  spec.value_range = 50;
  spec.ooo_fraction = c.ooo;
  spec.max_delay = 20;
  const std::vector<Tuple> stream = GenerateStream(spec);
  Time last = 0;
  for (const Tuple& t : stream) last = std::max(last, t.ts);
  const Time final_wm = last + 100;
  const Time wm_lag = spec.MaxLateness() + 1;

  auto ref_op = MakeCaseOp(c);
  const auto ref =
      RunToFinalResults(*ref_op, stream, final_wm, c.wm_every, wm_lag);
  ASSERT_FALSE(ref.empty());

  for (const size_t bs : {size_t{1}, size_t{7}, size_t{64}, stream.size()}) {
    auto op = MakeCaseOp(c);
    const auto got = RunToFinalResultsColumns(*op, stream, final_wm,
                                              c.wm_every, wm_lag, bs);
    ASSERT_EQ(got.size(), ref.size()) << c.name << " batch=" << bs;
    for (const auto& [key, expected] : ref) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end()) << c.name << " batch=" << bs;
      // Bit-identical, including the stddev aggregation.
      EXPECT_EQ(it->second, expected)
          << c.name << " batch=" << bs << " window [" << std::get<2>(key)
          << "," << std::get<3>(key) << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, OperatorBatchTest,
    ::testing::Values(
        OpCase{"inorder_lazy", true, StoreMode::kLazy, 0.0, false, false, 0},
        OpCase{"inorder_eager", true, StoreMode::kEager, 0.0, false, false, 0},
        OpCase{"ooo_lazy_wm", false, StoreMode::kLazy, 0.25, false, false, 64},
        OpCase{"ooo_eager_wm", false, StoreMode::kEager, 0.25, false, false,
               64},
        OpCase{"sessions_fallback", true, StoreMode::kLazy, 0.0, true, false,
               0},
        OpCase{"countlane_fallback", false, StoreMode::kLazy, 0.1, false, true,
               128}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

// The differential fuzzer's batched runs against oracle + baselines.
TEST(OperatorBatchTest, DifferentialSweepWithBatchingEnabled) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    testing::DifferentialConfig cfg = testing::RandomConfig(seed, 800);
    for (int batch : {1, 7, 64, 800}) {
      cfg.batch = batch;
      const testing::DifferentialOutcome o = testing::RunDifferential(cfg);
      EXPECT_TRUE(o.ok) << "seed " << seed << " batch " << batch << ": "
                        << o.detail;
    }
  }
}

// ---------------------------------------------------------------------------
// Keyed wrapper: columnar shuffle by key, Name() caching.

std::vector<Tuple> KeyedStream(int n, int num_keys, bool runs) {
  Rng rng(4242);
  std::vector<Tuple> out;
  Time ts = 0;
  int64_t key = 0;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Time>(rng.NextBounded(2));
    if (runs) {
      if (rng.NextBounded(40) == 0) {
        key = static_cast<int64_t>(rng.NextBounded(
            static_cast<uint64_t>(num_keys)));
      }
    } else {
      key = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(num_keys)));
    }
    out.push_back(T(ts, static_cast<double>(rng.NextBounded(100)),
                    static_cast<uint64_t>(i), key));
  }
  return out;
}

std::unique_ptr<KeyedWindowOperator> MakeKeyed() {
  return std::make_unique<KeyedWindowOperator>([] {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    o.allowed_lateness = 1'000'000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<TumblingWindow>(13));
    op->AddWindow(std::make_shared<SlidingWindow>(20, 5));
    return op;
  });
}

using KeyedKey = std::tuple<int64_t, int, int, Time, Time>;

std::map<KeyedKey, Value> KeyedFinal(const std::vector<WindowResult>& rs) {
  std::map<KeyedKey, Value> out;
  for (const WindowResult& r : rs) {
    out[{r.key, r.window_id, r.agg_id, r.start, r.end}] = r.value;
  }
  return out;
}

TEST(KeyedBatchTest, RegroupedBatchesBitIdenticalToPerTuple) {
  for (const bool runs : {true, false}) {
    const std::vector<Tuple> stream = KeyedStream(1200, 5, runs);
    Time last = 0;
    for (const Tuple& t : stream) last = std::max(last, t.ts);

    auto ref_op = MakeKeyed();
    for (const Tuple& t : stream) ref_op->ProcessTuple(t);
    ref_op->ProcessWatermark(last + 1);
    const auto ref = KeyedFinal(ref_op->TakeResults());
    ASSERT_FALSE(ref.empty());

    TupleBatchSoA cols;
    cols.AppendTuples(stream);
    for (const size_t bs : {size_t{3}, size_t{64}, stream.size()}) {
      auto op = MakeKeyed();
      for (size_t i = 0; i < stream.size(); i += bs) {
        const size_t len = std::min(bs, stream.size() - i);
        op->ProcessTupleColumns(cols.Subview(i, len));
      }
      op->ProcessWatermark(last + 1);
      EXPECT_EQ(KeyedFinal(op->TakeResults()), ref)
          << (runs ? "runs" : "mixed") << " batch=" << bs;
    }
  }
}

TEST(KeyedBatchTest, NameIsCachedWithoutFactoryCalls) {
  // A tumbling window shares one slice stream across keys: the lane
  // decision's operator is the only one ever built. A session keeps one
  // operator per key, and the decision's operator serves the first key.
  for (const bool session : {false, true}) {
    int factory_calls = 0;
    KeyedWindowOperator op([&factory_calls, session] {
      ++factory_calls;
      auto inner = std::make_unique<GeneralSlicingOperator>();
      inner->AddAggregation(MakeAggregation("sum"));
      inner->AddWindow(std::make_shared<TumblingWindow>(10));
      if (session) inner->AddWindow(std::make_shared<SessionWindow>(30));
      return inner;
    });
    // Before any tuple: no inner operator exists and Name() must not build
    // throwaway ones.
    EXPECT_EQ(op.Name(), "keyed");
    EXPECT_EQ(op.Name(), "keyed");
    EXPECT_EQ(factory_calls, 0);

    op.ProcessTuple(T(5, 1.0, 0, /*key=*/3));
    op.ProcessTuple(T(6, 2.0, 1, /*key=*/8));
    EXPECT_EQ(op.shares_slices(), !session);
    EXPECT_EQ(factory_calls, session ? 2 : 1);
    EXPECT_EQ(op.Name(), "keyed-general-slicing-lazy");
    EXPECT_EQ(op.Name(), "keyed-general-slicing-lazy");
    EXPECT_EQ(factory_calls, session ? 2 : 1);  // Name() stays factory-free
  }
}

// ---------------------------------------------------------------------------
// SPSC queue: block transfers, capacity knob.

TEST(SpscQueueBatchTest, BatchRoundTripAcrossWraparound) {
  SpscQueue q(16);  // tiny ring: every block straddles the wrap point
  EXPECT_EQ(q.capacity(), 16u);
  constexpr size_t kTotal = 1000;
  TupleBatchSoA in(kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    in.PushBack(T(static_cast<Time>(i), static_cast<double>(i), i));
  }
  std::thread producer([&] { q.PushTuples(in.View()); });
  TupleBatchSoA got(kTotal);
  TupleBatchSoA buf(8);
  while (got.size() < kTotal) {
    buf.Clear();
    // Odd pop size: chunks never align with the ring.
    const size_t n = q.PopTuples(&buf, 7);
    got.AppendView(buf.View());
    if (n == 0) std::this_thread::yield();
  }
  producer.join();
  ASSERT_EQ(got.size(), kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(got.seq()[i], i);
    EXPECT_EQ(got.ts()[i], static_cast<Time>(i));
    EXPECT_EQ(got.value()[i], static_cast<double>(i));
  }
}

TEST(SpscQueueBatchTest, ControlsGateTupleConsumption) {
  SpscQueue q(8);
  TupleBatchSoA block(4);
  for (uint64_t i = 0; i < 3; ++i) block.PushBack(T(0, 0.0, i));
  q.PushTuples(block.View());
  SpscQueue::Control wm;
  wm.kind = SpscQueue::Control::Kind::kWatermark;
  wm.watermark = 42;
  q.PushControl(wm);
  block.Clear();
  block.PushBack(T(0, 0.0, 3));
  q.PushTuples(block.View());

  // The control blocks until all three tuples before it are consumed, and
  // PopTuples never crosses it to reach the fourth tuple.
  SpscQueue::Control out;
  EXPECT_FALSE(q.PopControl(&out));
  TupleBatchSoA buf(8);
  ASSERT_EQ(q.PopTuples(&buf, 8), 3u);
  EXPECT_EQ(buf.seq()[0], 0u);
  EXPECT_EQ(buf.seq()[2], 2u);
  ASSERT_TRUE(q.PopControl(&out));
  EXPECT_EQ(out.kind, SpscQueue::Control::Kind::kWatermark);
  EXPECT_EQ(out.watermark, 42);
  buf.Clear();
  ASSERT_EQ(q.PopTuples(&buf, 8), 1u);
  EXPECT_EQ(buf.seq()[0], 3u);
  EXPECT_EQ(q.PopTuples(&buf, 8), 0u);
  EXPECT_FALSE(q.PopControl(&out));
}

TEST(SpscQueueBatchTest, NonPowerOfTwoCapacityAborts) {
  EXPECT_DEATH(SpscQueue q(100), "power of two");
}

TEST(SpscQueueBatchTest, NonAlignedCapacityAborts) {
  // 4 is a power of two but not a multiple of the SoA alignment quantum.
  EXPECT_DEATH(SpscQueue q(4), "multiple");
}

// ---------------------------------------------------------------------------
// Pipeline driver and executor: batch size must not change what is computed.

std::unique_ptr<GeneralSlicingOperator> MakePipelineOp() {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = false;
  o.allowed_lateness = 2000;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation("sum"));
  op->AddWindow(std::make_shared<TumblingWindow>(1000));
  return op;
}

TEST(PipelineBatchTest, BatchSizesProduceIdenticalCounts) {
  PipelineOptions base;
  base.watermark_every = 100;
  base.watermark_delay = 0;
  SensorStream ref_src(SensorStream::Machine());
  auto ref_op = MakePipelineOp();
  const PipelineReport ref = RunPipeline(ref_src, *ref_op, 5000, base);
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_EQ(ref.tuples, 5000u);
  ASSERT_GT(ref.results, 0u);
  for (const uint64_t bs : {uint64_t{1}, uint64_t{7}, uint64_t{256}}) {
    SensorStream src(SensorStream::Machine());
    auto op = MakePipelineOp();
    PipelineOptions opts = base;
    opts.batch_size = bs;
    const PipelineReport got = RunPipeline(src, *op, 5000, opts);
    ASSERT_TRUE(got.ok) << "batch=" << bs << ": " << got.error;
    EXPECT_EQ(got.tuples, ref.tuples) << "batch=" << bs;
    EXPECT_EQ(got.results, ref.results) << "batch=" << bs;
    EXPECT_EQ(got.updates, ref.updates) << "batch=" << bs;
  }
}

// ---------------------------------------------------------------------------
// Slice freelist: evicted slices are recycled, bounded, and reset.

TEST(SliceFreelistTest, EvictedSlicesAreRecycled) {
  AggregateStore store(StoreMode::kLazy, {MakeAggregation("sum")});
  for (int i = 0; i < 8; ++i) {
    Slice& s = store.Append(i * 10, (i + 1) * 10);
    s.AddTuple(T(i * 10 + 1, 1.0), store.fns(), /*store_tuple=*/true);
    store.NoteTupleAdded();
  }
  EXPECT_EQ(store.FreeListSize(), 0u);
  store.EvictBefore(40);  // retires 4 slices
  EXPECT_EQ(store.NumSlices(), 4u);
  EXPECT_EQ(store.FreeListSize(), 4u);

  Slice& reused = store.Append(80, 90);
  EXPECT_EQ(store.FreeListSize(), 3u);  // one slice came off the freelist
  // Recycled slices come back fully reset.
  EXPECT_EQ(reused.start(), 80);
  EXPECT_EQ(reused.end(), 90);
  EXPECT_EQ(reused.tuple_count(), 0u);
  EXPECT_TRUE(reused.tuples().empty());
  EXPECT_TRUE(reused.agg(0).IsIdentity());
}

TEST(SliceFreelistTest, MergeRetiresTheAbsorbedSlice) {
  AggregateStore store(StoreMode::kLazy, {MakeAggregation("sum")});
  store.Append(0, 10);
  store.Append(10, 20);
  EXPECT_EQ(store.FreeListSize(), 0u);
  store.MergeWithNext(0);
  EXPECT_EQ(store.NumSlices(), 1u);
  EXPECT_EQ(store.FreeListSize(), 1u);
  EXPECT_EQ(store.At(0).end(), 20);
}

}  // namespace
}  // namespace scotty
