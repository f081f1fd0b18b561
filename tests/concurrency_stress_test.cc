// Concurrency stress tests for the runtime layer, designed to run under
// ThreadSanitizer (ctest -L concurrency in the TSan CI lane): the SPSC ring
// buffer under sustained producer/consumer pressure, and the key-partitioned
// ParallelExecutor checked against a sequential per-key reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "query/query_registry.h"
#include "query/window_desc.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"
#include "testing/stream_gen.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

/// Tuples travel through the SoA data ring in blocks, controls through the
/// control ring; the stamped data_pos must restore the producer's exact
/// tuple/control interleaving: every watermark control carries the number
/// of tuples pushed before it, and must pop exactly when that many tuples
/// have been consumed.
TEST(SpscQueueStress, TransfersEveryTupleInOrderAcrossControls) {
  SpscQueue q(1 << 8);  // small ring => constant wraparound + backpressure
  constexpr uint64_t kTuples = 200000;
  constexpr size_t kBlock = 100;
  constexpr uint64_t kCtrlEvery = 700;  // a watermark every 7 blocks

  std::thread producer([&] {
    TupleBatchSoA block(kBlock);
    uint64_t next = 0;
    while (next < kTuples) {
      block.Clear();
      const uint64_t n = std::min<uint64_t>(kBlock, kTuples - next);
      for (uint64_t i = 0; i < n; ++i) {
        Tuple t;
        t.seq = next + i;
        t.value = static_cast<double>((next + i) % 1024);
        block.PushBack(t);
      }
      q.PushTuples(block.View());
      next += n;
      if (next % kCtrlEvery == 0) {
        SpscQueue::Control wm;
        wm.kind = SpscQueue::Control::Kind::kWatermark;
        wm.watermark = static_cast<Time>(next);  // tuples pushed before it
        q.PushControl(wm);
      }
    }
    SpscQueue::Control stop;
    stop.kind = SpscQueue::Control::Kind::kStop;
    q.PushControl(stop);
  });

  uint64_t received = 0;
  double checksum = 0;
  uint64_t expected_seq = 0;
  bool in_order = true;
  bool controls_at_boundaries = true;
  TupleBatchSoA buf(kBlock);
  SpscQueue::Control c;
  while (true) {
    buf.Clear();
    const size_t n = q.PopTuples(&buf, kBlock);
    for (size_t i = 0; i < n; ++i) {
      in_order &= buf.seq()[i] == expected_seq++;
      checksum += buf.value()[i];
    }
    received += n;
    if (q.PopControl(&c)) {
      if (c.kind == SpscQueue::Control::Kind::kStop) break;
      // The control must surface exactly at its stamped tuple boundary.
      controls_at_boundaries &=
          c.watermark == static_cast<Time>(received);
    }
    if (n == 0) std::this_thread::yield();
  }
  producer.join();

  EXPECT_EQ(received, kTuples);
  EXPECT_TRUE(in_order);
  EXPECT_TRUE(controls_at_boundaries);
  double expected_checksum = 0;
  for (uint64_t i = 0; i < kTuples; ++i) {
    expected_checksum += static_cast<double>(i % 1024);
  }
  EXPECT_EQ(checksum, expected_checksum);
}

/// The bounded-blocking push path (the backpressure fix for the unbounded
/// PushTuples spin): with no consumer, a full ring must hand control back
/// with a partial (or zero) transfer inside the timeout instead of spinning
/// forever, ApproxOccupancy must expose the pressure, and the same call
/// must complete once a consumer starts draining — with the transferred
/// prefix never re-sent, so the seq stream through the ring stays exact.
TEST(SpscQueueStress, TimedPushSignalsBackpressureAndRecovers) {
  SpscQueue q(64);
  TupleBatchSoA block(16);
  uint64_t next_seq = 0;
  auto fill_block = [&] {
    block.Clear();
    for (int i = 0; i < 16; ++i) {
      Tuple t;
      t.seq = next_seq + static_cast<uint64_t>(i);
      block.PushBack(t);
    }
  };

  // Saturate: with no consumer, a bounded push must report a timeout
  // (transferring only a prefix of its block) within a handful of blocks.
  uint64_t pushed = 0;
  bool timed_out = false;
  for (int b = 0; b < 8 && !timed_out; ++b) {
    fill_block();
    const size_t n =
        q.TryPushTuplesFor(block.View(), std::chrono::milliseconds(5));
    pushed += n;
    next_seq += n;
    timed_out = n < 16;
  }
  ASSERT_TRUE(timed_out);
  EXPECT_GE(pushed, 32u);  // the ring did accept ~capacity before refusing
  EXPECT_GT(q.ApproxOccupancy(), 0.5);

  // A consumer arriving mid-wait unblocks the same bounded call, and the
  // consumed stream is the exact concatenation of every transferred prefix.
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    TupleBatchSoA buf(16);
    uint64_t got = 0;
    uint64_t expect = 0;
    while (got < pushed + 16) {
      buf.Clear();
      const size_t n = q.PopTuples(&buf, 16);
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(buf.seq()[i], expect++);
      got += n;
      if (n == 0) std::this_thread::yield();
    }
  });
  fill_block();
  EXPECT_EQ(q.TryPushTuplesFor(block.View(), std::chrono::seconds(10)), 16u);
  consumer.join();
}

/// Blocks larger than the ring must chunk, and nearly every transfer wraps,
/// splitting the per-column memcpys into two segments.
TEST(SpscQueueStress, WrappedBlocksSurviveTinyRing) {
  SpscQueue q(1 << 7);  // tiny ring: blocks constantly split at the wrap
  constexpr uint64_t kTuples = 200000;
  constexpr size_t kPush = 190;  // > capacity: PushTuples must chunk
  constexpr size_t kPop = 33;

  std::thread producer([&] {
    TupleBatchSoA block(kPush);
    uint64_t next = 0;
    while (next < kTuples) {
      block.Clear();
      const uint64_t n = std::min<uint64_t>(kPush, kTuples - next);
      for (uint64_t i = 0; i < n; ++i) {
        Tuple t;
        t.seq = next + i;
        t.ts = static_cast<Time>(next + i);
        block.PushBack(t);
      }
      q.PushTuples(block.View());
      next += n;
    }
    SpscQueue::Control stop;
    stop.kind = SpscQueue::Control::Kind::kStop;
    q.PushControl(stop);
  });

  uint64_t received = 0;
  uint64_t expected_seq = 0;
  bool in_order = true;
  TupleBatchSoA buf(kPop);
  SpscQueue::Control c;
  while (true) {
    buf.Clear();
    const size_t n = q.PopTuples(&buf, kPop);
    if (n == 0) {
      if (q.PopControl(&c) && c.kind == SpscQueue::Control::Kind::kStop) {
        break;
      }
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      in_order &= buf.seq()[i] == expected_seq &&
                  buf.ts()[i] == static_cast<Time>(expected_seq);
      ++expected_seq;
    }
    received += n;
  }
  producer.join();
  EXPECT_EQ(received, kTuples);
  EXPECT_TRUE(in_order);
}

/// Sessions and a count window: one slicing operator per key.
std::unique_ptr<WindowOperator> MakeKeyedSlicing() {
  return std::make_unique<KeyedWindowOperator>([] {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    o.allowed_lateness = 1'000'000'000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("max"));
    op->AddWindow(std::make_shared<SlidingWindow>(40, 15, Measure::kEventTime));
    op->AddWindow(std::make_shared<SessionWindow>(25));
    op->AddWindow(std::make_shared<TumblingWindow>(7, Measure::kCount));
    return op;
  });
}

/// Context-free time windows only: all keys share one slice stream.
std::unique_ptr<WindowOperator> MakeKeyedSharedSlices() {
  return std::make_unique<KeyedWindowOperator>([] {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    o.allowed_lateness = 1'000'000'000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("max"));
    op->AddWindow(std::make_shared<SlidingWindow>(40, 15, Measure::kEventTime));
    op->AddWindow(std::make_shared<TumblingWindow>(25, Measure::kEventTime));
    return op;
  });
}

/// Both keyed lanes: per-key operators and shared slices.
const OperatorFactory kKeyedLanes[] = {MakeKeyedSlicing,
                                       MakeKeyedSharedSlices};

/// A keyed OOO stream plus the watermark cadence both executions replay.
struct KeyedWorkload {
  std::vector<Tuple> tuples;  // seq pre-assigned: arrival order is identity
  Time final_wm = 0;
};

KeyedWorkload MakeWorkload() {
  testing::StreamSpec spec;
  spec.seed = 42;
  spec.num_tuples = 6000;
  spec.step_lo = 0;
  spec.step_hi = 3;
  spec.num_keys = 8;
  spec.ooo_fraction = 0.2;
  spec.max_delay = 16;
  spec.gap_probability = 0.01;
  spec.gap_length = 40;
  KeyedWorkload w;
  w.tuples = GenerateStream(spec);
  Time max_ts = 0;
  uint64_t seq = 0;
  for (Tuple& t : w.tuples) {
    t.seq = seq++;
    max_ts = std::max(max_ts, t.ts);
  }
  w.final_wm = max_ts + 1000;
  return w;
}

uint64_t SequentialResultCount(const OperatorFactory& factory,
                               const KeyedWorkload& w, Time wm_lag) {
  auto op = factory();
  uint64_t results = 0;
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  uint64_t n = 0;
  for (const Tuple& t : w.tuples) {
    op->ProcessTuple(t);
    max_ts = std::max(max_ts, t.ts);
    if (++n % 97 == 0 && max_ts - wm_lag > last_wm) {
      last_wm = max_ts - wm_lag;
      op->ProcessWatermark(last_wm);
      results += op->TakeResults().size();
    }
  }
  op->ProcessWatermark(w.final_wm);
  results += op->TakeResults().size();
  return results;
}

uint64_t ParallelResultCount(const OperatorFactory& factory,
                             const KeyedWorkload& w, Time wm_lag,
                             size_t num_workers) {
  ParallelExecutor exec(num_workers, factory);
  exec.Start();
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  uint64_t n = 0;
  for (const Tuple& t : w.tuples) {
    exec.Push(t);
    max_ts = std::max(max_ts, t.ts);
    if (++n % 97 == 0 && max_ts - wm_lag > last_wm) {
      last_wm = max_ts - wm_lag;
      exec.PushWatermark(last_wm);
    }
  }
  exec.PushWatermark(w.final_wm);
  exec.Finish();
  return exec.TotalResults();
}

/// Like ParallelResultCount, but drives ingestion through PushColumns in
/// column blocks with explicit executor options (queue capacity, staging
/// batch size). The watermark cadence is identical, so results must match
/// the sequential reference regardless of batching parameters.
uint64_t ParallelBatchedResultCount(const OperatorFactory& factory,
                                    const KeyedWorkload& w, Time wm_lag,
                                    size_t num_workers,
                                    ParallelExecutor::Options opts,
                                    size_t block) {
  TupleBatchSoA cols;
  cols.AppendTuples(w.tuples);
  ParallelExecutor exec(num_workers, factory, opts);
  exec.Start();
  Time max_ts = kNoTime;
  Time last_wm = kNoTime;
  uint64_t n = 0;
  size_t i = 0;
  while (i < w.tuples.size()) {
    size_t len = std::min(block, w.tuples.size() - i);
    len = std::min<size_t>(len, 97 - n % 97);  // stop at the wm boundary
    exec.PushColumns(cols.Subview(i, len));
    for (size_t k = 0; k < len; ++k) {
      max_ts = std::max(max_ts, w.tuples[i + k].ts);
    }
    n += len;
    i += len;
    if (n % 97 == 0 && max_ts - wm_lag > last_wm) {
      last_wm = max_ts - wm_lag;
      exec.PushWatermark(last_wm);
    }
  }
  exec.PushWatermark(w.final_wm);
  exec.Finish();
  return exec.TotalResults();
}

/// Keys are disjoint across workers and each SPSC queue preserves the
/// source's tuple/watermark interleaving, so every per-key operator sees the
/// identical sequence in both executions: the emission counts must match.
TEST(ParallelExecutorStress, MatchesSequentialKeyedReference) {
  const KeyedWorkload w = MakeWorkload();
  const Time wm_lag = 30;
  for (const OperatorFactory& keyed : kKeyedLanes) {
    const uint64_t sequential = SequentialResultCount(keyed, w, wm_lag);
    ASSERT_GT(sequential, 0u);
    EXPECT_EQ(ParallelResultCount(keyed, w, wm_lag, 4), sequential);
  }
}

TEST(ParallelExecutorStress, BatchedIngestionMatchesSequentialReference) {
  const KeyedWorkload w = MakeWorkload();
  const Time wm_lag = 30;
  for (const OperatorFactory& keyed : kKeyedLanes) {
    const uint64_t sequential = SequentialResultCount(keyed, w, wm_lag);
    ASSERT_GT(sequential, 0u);
    ParallelExecutor::Options tight;
    tight.queue_capacity = 1 << 8;  // constant backpressure + wraparound
    tight.batch_size = 32;
    EXPECT_EQ(ParallelBatchedResultCount(keyed, w, wm_lag, 3, tight, 200),
              sequential);
    ParallelExecutor::Options unstaged;
    unstaged.queue_capacity = 1 << 12;
    unstaged.batch_size = 1;  // staging disabled: per-item pushes
    EXPECT_EQ(ParallelBatchedResultCount(keyed, w, wm_lag, 5, unstaged, 64),
              sequential);
  }
}

TEST(ParallelExecutorStress, DeterministicAcrossRunsAndWorkerCounts) {
  const KeyedWorkload w = MakeWorkload();
  const Time wm_lag = 30;
  for (const OperatorFactory& keyed : kKeyedLanes) {
    const uint64_t first = ParallelResultCount(keyed, w, wm_lag, 3);
    EXPECT_EQ(ParallelResultCount(keyed, w, wm_lag, 3), first);
    EXPECT_EQ(ParallelResultCount(keyed, w, wm_lag, 7), first);
  }
}

/// Many short executor lifecycles: races in Start/Finish/join show up under
/// TSan far more readily than in one long run.
TEST(ParallelExecutorStress, RepeatedLifecycles) {
  testing::StreamSpec spec;
  spec.seed = 7;
  spec.num_tuples = 400;
  spec.num_keys = 5;
  spec.ooo_fraction = 0.3;
  spec.max_delay = 8;
  std::vector<Tuple> tuples = GenerateStream(spec);
  uint64_t seq = 0;
  Time max_ts = 0;
  for (Tuple& t : tuples) {
    t.seq = seq++;
    max_ts = std::max(max_ts, t.ts);
  }
  for (const OperatorFactory& keyed : kKeyedLanes) {
    uint64_t reference = 0;
    for (int round = 0; round < 20; ++round) {
      ParallelExecutor exec(2 + round % 3, keyed);
      exec.Start();
      for (const Tuple& t : tuples) exec.Push(t);
      exec.PushWatermark(max_ts + 100);
      exec.Finish();
      if (round == 0) {
        reference = exec.TotalResults();
        ASSERT_GT(reference, 0u);
      } else {
        EXPECT_EQ(exec.TotalResults(), reference);
      }
    }
  }
}

/// Shared-operator pre-aggregation (Options::shared_preagg): one
/// GeneralSlicingOperator fed by workers that fold their share into private
/// engine slices and merge them at watermarks. Aggregations are commutative
/// and values are integer-valued doubles, so results must match a
/// single-threaded run of the same operator EXACTLY — any lost slice,
/// double merge, or trigger race shows up as a value or count mismatch
/// (and as a TSan report in the concurrency lane).
const std::vector<std::string> kSharedWindows = {"tumbling:100",
                                                 "sliding:200:50"};

/// Sum, count and max over `windows` on one out-of-order slicing operator.
OperatorFactory SharedSlicingOf(std::vector<std::string> windows) {
  return [windows] {
    GeneralSlicingOperator::Options o;
    o.stream_in_order = false;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("count"));
    op->AddAggregation(MakeAggregation("max"));
    for (const std::string& spec : windows) {
      WindowDesc d;
      EXPECT_TRUE(WindowDesc::Parse(spec, &d)) << spec;
      op->AddWindow(d.Instantiate());
    }
    return std::unique_ptr<WindowOperator>(std::move(op));
  };
}

/// The same windows and aggregations as one QueryRegistry query: its dense
/// global window ids and local agg ids equal the slicing operator's ids.
OperatorFactory SharedRegistryOf(std::vector<std::string> windows) {
  return [windows] {
    auto reg = std::make_unique<QueryRegistry>();
    std::string err;
    EXPECT_NE(reg->Register({windows, {"sum", "count", "max"}}, &err),
              QueryRegistry::kInvalidQuery)
        << err;
    return std::unique_ptr<WindowOperator>(std::move(reg));
  };
}

/// In-order stream with integer values: FP sums are then exact, so shared
/// pre-aggregation (arbitrary merge order) and the sequential fold agree
/// bit-for-bit.
std::vector<Tuple> MakeSharedWorkload(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<Tuple> tuples(n);
  Time ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<Time>(rng() % 4);
    tuples[i].ts = ts;
    tuples[i].value = static_cast<double>(rng() % 1000);
    tuples[i].seq = i;
  }
  return tuples;
}

/// The same stream with about a third of the adjacent pairs swapped: each
/// swapped tuple arrives at most 3 time units late, well within the
/// workloads' watermark lag, so no tuple is late.
std::vector<Tuple> SwapAdjacent(std::vector<Tuple> tuples, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i + 1 < tuples.size(); i += 2) {
    if (rng() % 3 == 0) std::swap(tuples[i], tuples[i + 1]);
  }
  return tuples;
}

/// The watermark after every 500th tuple, `wm_lag` behind it, when it rises
/// (both executions push exactly these).
Time WatermarkAfter(const std::vector<Tuple>& tuples, size_t pushed,
                    Time wm_lag, Time last_wm) {
  if (pushed % 500 != 0) return kNoTime;
  const Time wm = tuples[pushed - 1].ts - wm_lag;
  return wm > last_wm ? wm : kNoTime;
}

/// Sequential run of one operator from `factory`: a pre-data watermark, the
/// tuples with their watermarks, then `final_wm` unless it is kNoTime.
/// The pre-data watermark pins the operator's watermark floor below all
/// data on both executions (the shared run merges only completed slices,
/// so its max-seen timestamp at the first watermark differs from the
/// sequential run's; anchoring the floor first removes that asymmetry).
std::vector<WindowResult> SequentialSharedReference(
    const std::vector<Tuple>& tuples, Time wm_lag, Time final_wm,
    const OperatorFactory& factory = SharedSlicingOf(kSharedWindows),
    std::unique_ptr<WindowOperator>* op_out = nullptr) {
  std::unique_ptr<WindowOperator> op = factory();
  std::vector<WindowResult> results;
  op->ProcessWatermark(-1);
  Time last_wm = -1;
  for (size_t i = 0; i < tuples.size(); ++i) {
    op->ProcessTuple(tuples[i]);
    const Time wm = WatermarkAfter(tuples, i + 1, wm_lag, last_wm);
    if (wm != kNoTime) {
      last_wm = wm;
      op->ProcessWatermark(last_wm);
      op->TakeResultsInto(&results);
    }
  }
  if (final_wm != kNoTime) op->ProcessWatermark(final_wm);
  op->TakeResultsInto(&results);
  if (op_out != nullptr) *op_out = std::move(op);
  return results;
}

/// The shared executor's run of the same item sequence; `exec_out` keeps
/// the finished executor for inspecting its shared operator.
std::vector<WindowResult> SharedPreaggRun(
    const std::vector<Tuple>& tuples, Time wm_lag, Time final_wm,
    size_t workers, size_t batch_size, bool columnar,
    OperatorFactory factory = SharedSlicingOf(kSharedWindows),
    std::unique_ptr<ParallelExecutor>* exec_out = nullptr) {
  ParallelExecutor::Options opts;
  opts.shared_preagg = true;
  opts.batch_size = batch_size;
  opts.queue_capacity = 1 << 10;
  auto exec =
      std::make_unique<ParallelExecutor>(workers, std::move(factory), opts);
  exec->Start();
  exec->PushWatermark(-1);
  TupleBatchSoA all;
  if (columnar) all.AppendTuples(tuples);
  Time last_wm = -1;
  size_t i = 0;
  while (i < tuples.size()) {
    const size_t len = std::min<size_t>(500 - i % 500, tuples.size() - i);
    if (columnar) {
      exec->PushColumns(all.Subview(i, len));
    } else {
      for (size_t k = 0; k < len; ++k) exec->Push(tuples[i + k]);
    }
    i += len;
    const Time wm = WatermarkAfter(tuples, i, wm_lag, last_wm);
    if (wm != kNoTime) {
      last_wm = wm;
      exec->PushWatermark(last_wm);
    }
  }
  if (final_wm != kNoTime) exec->PushWatermark(final_wm);
  exec->Finish();
  std::vector<WindowResult> results = exec->TakeSharedResults();
  if (exec_out != nullptr) *exec_out = std::move(exec);
  return results;
}

void SortResults(std::vector<WindowResult>* rs) {
  std::sort(rs->begin(), rs->end(),
            [](const WindowResult& a, const WindowResult& b) {
              return std::tie(a.window_id, a.agg_id, a.start, a.end) <
                     std::tie(b.window_id, b.agg_id, b.start, b.end);
            });
}

void ExpectSameResults(std::vector<WindowResult> got,
                       std::vector<WindowResult> want) {
  ASSERT_EQ(got.size(), want.size());
  // Emission order within one watermark may differ between the shared and
  // sequential drains; (window, agg, extent) identifies a result uniquely.
  SortResults(&got);
  SortResults(&want);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].window_id, want[i].window_id) << i;
    EXPECT_EQ(got[i].agg_id, want[i].agg_id) << i;
    EXPECT_EQ(got[i].start, want[i].start) << i;
    EXPECT_EQ(got[i].end, want[i].end) << i;
    EXPECT_EQ(got[i].value, want[i].value) << got[i] << " vs " << want[i];
  }
}

/// (start, end) of every slice in an engine's time store.
std::vector<std::pair<Time, Time>> SliceBounds(
    const GeneralSlicingOperator& op) {
  std::vector<std::pair<Time, Time>> bounds;
  const AggregateStore* store = op.time_store();
  if (store == nullptr) return bounds;
  for (size_t i = 0; i < store->NumSlices(); ++i) {
    bounds.emplace_back(store->At(i).start(), store->At(i).end());
  }
  return bounds;
}

TEST(SharedPreaggStress, MatchesSequentialReferenceExactly) {
  const std::vector<Tuple> tuples = MakeSharedWorkload(11, 20000);
  const Time wm_lag = 60;
  const Time final_wm = tuples.back().ts + 1000;
  const std::vector<WindowResult> want =
      SequentialSharedReference(tuples, wm_lag, final_wm);
  ASSERT_GT(want.size(), 0u);
  ExpectSameResults(SharedPreaggRun(tuples, wm_lag, final_wm, 2, 256, false),
                    want);
  ExpectSameResults(SharedPreaggRun(tuples, wm_lag, final_wm, 4, 256, false),
                    want);
  // A registry factory: slices merge into its engine, and the worker that
  // raises the merged watermark demuxes through the registry.
  ExpectSameResults(SharedPreaggRun(tuples, wm_lag, final_wm, 3, 256, false,
                                    SharedRegistryOf(kSharedWindows)),
                    want);
}

TEST(SharedPreaggStress, ColumnarIngestionAndTinyBatchesMatch) {
  const std::vector<Tuple> tuples = MakeSharedWorkload(12, 20000);
  const Time wm_lag = 60;
  const Time final_wm = tuples.back().ts + 1000;
  const std::vector<WindowResult> want =
      SequentialSharedReference(tuples, wm_lag, final_wm);
  ASSERT_GT(want.size(), 0u);
  // Zero-copy columnar ingestion.
  ExpectSameResults(SharedPreaggRun(tuples, wm_lag, final_wm, 3, 128, true),
                    want);
  // Unstaged per-tuple pushes: every tuple is its own ring transfer.
  ExpectSameResults(SharedPreaggRun(tuples, wm_lag, final_wm, 2, 1, false),
                    want);
}

/// Tuples past the last watermark merge into the shared store at stop;
/// finalizing through SharedOperator() after Finish must surface them.
TEST(SharedPreaggStress, StopDrainsRemainingBuckets) {
  const std::vector<Tuple> tuples = MakeSharedWorkload(13, 5000);
  const Time final_wm = tuples.back().ts + 1000;
  // Reference: everything triggers at the final watermark.
  std::unique_ptr<WindowOperator> ref = SharedSlicingOf(kSharedWindows)();
  ref->ProcessWatermark(-1);
  for (const Tuple& t : tuples) ref->ProcessTuple(t);
  ref->ProcessWatermark(final_wm);
  std::vector<WindowResult> want = ref->TakeResults();
  ASSERT_GT(want.size(), 0u);

  ParallelExecutor::Options opts;
  opts.shared_preagg = true;
  ParallelExecutor exec(3, SharedSlicingOf(kSharedWindows), opts);
  exec.Start();
  exec.PushWatermark(-1);
  for (const Tuple& t : tuples) exec.Push(t);
  exec.Finish();  // no final watermark: local slices merge at stop
  std::vector<WindowResult> got = exec.TakeSharedResults();
  ASSERT_NE(exec.SharedOperator(), nullptr);
  exec.SharedOperator()->ProcessWatermark(final_wm);
  for (WindowResult& r : exec.SharedOperator()->TakeResults()) {
    got.push_back(std::move(r));
  }
  ExpectSameResults(std::move(got), std::move(want));
}

/// The windows' edges are not evenly spaced here (multiples of 300, the
/// sliding starts at multiples of 200 and its ends at 500, 700, 900, ...),
/// and the stream is out of order. The workers cut their slices at the
/// engine's own window edges, so the results match the sequential run
/// exactly at any worker count, and the shared engine ends up holding the
/// very slices a sequential out-of-order engine cuts from the same tuples
/// and watermarks.
TEST(SharedPreaggStress, CutsAtTheEnginesEdges) {
  const std::vector<std::string> windows = {"tumbling:300", "sliding:500:200"};
  const std::vector<Tuple> tuples =
      SwapAdjacent(MakeSharedWorkload(14, 20000), 15);
  const Time wm_lag = 60;
  const Time final_wm = tuples.back().ts + 1000;
  const std::vector<WindowResult> want = SequentialSharedReference(
      tuples, wm_lag, final_wm, SharedSlicingOf(windows));
  ASSERT_GT(want.size(), 0u);

  std::unique_ptr<WindowOperator> seq;
  SequentialSharedReference(tuples, wm_lag, kNoTime, SharedSlicingOf(windows),
                            &seq);
  const auto& seq_engine = static_cast<const GeneralSlicingOperator&>(*seq);
  const std::vector<std::pair<Time, Time>> want_bounds =
      SliceBounds(seq_engine);
  ASSERT_GT(want_bounds.size(), 1u);

  for (const size_t workers : {1, 3, 4}) {
    for (const bool registry : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << workers << " workers, "
                   << (registry ? "registry" : "slicing"));
      const OperatorFactory factory =
          registry ? SharedRegistryOf(windows) : SharedSlicingOf(windows);
      ExpectSameResults(SharedPreaggRun(tuples, wm_lag, final_wm, workers,
                                        256, false, factory),
                        want);
      std::unique_ptr<ParallelExecutor> exec;
      SharedPreaggRun(tuples, wm_lag, kNoTime, workers, 256, false, factory,
                      &exec);
      EXPECT_EQ(SliceBounds(*exec->SharedOperator()), want_bounds);
    }
  }
}

}  // namespace
}  // namespace scotty
