// Streaming-substrate tests: the single-threaded pipeline driver and the
// key-partitioned parallel executor.

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "datagen/ooo_injector.h"
#include "runtime/parallel_executor.h"
#include "runtime/pipeline.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

std::unique_ptr<GeneralSlicingOperator> MakeOp(bool in_order) {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = in_order;
  o.allowed_lateness = 2000;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation("sum"));
  op->AddWindow(std::make_shared<TumblingWindow>(1000));
  return op;
}

TEST(Pipeline, DrivesTuplesAndWatermarks) {
  SensorStream src(SensorStream::Machine());
  auto op = MakeOp(false);
  PipelineOptions opts;
  opts.watermark_every = 100;
  opts.watermark_delay = 0;
  const PipelineReport report = RunPipeline(src, *op, 5000, opts);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.tuples, 5000u);
  EXPECT_GT(report.results, 0u);
  EXPECT_GT(report.TuplesPerSecond(), 0.0);
}

TEST(Pipeline, InOrderModeWithoutWatermarks) {
  SensorStream src(SensorStream::Machine());
  auto op = MakeOp(true);
  PipelineOptions opts;
  opts.watermark_every = 0;  // self-triggering stream
  const PipelineReport report = RunPipeline(src, *op, 5000, opts);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.tuples, 5000u);
  EXPECT_GT(report.results, 0u);
}

TEST(Pipeline, OutOfOrderSourceProducesUpdatesWithinLateness) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options ooo;
  ooo.fraction = 0.2;
  ooo.max_delay = 2000;
  OutOfOrderInjector src(&inner, ooo);
  auto op = MakeOp(false);
  PipelineOptions opts;
  opts.watermark_every = 500;
  opts.watermark_delay = 500;  // tighter than max delay: some tuples are late
  const PipelineReport report = RunPipeline(src, *op, 50000, opts);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(op->stats().out_of_order_tuples, 0u);
  EXPECT_GT(report.results, 0u);
  EXPECT_GT(report.updates, 0u);  // allowed-lateness updates observed

  // A one-worker executor over the same operator reports the same counts.
  SensorStream exec_inner(SensorStream::Football());
  OutOfOrderInjector exec_src(&exec_inner, ooo);
  ParallelExecutor exec(1, [] { return MakeOp(false); });
  const PipelineReport exec_report = RunPipeline(exec_src, exec, 50000, opts);
  ASSERT_TRUE(exec_report.ok) << exec_report.error;
  EXPECT_EQ(exec_report.tuples, report.tuples);
  EXPECT_EQ(exec_report.results, report.results);
  EXPECT_EQ(exec_report.updates, report.updates);
}

TEST(SpscQueueTest, PushPopRoundTrip) {
  SpscQueue q(8);
  const Tuple in = testutil::T(42, 3.5, 7);
  TupleBatchSoA block(1);
  block.PushBack(in);
  q.PushTuples(block.View());
  TupleBatchSoA out(1);
  ASSERT_EQ(q.PopTuples(&out, 8), 1u);
  EXPECT_EQ(out.Get(0), in);
  out.Clear();
  EXPECT_EQ(q.PopTuples(&out, 8), 0u);
}

TEST(SpscQueueTest, OrderPreserved) {
  SpscQueue q(16);
  TupleBatchSoA block(10);
  for (int i = 0; i < 10; ++i) block.PushBack(testutil::T(i, i));
  q.PushTuples(block.View());
  TupleBatchSoA out(16);
  ASSERT_EQ(q.PopTuples(&out, 16), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out.ts()[i], i);
  }
}

TEST(ParallelExecutor, PartitionsByKeyAndAggregates) {
  ParallelExecutor exec(2, [] {
    auto op = MakeOp(false);
    return std::unique_ptr<WindowOperator>(std::move(op));
  });
  exec.Start();
  // 4 keys, 2000 tuples, 1ms apart.
  for (int i = 0; i < 2000; ++i) {
    Tuple t = testutil::T(i * 2, 1.0, static_cast<uint64_t>(i), i % 4);
    exec.Push(t);
    if (i % 500 == 499) exec.PushWatermark(i * 2 - 100);
  }
  exec.PushWatermark(4000);
  exec.Finish();
  EXPECT_GT(exec.TotalResults(), 0u);
  EXPECT_GT(exec.MemoryUsageBytes(), 0u);
}

TEST(ParallelExecutor, SingleWorkerMatchesSequentialResultCount) {
  // One worker must see every tuple and produce the same windows as a
  // sequential run.
  auto sequential = MakeOp(false);
  uint64_t seq_results = 0;
  for (int i = 0; i < 3000; ++i) {
    sequential->ProcessTuple(testutil::T(i, 1.0, static_cast<uint64_t>(i)));
  }
  sequential->ProcessWatermark(3000);
  seq_results = sequential->TakeResults().size();

  ParallelExecutor exec(1, [] {
    auto op = MakeOp(false);
    return std::unique_ptr<WindowOperator>(std::move(op));
  });
  exec.Start();
  for (int i = 0; i < 3000; ++i) {
    exec.Push(testutil::T(i, 1.0, static_cast<uint64_t>(i)));
  }
  exec.PushWatermark(3000);
  exec.Finish();
  EXPECT_EQ(exec.TotalResults(), seq_results);
}

TEST(ParallelExecutor, ScalesWithoutLosingTuples) {
  std::atomic<uint64_t> dummy{0};
  (void)dummy;
  for (size_t workers : {1, 2, 4}) {
    ParallelExecutor exec(workers, [] {
      auto op = MakeOp(false);
      return std::unique_ptr<WindowOperator>(std::move(op));
    });
    exec.Start();
    for (int i = 0; i < 5000; ++i) {
      exec.Push(testutil::T(i, 1.0, static_cast<uint64_t>(i), i % 16));
    }
    exec.PushWatermark(5000);
    exec.Finish();
    EXPECT_GT(exec.TotalResults(), 0u) << workers;
  }
}

TEST(ParallelExecutor, TickHookRunsInBothModes) {
  // Every worker loops at least once (it must pop its stop control), so the
  // per-iteration hook fires on every worker, whatever the executor mode.
  for (const bool shared : {false, true}) {
    std::array<std::atomic<uint64_t>, 2> ticks{};
    ParallelExecutor::Options opts;
    opts.shared_preagg = shared;
    opts.worker_tick_hook = [&ticks](size_t w) { ticks[w].fetch_add(1); };
    ParallelExecutor exec(
        ticks.size(),
        [] { return std::unique_ptr<WindowOperator>(MakeOp(false)); }, opts);
    exec.Start();
    for (int i = 0; i < 100; ++i) {
      exec.Push(testutil::T(i, 1.0, static_cast<uint64_t>(i), i % 4));
    }
    exec.PushWatermark(100);
    exec.Finish();
    for (size_t w = 0; w < ticks.size(); ++w) {
      EXPECT_GT(ticks[w].load(), 0u)
          << (shared ? "shared" : "keyed") << " worker " << w;
    }
  }
}

TEST(ParallelExecutorDeathTest, SharedModeRejectsASessionWindow) {
  // A session's edges depend on the tuples around them, which no worker
  // sees all of, so shared mode refuses it before any thread starts.
  ParallelExecutor::Options opts;
  opts.shared_preagg = true;
  const OperatorFactory with_session = [] {
    auto op = MakeOp(false);
    op->AddWindow(std::make_shared<SessionWindow>(500));
    return std::unique_ptr<WindowOperator>(std::move(op));
  };
  EXPECT_DEATH(ParallelExecutor(2, with_session, opts),
               "context free on the time lane");
}

}  // namespace
}  // namespace scotty
