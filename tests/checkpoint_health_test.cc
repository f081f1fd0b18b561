// CheckpointHealth surfacing (ROADMAP: "CheckpointHealth is computed but
// nothing reads it"): the coordinator's HealthReport() accessor and the
// health embedded in the PipelineReport of either RunPipeline target,
// driven through injected persist failures.

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint.h"
#include "runtime/parallel_executor.h"
#include "runtime/pipeline.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

namespace fs = std::filesystem;

using testutil::T;

std::string TempDir(const std::string& leaf) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string unique =
      info ? leaf + "_" + info->test_suite_name() + "_" + info->name() : leaf;
  const fs::path dir = fs::path(::testing::TempDir()) / unique;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class VectorSource : public TupleSource {
 public:
  explicit VectorSource(std::vector<Tuple> tuples)
      : tuples_(std::move(tuples)) {}
  bool Next(Tuple* out) override {
    if (pos_ >= tuples_.size()) return false;
    *out = tuples_[pos_++];
    return true;
  }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

std::vector<Tuple> MakeStream(size_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(T(static_cast<Time>(i * 2),
                    0.25 * static_cast<double>(i % 31) - 2.0,
                    /*seq=*/0, static_cast<int64_t>(i % 7)));
  }
  return out;
}

std::function<std::unique_ptr<WindowOperator>()> Factory() {
  return [] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 1000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<TumblingWindow>(40));
    op->AddWindow(std::make_shared<SessionWindow>(8));
    return op;
  };
}

TEST(CheckpointHealthReport, NamesAndDefaults) {
  EXPECT_STREQ(CheckpointHealthName(CheckpointHealth::kHealthy), "healthy");
  EXPECT_STREQ(CheckpointHealthName(CheckpointHealth::kDegraded), "degraded");
  EXPECT_STREQ(CheckpointHealthName(CheckpointHealth::kFailed), "failed");
  const CheckpointHealthReport hr;
  EXPECT_EQ(hr.health, CheckpointHealth::kHealthy);
  EXPECT_FALSE(hr.Degraded());
  EXPECT_EQ(hr.persist_failures, 0u);
}

TEST(CheckpointHealthReport, MirrorsCoordinatorCounters) {
  const std::string dir = TempDir("health_mirror");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "h";
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 10;
  CheckpointCoordinator coord(copts);
  std::atomic<int> failures_left{2};
  coord.SetPersistFailureHook(
      [&](uint64_t, bool) { return failures_left.fetch_sub(1) > 0; });

  auto op = Factory()();
  for (int i = 0; i < 30; ++i) op->ProcessTuple(T(i * 3, i));
  op->ProcessWatermark(50);
  op->TakeResults();

  state::CheckpointMetadata meta;
  EXPECT_TRUE(coord.OnBarrier(*op, meta).empty());  // fails
  CheckpointHealthReport hr = coord.HealthReport();
  EXPECT_EQ(hr.health, CheckpointHealth::kDegraded);
  EXPECT_TRUE(hr.Degraded());
  EXPECT_EQ(hr.health, coord.health());
  EXPECT_EQ(hr.persist_failures, coord.persist_failures());
  EXPECT_EQ(hr.persist_failures, 1u);
  EXPECT_EQ(hr.bases_persisted, 0u);

  EXPECT_TRUE(coord.OnBarrier(*op, meta).empty());   // fails
  EXPECT_FALSE(coord.OnBarrier(*op, meta).empty());  // persists, recovers
  hr = coord.HealthReport();
  EXPECT_EQ(hr.health, CheckpointHealth::kHealthy);
  EXPECT_FALSE(hr.Degraded());
  EXPECT_EQ(hr.persist_failures, 2u);
  EXPECT_EQ(hr.bases_persisted, 1u);
  EXPECT_EQ(hr.barriers_dropped, coord.barriers_dropped());
  EXPECT_EQ(hr.deltas_persisted, coord.deltas_persisted());
}

TEST(CheckpointedPipeline, ReportCarriesHealthyState) {
  const std::string dir = TempDir("health_pipeline_ok");
  VectorSource src(MakeStream(512));
  auto op = Factory()();
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointCoordinator coord({.directory = dir, .prefix = "h"});
  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(rep.checkpoints, 0u);
  EXPECT_EQ(rep.health.health, CheckpointHealth::kHealthy);
  EXPECT_FALSE(rep.health.Degraded());
  EXPECT_EQ(rep.health.persist_failures, 0u);
  EXPECT_EQ(rep.health.bases_persisted, rep.checkpoints);
}

TEST(CheckpointedPipeline, ReportCarriesTerminalFailure) {
  const std::string dir = TempDir("health_pipeline_fail");
  VectorSource src(MakeStream(512));
  auto op = Factory()();
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "h";
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 2;
  CheckpointCoordinator coord(copts);
  coord.SetPersistFailureHook([](uint64_t, bool) { return true; });

  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  // The stream itself completes; only persistence degraded.
  EXPECT_EQ(rep.tuples, 512u);
  EXPECT_GT(rep.results, 0u);
  EXPECT_EQ(rep.checkpoints, 0u);
  EXPECT_EQ(rep.health.health, CheckpointHealth::kFailed);
  EXPECT_TRUE(rep.health.Degraded());
  EXPECT_GE(rep.health.persist_failures, 2u);
  EXPECT_EQ(rep.health.bases_persisted, 0u);
}

TEST(CheckpointedPipeline, AsyncFailuresVisibleAfterFlush) {
  // Async mode: failures happen on the background persist thread; the
  // report's health must still reflect them because it is sampled after the
  // coordinator flush.
  const std::string dir = TempDir("health_pipeline_async");
  VectorSource src(MakeStream(512));
  auto op = Factory()();
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "h";
  copts.async = true;
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 100;  // stay out of terminal kFailed
  CheckpointCoordinator coord(copts);
  coord.SetPersistFailureHook([](uint64_t, bool) { return true; });

  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.tuples, 512u);
  EXPECT_TRUE(rep.health.Degraded());
  EXPECT_GT(rep.health.persist_failures + rep.health.barriers_dropped, 0u);
  EXPECT_EQ(rep.health.bases_persisted, 0u);
}

TEST(CheckpointHealthTransitions, RecoversJustBelowEscalationThreshold) {
  // kHealthy -> kDegraded -> kHealthy: exactly max_consecutive_failures - 1
  // injected failures, then a success. The streak must reset without ever
  // touching terminal kFailed.
  const std::string dir = TempDir("health_edge_recover");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "r";
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 3;
  CheckpointCoordinator coord(copts);
  std::atomic<int> failures_left{2};
  coord.SetPersistFailureHook(
      [&](uint64_t, bool) { return failures_left.fetch_sub(1) > 0; });

  auto op = Factory()();
  for (int i = 0; i < 30; ++i) op->ProcessTuple(T(i * 3, i));
  op->ProcessWatermark(50);
  op->TakeResults();
  state::CheckpointMetadata meta;

  EXPECT_EQ(coord.health(), CheckpointHealth::kHealthy);
  EXPECT_TRUE(coord.OnBarrier(*op, meta).empty());
  EXPECT_EQ(coord.health(), CheckpointHealth::kDegraded);
  EXPECT_TRUE(coord.OnBarrier(*op, meta).empty());
  EXPECT_EQ(coord.health(), CheckpointHealth::kDegraded);  // 2 < 3: no kFailed
  EXPECT_FALSE(coord.OnBarrier(*op, meta).empty());
  EXPECT_EQ(coord.health(), CheckpointHealth::kHealthy);
  EXPECT_EQ(coord.persist_failures(), 2u);
  EXPECT_EQ(coord.HealthReport().mode_fallbacks, 0u);  // opt-in only
}

TEST(CheckpointHealthTransitions, EscalatesToFailedAndAbandonIsSafe) {
  // kDegraded -> kFailed at the escalation threshold without auto_fallback,
  // with the async persist thread doing the counting; Abandon() must then
  // shut the coordinator down cleanly with work still queued.
  const std::string dir = TempDir("health_edge_escalate");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "e";
  copts.async = true;
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 2;
  CheckpointCoordinator coord(copts);
  coord.SetPersistFailureHook([](uint64_t, bool) { return true; });

  auto op = Factory()();
  for (int i = 0; i < 30; ++i) op->ProcessTuple(T(i * 3, i));
  op->ProcessWatermark(50);
  op->TakeResults();
  state::CheckpointMetadata meta;

  coord.OnBarrier(*op, meta);
  coord.Flush();
  EXPECT_EQ(coord.health(), CheckpointHealth::kDegraded);
  coord.OnBarrier(*op, meta);
  coord.Flush();
  EXPECT_EQ(coord.health(), CheckpointHealth::kFailed);
  // Without the auto_fallback opt-in the ladder never moves.
  const CheckpointHealthReport hr = coord.HealthReport();
  EXPECT_EQ(hr.mode, coord.configured_persistence_mode());
  EXPECT_EQ(hr.mode_fallbacks, 0u);
  EXPECT_FALSE(hr.alarm);

  coord.OnBarrier(*op, meta);  // possibly in flight at shutdown
  coord.Abandon();             // must not deadlock against pending work
  EXPECT_EQ(coord.health(), CheckpointHealth::kFailed);
}

TEST(CheckpointLadder, FallsBackThroughModesAndPromotesBack) {
  // The auto-fallback ladder end to end on a deterministic (synchronous)
  // coordinator: two consecutive failures per rung walk async-incremental
  // -> async-full -> sync-full -> off (alarm), health saturating at
  // kDegraded; once faults clear, every off-rung barrier probes
  // (off_probe_every = 1) and two successes per rung promote all the way
  // back to the configured mode.
  const std::string dir = TempDir("ladder_roundtrip");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "l";
  copts.incremental = true;
  copts.full_snapshot_every = 4;
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 2;
  copts.auto_fallback = true;
  copts.promote_after = 2;
  copts.off_probe_every = 1;
  CheckpointCoordinator coord(copts);
  ASSERT_EQ(coord.configured_persistence_mode(),
            CheckpointPersistenceMode::kAsyncIncremental);
  std::atomic<bool> failing{true};
  coord.SetPersistFailureHook([&](uint64_t, bool) { return failing.load(); });

  auto op = Factory()();
  for (int i = 0; i < 30; ++i) op->ProcessTuple(T(i * 3, i));
  op->ProcessWatermark(50);
  op->TakeResults();
  state::CheckpointMetadata meta;

  for (int i = 0; i < 6; ++i) EXPECT_TRUE(coord.OnBarrier(*op, meta).empty());
  CheckpointHealthReport hr = coord.HealthReport();
  EXPECT_EQ(hr.mode, CheckpointPersistenceMode::kOff);
  EXPECT_TRUE(hr.alarm);
  EXPECT_EQ(hr.mode_fallbacks, 3u);
  EXPECT_EQ(hr.health, CheckpointHealth::kDegraded);  // never terminal

  failing = false;
  int persisted = 0;
  for (int i = 0; i < 6; ++i) {
    if (!coord.OnBarrier(*op, meta).empty()) ++persisted;
  }
  hr = coord.HealthReport();
  EXPECT_EQ(hr.mode, CheckpointPersistenceMode::kAsyncIncremental);
  EXPECT_EQ(hr.configured_mode, CheckpointPersistenceMode::kAsyncIncremental);
  EXPECT_FALSE(hr.alarm);
  EXPECT_EQ(hr.mode_promotions, 3u);
  EXPECT_EQ(hr.health, CheckpointHealth::kHealthy);
  EXPECT_GT(persisted, 0);
}

TEST(CheckpointLadder, DemotedSyncFullBarrierReportsItsOwnFailure) {
  // An async coordinator demoted to the sync-full rung waits on every
  // barrier, and a barrier that waited returns its path only if it became
  // durable. Here the barrier's own failure demotes the ladder once more
  // (to off): that must neither skip the wait nor read as a success.
  const std::string dir = TempDir("ladder_sync_full_fail");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "b";
  copts.async = true;
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 1;
  copts.auto_fallback = true;
  CheckpointCoordinator coord(copts);
  coord.SetPersistFailureHook([](uint64_t, bool) { return true; });

  auto op = Factory()();
  for (int i = 0; i < 30; ++i) op->ProcessTuple(T(i * 3, i));
  op->ProcessWatermark(50);
  op->TakeResults();
  state::CheckpointMetadata meta;

  EXPECT_FALSE(coord.OnBarrier(*op, meta).empty());  // queued, no wait
  coord.Flush();
  ASSERT_EQ(coord.persistence_mode(), CheckpointPersistenceMode::kSyncFull);
  EXPECT_TRUE(coord.OnBarrier(*op, meta).empty());
  EXPECT_EQ(coord.persistence_mode(), CheckpointPersistenceMode::kOff);
  EXPECT_EQ(coord.persist_failures(), 2u);
  EXPECT_EQ(coord.bases_persisted(), 0u);
}

TEST(ParallelPipeline, ReportCarriesCheckpointHealth) {
  const std::string dir = TempDir("health_parallel");
  PipelineOptions popts;
  popts.watermark_every = 128;
  popts.watermark_delay = 20;

  {
    VectorSource src(MakeStream(1024));
    ParallelExecutor exec(3, Factory());
    CheckpointCoordinator coord({.directory = dir, .prefix = "p"});
    const PipelineReport rep = RunPipeline(src, exec, 1024, popts, &coord);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_GT(rep.checkpoints, 0u);
    EXPECT_EQ(rep.health.health, CheckpointHealth::kHealthy);
    EXPECT_EQ(rep.health.bases_persisted, rep.checkpoints);
  }
  {
    VectorSource src(MakeStream(1024));
    ParallelExecutor exec(3, Factory());
    CheckpointOptions copts;
    copts.directory = dir;
    copts.prefix = "pf";
    copts.max_retries = 0;
    copts.retry_backoff_ms = 0;
    copts.max_consecutive_failures = 100;
    CheckpointCoordinator coord(copts);
    coord.SetPersistFailureHook([](uint64_t, bool) { return true; });
    const PipelineReport rep = RunPipeline(src, exec, 1024, popts, &coord);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.checkpoints, 0u);
    EXPECT_TRUE(rep.health.Degraded());
    EXPECT_GT(rep.health.persist_failures, 0u);
  }
  {
    // No coordinator: the embedded health stays default-healthy.
    VectorSource src(MakeStream(256));
    ParallelExecutor exec(3, Factory());
    const PipelineReport rep = RunPipeline(src, exec, 256, popts);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.health.health, CheckpointHealth::kHealthy);
    EXPECT_EQ(rep.health.persist_failures, 0u);
  }
}

}  // namespace
}  // namespace scotty
