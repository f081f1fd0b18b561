// Crash-consistency machinery around the snapshot subsystem: snapshot file
// retention, newest-valid recovery with fallback past damaged files,
// batched-vs-per-tuple snapshot file identity, parallel-executor snapshot
// barriers and resume, the pipeline driver's error paths, and the fault
// injector itself.

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"
#include "runtime/pipeline.h"
#include "state/snapshot.h"
#include "testing/fault_injector.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

namespace fs = std::filesystem;

using testing::ApplySnapshotFault;
using testing::CrashRunStats;
using testing::FaultPlan;
using testing::MakeFaultPlan;
using testing::RunToFinalResultsCrashRecovered;
using testing::SnapshotFault;
using testutil::ResultKey;
using testutil::RunToFinalResults;
using testutil::T;

std::string TempDir(const std::string& leaf) {
  // Suffix with the running test's name: ctest schedules gtest cases from this
  // binary concurrently, and two tests sharing a literal leaf (e.g. the
  // FaultInjector crash-run tests) would otherwise race on remove_all.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string unique =
      info ? leaf + "_" + info->test_suite_name() + "_" + info->name() : leaf;
  const fs::path dir = fs::path(::testing::TempDir()) / unique;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Replayable in-memory source: every instance yields the same tuples, so a
/// "restarted process" can be modeled by constructing a fresh one.
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

/// Wraps a source and throws once `fail_at` tuples were read: a process
/// dying mid-stream, which RunPipeline must report without leaking worker
/// threads or in-flight persists.
class FailingSource : public TupleSource {
 public:
  FailingSource(TupleSource* inner, uint64_t fail_at)
      : inner_(inner), fail_at_(fail_at) {}
  bool Next(Tuple* out) override {
    if (read_ == fail_at_) throw std::runtime_error("source failed");
    ++read_;
    return inner_->Next(out);
  }

 private:
  TupleSource* inner_;
  uint64_t fail_at_;
  uint64_t read_ = 0;
};

std::vector<Tuple> MakeStream(size_t n) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Time ts = static_cast<Time>(i * 2);
    if (i % 13 == 0) ts += 9;  // mild disorder within a bounded delay
    out.push_back(T(ts, 0.25 * static_cast<double>(i % 31) - 2.0,
                    /*seq=*/0, static_cast<int64_t>(i % 7)));
  }
  return out;
}

OperatorFactory SlicingFactory() {
  return [] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 1000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("median"));  // holistic partials
    op->AddWindow(std::make_shared<TumblingWindow>(50));
    op->AddWindow(std::make_shared<SlidingWindow>(80, 30));
    op->AddWindow(std::make_shared<SessionWindow>(8));
    return op;
  };
}

// ---------------------------------------------------------------------------
// Retention.

TEST(CheckpointRetention, KeepsOnlyNewestFiles) {
  const std::string dir = TempDir("retention");
  VectorSource src(MakeStream(512));
  auto op = SlicingFactory()();
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointCoordinator coord({.directory = dir, .prefix = "r", .retain = 2});
  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  ASSERT_EQ(rep.checkpoints, 8u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(fs::exists(dir + "/r-" + std::to_string(i) + ".snap")) << i;
  }
  EXPECT_TRUE(fs::exists(dir + "/r-6.snap"));
  EXPECT_TRUE(fs::exists(dir + "/r-7.snap"));
}

TEST(CheckpointRetention, ZeroKeepsEverything) {
  const std::string dir = TempDir("retention_all");
  VectorSource src(MakeStream(512));
  auto op = SlicingFactory()();
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointCoordinator coord({.directory = dir, .prefix = "r", .retain = 0});
  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(fs::exists(dir + "/r-" + std::to_string(i) + ".snap")) << i;
  }
}

// ---------------------------------------------------------------------------
// Newest-valid recovery with fallback.

TEST(RecoverNewestValid, ListsSortsAndFiltersSnapshotFiles) {
  const std::string dir = TempDir("listing");
  const std::vector<uint8_t> blob = {1, 2, 3};
  for (int i : {0, 2, 10}) {
    ASSERT_TRUE(state::WriteSnapshotFile(
        dir + "/s-" + std::to_string(i) + ".snap", blob));
  }
  // Foreign names and leftover temp files must be ignored.
  ASSERT_TRUE(state::WriteSnapshotFile(dir + "/other-3.snap", blob));
  ASSERT_TRUE(state::WriteSnapshotFile(dir + "/s-4.snap.tmp", blob));
  ASSERT_TRUE(state::WriteSnapshotFile(dir + "/s-x.snap", blob));
  const std::vector<std::string> got = ListSnapshots(dir, "s");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].ends_with("s-10.snap"));
  EXPECT_TRUE(got[1].ends_with("s-2.snap"));
  EXPECT_TRUE(got[2].ends_with("s-0.snap"));
}

struct RecoverySetup {
  std::string dir;
  std::vector<std::string> snaps;  // newest first
};

/// Runs a checkpointed pipeline that leaves several snapshot files behind.
RecoverySetup MakeSnapshots(const std::string& leaf) {
  RecoverySetup setup;
  setup.dir = TempDir(leaf);
  VectorSource src(MakeStream(512));
  auto op = SlicingFactory()();
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointCoordinator coord(
      {.directory = setup.dir, .prefix = "ckpt", .retain = 3});
  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  EXPECT_TRUE(rep.ok) << rep.error;
  setup.snaps = ListSnapshots(setup.dir, "ckpt");
  return setup;
}

TEST(RecoverNewestValid, PicksNewestWhenAllIntact) {
  const RecoverySetup setup = MakeSnapshots("recover_intact");
  ASSERT_EQ(setup.snaps.size(), 3u);
  RecoveredOperator rec =
      RecoverNewestValid(setup.dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_FALSE(rec.fell_back);
  EXPECT_EQ(rec.path_used, setup.snaps.front());
  EXPECT_EQ(rec.candidates, 3u);
  EXPECT_EQ(rec.restored.meta.barrier_index, 7u);
}

TEST(RecoverNewestValid, FallsBackPastTornNewest) {
  const RecoverySetup setup = MakeSnapshots("recover_torn");
  ASSERT_EQ(setup.snaps.size(), 3u);
  // Tear the newest file to half its size — a torn write.
  fs::resize_file(setup.snaps[0], fs::file_size(setup.snaps[0]) / 2);
  RecoveredOperator rec =
      RecoverNewestValid(setup.dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_TRUE(rec.fell_back);
  EXPECT_EQ(rec.path_used, setup.snaps[1]);
  EXPECT_EQ(rec.restored.meta.barrier_index, 6u);
}

TEST(RecoverNewestValid, FallsBackPastTwoDamagedFiles) {
  const RecoverySetup setup = MakeSnapshots("recover_two");
  ASSERT_EQ(setup.snaps.size(), 3u);
  fs::resize_file(setup.snaps[0], 5);
  FaultPlan flip;
  flip.fault = SnapshotFault::kBitFlip;
  flip.fault_arg = 40;  // somewhere in the payload
  ASSERT_TRUE(ApplySnapshotFault(setup.snaps[1], flip));
  RecoveredOperator rec =
      RecoverNewestValid(setup.dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_TRUE(rec.fell_back);
  EXPECT_EQ(rec.path_used, setup.snaps[2]);
}

TEST(RecoverNewestValid, FailsWhenNothingValidates) {
  const RecoverySetup setup = MakeSnapshots("recover_none");
  for (const std::string& p : setup.snaps) fs::resize_file(p, 3);
  RecoveredOperator rec =
      RecoverNewestValid(setup.dir, "ckpt", SlicingFactory());
  EXPECT_FALSE(rec.restored.ok);
  EXPECT_EQ(rec.candidates, 3u);
  EXPECT_TRUE(rec.fell_back);

  RecoveredOperator empty =
      RecoverNewestValid(TempDir("recover_empty"), "ckpt", SlicingFactory());
  EXPECT_FALSE(empty.restored.ok);
  EXPECT_EQ(empty.candidates, 0u);
}

TEST(RecoverNewestValid, RunPipelineResumesPastDamage) {
  const RecoverySetup setup = MakeSnapshots("recover_pipeline");
  ASSERT_EQ(setup.snaps.size(), 3u);
  fs::resize_file(setup.snaps[0], fs::file_size(setup.snaps[0]) - 7);
  RecoveredOperator rec =
      RecoverNewestValid(setup.dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_TRUE(rec.fell_back);
  EXPECT_EQ(rec.path_used, setup.snaps[1]);
  VectorSource src(MakeStream(512));
  PipelineOptions popts;
  popts.watermark_every = 64;
  popts.watermark_delay = 20;
  CheckpointCoordinator coord(
      {.directory = setup.dir, .prefix = "resumed", .retain = 0});
  const PipelineReport rep =
      RunPipeline(src, *rec.restored.op, 512, popts, &coord, nullptr,
                  rec.restored.meta);
  ASSERT_TRUE(rep.ok) << rep.error;
  // Snapshot 6 covers 7 barriers' worth of tuples (offset 448): 64 remain,
  // and their one barrier is numbered after the restored one.
  EXPECT_EQ(rep.tuples, 512u - 448u);
  EXPECT_TRUE(rep.last_checkpoint.ends_with("resumed-7.snap"))
      << rep.last_checkpoint;
}

// ---------------------------------------------------------------------------
// Batched and per-tuple pipeline runs persist identical bytes.

TEST(CheckpointBatched, SnapshotFilesBitIdenticalAcrossInterleavings) {
  const std::vector<Tuple> stream = MakeStream(640);
  PipelineOptions base;
  base.watermark_every = 64;
  base.watermark_delay = 20;
  // Both targets: a slicing operator, whose blocks the driver stages by
  // PipelineOptions::batch_size, and a 3-worker executor, which stages each
  // worker's tuples by its own Options::batch_size and whose keyed
  // partitions each serialize in their own thread.
  auto run = [&](const std::string& leaf, uint64_t batch, bool executor) {
    const std::string dir = TempDir(leaf);
    VectorSource src(stream);
    PipelineOptions popts = base;
    CheckpointCoordinator coord(
        {.directory = dir, .prefix = "b", .retain = 0});
    PipelineReport rep;
    if (executor) {
      ParallelExecutor::Options eopts;
      eopts.batch_size = batch;
      ParallelExecutor exec(
          3,
          [] {
            return std::make_unique<KeyedWindowOperator>(SlicingFactory());
          },
          eopts);
      rep = RunPipeline(src, exec, stream.size(), popts, &coord);
    } else {
      popts.batch_size = batch;
      auto op = SlicingFactory()();
      rep = RunPipeline(src, *op, stream.size(), popts, &coord);
    }
    EXPECT_TRUE(rep.ok) << rep.error;
    return dir;
  };
  for (const bool executor : {false, true}) {
    const std::string target = executor ? "exec" : "op";
    const std::string per_tuple = run("ckpt_per_tuple_" + target, 0, executor);
    for (uint64_t batch : {uint64_t{7}, uint64_t{64}, uint64_t{1000}}) {
      const std::string batched = run(
          "ckpt_batch_" + target + std::to_string(batch), batch, executor);
      const std::vector<std::string> a = ListSnapshots(per_tuple, "b");
      const std::vector<std::string> b = ListSnapshots(batched, "b");
      ASSERT_EQ(a.size(), b.size()) << target << " batch=" << batch;
      ASSERT_EQ(a.size(), 10u);
      for (size_t i = 0; i < a.size(); ++i) {
        std::vector<uint8_t> ba, bb;
        ASSERT_TRUE(state::ReadSnapshotFile(a[i], &ba));
        ASSERT_TRUE(state::ReadSnapshotFile(b[i], &bb));
        EXPECT_EQ(ba, bb) << target << " batch=" << batch << " file " << a[i];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel executor: snapshot barrier + restore.

std::function<std::unique_ptr<WindowOperator>()> ParallelFactory() {
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

TEST(ParallelSnapshot, BarrierPlusRestoreLosesAndDuplicatesNothing) {
  const std::vector<Tuple> stream = MakeStream(2048);
  constexpr size_t kWorkers = 4;
  constexpr uint64_t kWmEvery = 256;
  constexpr uint64_t kCut = 1024;
  auto feed = [&](ParallelExecutor& exec, size_t from, size_t to) {
    Time max_ts = kNoTime;
    for (size_t i = 0; i < to; ++i) {
      // Walk the prefix for max_ts continuity, but only push [from, to).
      max_ts = std::max(max_ts, stream[i].ts);
      if (i < from) continue;
      Tuple t = stream[i];
      t.seq = i;
      exec.Push(t);
      if ((i + 1) % kWmEvery == 0) exec.PushWatermark(max_ts - 20);
    }
    if (to == stream.size()) exec.PushWatermark(max_ts + 100);
  };

  // Uninterrupted run.
  ParallelExecutor full(kWorkers, ParallelFactory());
  full.Start();
  feed(full, 0, stream.size());
  full.Finish();

  // Interrupted run: barrier at the kCut watermark, then "crash".
  CheckpointCoordinator coord({.directory = TempDir("par_barrier")});
  ParallelExecutor head(kWorkers, ParallelFactory());
  head.Start();
  feed(head, 0, kCut);
  const std::string path = coord.OnBarrier(head, {});
  ASSERT_FALSE(path.empty());
  head.Finish();

  // Restore onto a fresh executor and replay the remainder.
  RestoredOperator restored = RestoreOperator(
      path, PartitionedOperator::Factory(kWorkers, ParallelFactory()));
  ASSERT_TRUE(restored.ok) << restored.error;
  ParallelExecutor tail(std::move(restored.op), ParallelExecutor::Options{});
  EXPECT_EQ(tail.num_workers(), kWorkers);
  tail.Start();
  feed(tail, kCut, stream.size());
  tail.Finish();

  EXPECT_GT(full.TotalResults(), 0u);
  EXPECT_EQ(head.TotalResults() + tail.TotalResults(), full.TotalResults());
}

TEST(ParallelSnapshot, RestoreRejectsMismatchAndGarbage) {
  const std::string dir = TempDir("par_reject");
  CheckpointCoordinator coord({.directory = dir});
  ParallelExecutor src(3, ParallelFactory());
  src.Start();
  src.Push(T(5, 1.0, 0, 1));
  src.PushWatermark(4);
  const std::string path = coord.OnBarrier(src, {});
  ASSERT_FALSE(path.empty());
  src.Finish();
  const RestoredOperator same =
      RestoreOperator(path, PartitionedOperator::Factory(3, ParallelFactory()));
  ASSERT_TRUE(same.ok) << same.error;

  // Non-keyed partitions cannot move to another worker count.
  RestoredOperator wrong_count =
      RestoreOperator(path, PartitionedOperator::Factory(2, ParallelFactory()));
  EXPECT_FALSE(wrong_count.ok);
  EXPECT_NE(wrong_count.error.find("decode failed"), std::string::npos)
      << wrong_count.error;

  // A valid container around a torn or foreign parallel state.
  std::vector<uint8_t> file;
  state::CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> blob;
  ASSERT_TRUE(state::ReadSnapshotFile(path, &file));
  ASSERT_TRUE(state::ParseSnapshot(file, &meta, &name, &blob));
  const std::vector<uint8_t> cut(blob.begin(), blob.begin() + blob.size() / 2);
  for (const std::vector<uint8_t>& bad :
       {cut, std::vector<uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}}) {
    const std::string bad_path = dir + "/bad.snap";
    ASSERT_TRUE(state::WriteSnapshotFile(
        bad_path, state::BuildSnapshot(meta, name, bad)));
    RestoredOperator r = RestoreOperator(
        bad_path, PartitionedOperator::Factory(3, ParallelFactory()));
    EXPECT_FALSE(r.ok);
    // A rejected restore hands back no half-restored operator.
    EXPECT_EQ(r.op, nullptr);
  }
}

OperatorFactory KeyedParallelFactory() {
  return [] {
    return std::make_unique<KeyedWindowOperator>(ParallelFactory());
  };
}

TEST(ParallelSnapshot, RecoveredExecutorMatchesUninterrupted) {
  // Keys arrive in bursts, so some stay idle across barriers and the
  // incremental chain carries key references.
  std::vector<Tuple> stream = MakeStream(3000);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = static_cast<int64_t>((i / 50) % 9);
    stream[i].seq = i;
  }
  PipelineOptions popts;
  popts.watermark_every = 128;
  popts.watermark_delay = 20;
  constexpr uint64_t kStop = 2000;  // mid-stream, between two barriers
  using Results = std::map<testing::KeyedResultKey, Value>;
  auto options_into = [](std::mutex* mu, Results* out) {
    ParallelExecutor::Options o;
    o.result_sink = [mu, out](const std::vector<WindowResult>& rs) {
      std::lock_guard<std::mutex> lk(*mu);
      for (const WindowResult& r : rs) {
        (*out)[{r.key, r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    };
    return o;
  };

  std::mutex mu;
  Results expected;
  {
    VectorSource src(stream);
    ParallelExecutor full(3, KeyedParallelFactory(),
                          options_into(&mu, &expected));
    const PipelineReport rep = RunPipeline(src, full, stream.size(), popts);
    ASSERT_TRUE(rep.ok) << rep.error;
  }
  ASSERT_FALSE(expected.empty());

  // The head dies at kStop: its source throws, so no final watermark
  // closes the stream, and every barrier before the cut is on disk.
  const std::string dir = TempDir("par_recover");
  Results got;
  {
    CheckpointCoordinator coord({.directory = dir,
                                 .prefix = "par",
                                 .incremental = true,
                                 .full_snapshot_every = 4});
    VectorSource inner(stream);
    FailingSource src(&inner, kStop);
    ParallelExecutor head(3, KeyedParallelFactory(), options_into(&mu, &got));
    const PipelineReport rep =
        RunPipeline(src, head, stream.size(), popts, &coord);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.tuples, kStop);
    EXPECT_EQ(rep.checkpoints, kStop / popts.watermark_every);
  }

  RecoveredOperator rec = RecoverNewestValid(
      dir, "par", PartitionedOperator::Factory(2, KeyedParallelFactory()));
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_GT(rec.restored.deltas_applied, 0u);
  EXPECT_FALSE(rec.restored.delta_tail_rejected);
  const state::CheckpointMetadata resume = rec.restored.meta;
  ASSERT_LT(resume.source_offset, kStop);
  {
    VectorSource src(stream);
    ParallelExecutor tail(std::move(rec.restored.op), options_into(&mu, &got));
    EXPECT_EQ(tail.num_workers(), 2u);
    const PipelineReport rep =
        RunPipeline(src, tail, stream.size(), popts, nullptr, resume);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.tuples, stream.size() - resume.source_offset);
  }
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Pipeline driver error paths.

TEST(PipelineDriver, CleanExecutorRunReportsOk) {
  VectorSource src(MakeStream(1000));
  ParallelExecutor exec(3, ParallelFactory());
  PipelineOptions popts;
  popts.watermark_every = 128;
  popts.watermark_delay = 20;
  const PipelineReport rep = RunPipeline(src, exec, 1000, popts);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.tuples, 1000u);
  EXPECT_GT(rep.results, 0u);
}

TEST(PipelineDriver, ThrowingSourceStillJoinsWorkers) {
  // Both targets report a failing source as ok = false after flushing the
  // coordinator; the executor also joined every worker.
  const std::string dir = TempDir("throwing");
  PipelineOptions popts;
  popts.watermark_every = 128;
  popts.watermark_delay = 20;
  auto check = [](const PipelineReport& rep) {
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.error.find("source failed"), std::string::npos)
        << rep.error;
    EXPECT_EQ(rep.tuples, 300u);
    EXPECT_GT(rep.results, 0u);
    // The async barriers at tuples 128 and 256 were persisted by the
    // flush before RunPipeline returned.
    EXPECT_EQ(rep.checkpoints, 2u);
    EXPECT_EQ(rep.health.bases_persisted, 2u);
  };
  {
    VectorSource inner(MakeStream(1000));
    FailingSource src(&inner, 300);
    auto op = ParallelFactory()();
    CheckpointCoordinator coord(
        {.directory = dir, .prefix = "op", .async = true});
    check(RunPipeline(src, *op, 1000, popts, &coord));
  }
  {
    VectorSource inner(MakeStream(1000));
    FailingSource src(&inner, 300);
    ParallelExecutor exec(3, ParallelFactory());
    CheckpointCoordinator coord(
        {.directory = dir, .prefix = "exec", .async = true});
    check(RunPipeline(src, exec, 1000, popts, &coord));
    // The workers were joined: the executor can be destroyed safely and the
    // tuples pushed before the failure were fully processed.
    EXPECT_GT(exec.TotalResults(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Fault injector.

TEST(FaultInjector, PlanIsDeterministicAndInRange) {
  const FaultPlan a = MakeFaultPlan(77, 500);
  const FaultPlan b = MakeFaultPlan(77, 500);
  EXPECT_EQ(a.crash_index, b.crash_index);
  EXPECT_EQ(a.fault, b.fault);
  EXPECT_EQ(a.fault_arg, b.fault_arg);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan p = MakeFaultPlan(seed, 500);
    EXPECT_GE(p.crash_index, 1u);
    EXPECT_LE(p.crash_index, 500u);
  }
}

TEST(FaultInjector, TruncateAndBitFlipDamageTheFile) {
  const std::string dir = TempDir("fault_files");
  const std::string path = dir + "/f.snap";
  const std::vector<uint8_t> blob(256, 0x5A);
  ASSERT_TRUE(state::WriteSnapshotFile(path, blob));

  FaultPlan none;
  none.fault = SnapshotFault::kNone;
  ASSERT_TRUE(ApplySnapshotFault(path, none));
  EXPECT_EQ(fs::file_size(path), 256u);

  FaultPlan flip;
  flip.fault = SnapshotFault::kBitFlip;
  flip.fault_arg = 100;
  ASSERT_TRUE(ApplySnapshotFault(path, flip));
  EXPECT_EQ(fs::file_size(path), 256u);
  std::vector<uint8_t> back;
  ASSERT_TRUE(state::ReadSnapshotFile(path, &back));
  size_t diffs = 0;
  for (size_t i = 0; i < back.size(); ++i) diffs += back[i] != 0x5A;
  EXPECT_EQ(diffs, 1u);

  FaultPlan cut;
  cut.fault = SnapshotFault::kTruncate;
  cut.fault_arg = 100;
  ASSERT_TRUE(ApplySnapshotFault(path, cut));
  EXPECT_EQ(fs::file_size(path), 100u);
}

void ExpectCrashRecoveredMatches(const FaultPlan& plan, int wm_every,
                                 CrashRunStats* stats) {
  const std::vector<Tuple> stream = MakeStream(400);
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;
  const Time wm_lag = 20;
  const OperatorFactory factory = SlicingFactory();

  std::unique_ptr<WindowOperator> plain = factory();
  const auto expected =
      RunToFinalResults(*plain, stream, final_wm, wm_every, wm_lag);

  std::map<ResultKey, Value> got;
  std::string err;
  ASSERT_TRUE(RunToFinalResultsCrashRecovered(
      factory, stream, final_wm, wm_every, wm_lag, plan,
      TempDir("crash_run"), &got, &err, stats))
      << err;
  EXPECT_EQ(got, expected);
}

TEST(FaultInjector, CrashWithoutFaultRecoversFromNewest) {
  FaultPlan plan;
  plan.crash_index = 300;
  plan.fault = SnapshotFault::kNone;
  CrashRunStats stats;
  ExpectCrashRecoveredMatches(plan, /*wm_every=*/32, &stats);
  EXPECT_GT(stats.barriers, 0u);
  EXPECT_FALSE(stats.recovered_from_scratch);
  EXPECT_FALSE(stats.fell_back);
}

TEST(FaultInjector, TornNewestFallsBackAndStillMatches) {
  FaultPlan plan;
  plan.crash_index = 300;
  plan.fault = SnapshotFault::kTruncate;
  plan.fault_arg = 33;
  CrashRunStats stats;
  ExpectCrashRecoveredMatches(plan, /*wm_every=*/32, &stats);
  EXPECT_FALSE(stats.recovered_from_scratch);
  EXPECT_TRUE(stats.fell_back);
}

TEST(FaultInjector, CorruptNewestFallsBackAndStillMatches) {
  FaultPlan plan;
  plan.crash_index = 390;
  plan.fault = SnapshotFault::kBitFlip;
  plan.fault_arg = 0xAB00000000000123ULL;
  CrashRunStats stats;
  ExpectCrashRecoveredMatches(plan, /*wm_every=*/32, &stats);
  EXPECT_FALSE(stats.recovered_from_scratch);
  EXPECT_TRUE(stats.fell_back);
}

TEST(FaultInjector, CrashBeforeAnyBarrierReplaysFromScratch) {
  FaultPlan plan;
  plan.crash_index = 10;  // before the first wm_every=32 barrier
  plan.fault = SnapshotFault::kNone;
  CrashRunStats stats;
  ExpectCrashRecoveredMatches(plan, /*wm_every=*/32, &stats);
  EXPECT_EQ(stats.barriers, 0u);
  EXPECT_TRUE(stats.recovered_from_scratch);
}

TEST(FaultInjector, SingleSnapshotDamagedReplaysFromScratch) {
  FaultPlan plan;
  plan.crash_index = 40;  // exactly one barrier (at 32) has fired
  plan.fault = SnapshotFault::kTruncate;
  plan.fault_arg = 20;
  CrashRunStats stats;
  ExpectCrashRecoveredMatches(plan, /*wm_every=*/32, &stats);
  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_TRUE(stats.recovered_from_scratch);
}

}  // namespace
}  // namespace scotty
