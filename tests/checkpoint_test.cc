// Checkpoint/restore subsystem (DESIGN.md §7): snapshot container format,
// serde failure modes, per-technique snapshot/restore bit-identity, keyed
// operator restore, pipeline-level restore, and crash injection.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "baselines/buckets.h"
#include "baselines/tuple_buffer.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "runtime/checkpoint.h"
#include "runtime/keyed_operator.h"
#include "runtime/pipeline.h"
#include "state/snapshot.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

namespace fs = std::filesystem;

using state::BuildSnapshot;
using state::CheckpointMetadata;
using state::ParseSnapshot;
using state::ReadSnapshotFile;
using state::WriteSnapshotFile;
using testutil::FinalResults;
using testutil::ResultKey;
using testutil::RunToFinalResults;
using testutil::T;
using testing::RunToFinalResultsCheckpointed;

std::string TempDir(const std::string& leaf) {
  // Suffix with the running test's name: ctest schedules gtest cases from this
  // binary concurrently, so a shared literal leaf would race on remove_all.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string unique =
      info ? leaf + "_" + info->test_suite_name() + "_" + info->name() : leaf;
  const fs::path dir = fs::path(::testing::TempDir()) / unique;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Serde primitives.

TEST(Serde, RoundTripsEveryPrimitive) {
  state::Writer w;
  w.Tag(0xCAFEF00D);
  w.U8(7);
  w.U32(0xDEADBEEF);
  w.U64(~0ULL);
  w.I64(-42);
  w.F64(-0.0);
  w.Bool(true);
  w.Str("stream slicing");
  state::Reader r(w.bytes());
  r.Tag(0xCAFEF00D);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), ~0ULL);
  EXPECT_EQ(r.I64(), -42);
  const double d = r.F64();
  EXPECT_EQ(std::signbit(d), true);  // -0.0 survives bit-exactly
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "stream slicing");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serde, TagMismatchPoisonsReader) {
  state::Writer w;
  w.Tag(0x11111111);
  w.U64(99);
  state::Reader r(w.bytes());
  r.Tag(0x22222222);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);  // poisoned reads return zero, never throw
}

TEST(Serde, UnderflowLatchesFailure) {
  state::Writer w;
  w.U32(5);
  state::Reader r(w.bytes());
  EXPECT_EQ(r.U64(), 0u);  // only 4 bytes available
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Snapshot container.

std::vector<uint8_t> SampleBlob(CheckpointMetadata* meta_out = nullptr) {
  CheckpointMetadata meta;
  meta.source_offset = 123;
  meta.next_seq = 456;
  meta.max_ts = 789;
  meta.last_wm = 700;
  meta.barrier_index = 3;
  if (meta_out) *meta_out = meta;
  return BuildSnapshot(meta, "slicing-lazy", {1, 2, 3, 4, 5});
}

TEST(SnapshotContainer, RoundTrips) {
  CheckpointMetadata want;
  const std::vector<uint8_t> blob = SampleBlob(&want);
  CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> st;
  ASSERT_TRUE(ParseSnapshot(blob, &meta, &name, &st));
  EXPECT_EQ(meta.source_offset, want.source_offset);
  EXPECT_EQ(meta.next_seq, want.next_seq);
  EXPECT_EQ(meta.max_ts, want.max_ts);
  EXPECT_EQ(meta.last_wm, want.last_wm);
  EXPECT_EQ(meta.barrier_index, want.barrier_index);
  EXPECT_EQ(name, "slicing-lazy");
  EXPECT_EQ(st, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
}

TEST(SnapshotContainer, RejectsBadMagic) {
  std::vector<uint8_t> blob = SampleBlob();
  blob[0] ^= 0xFF;
  CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> st;
  EXPECT_FALSE(ParseSnapshot(blob, &meta, &name, &st));
}

TEST(SnapshotContainer, RejectsFutureVersion) {
  std::vector<uint8_t> blob = SampleBlob();
  blob[8] = static_cast<uint8_t>(state::kSnapshotFormatVersion + 1);
  CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> st;
  EXPECT_FALSE(ParseSnapshot(blob, &meta, &name, &st));
}

TEST(SnapshotContainer, RejectsTruncation) {
  const std::vector<uint8_t> blob = SampleBlob();
  CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> st;
  for (size_t cut : {size_t{0}, size_t{7}, size_t{27}, blob.size() - 1}) {
    std::vector<uint8_t> shorter(blob.begin(), blob.begin() + cut);
    EXPECT_FALSE(ParseSnapshot(shorter, &meta, &name, &st)) << cut;
  }
}

TEST(SnapshotContainer, RejectsPayloadBitFlip) {
  CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> st;
  const std::vector<uint8_t> blob = SampleBlob();
  // Flip one bit in every payload byte position in turn: the checksum must
  // catch each of them.
  for (size_t i = 28; i < blob.size(); ++i) {
    std::vector<uint8_t> bad = blob;
    bad[i] ^= 0x10;
    EXPECT_FALSE(ParseSnapshot(bad, &meta, &name, &st)) << i;
  }
}

TEST(SnapshotContainer, RejectsTrailingGarbage) {
  std::vector<uint8_t> blob = SampleBlob();
  blob.push_back(0xAB);
  CheckpointMetadata meta;
  std::string name;
  std::vector<uint8_t> st;
  EXPECT_FALSE(ParseSnapshot(blob, &meta, &name, &st));
}

TEST(SnapshotContainer, FileRoundTripAndMissingFile) {
  const std::string dir = TempDir("snap_files");
  const std::string path = dir + "/a.snap";
  const std::vector<uint8_t> blob = SampleBlob();
  ASSERT_TRUE(WriteSnapshotFile(path, blob));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // rename cleaned the temp file
  std::vector<uint8_t> back;
  ASSERT_TRUE(ReadSnapshotFile(path, &back));
  EXPECT_EQ(back, blob);
  EXPECT_FALSE(ReadSnapshotFile(dir + "/missing.snap", &back));
}

// ---------------------------------------------------------------------------
// Per-technique snapshot/restore bit-identity.

std::vector<Tuple> MakeStream(bool sorted) {
  std::vector<Tuple> out;
  Time ts = 0;
  for (int i = 0; i < 120; ++i) {
    ts += 1 + (i % 4);
    if (i % 17 == 0) ts += 12;  // gap: closes 7-unit sessions
    Tuple t = T(ts, 0.5 * (i % 23) - 3.0);
    out.push_back(t);
  }
  if (!sorted) {
    // Displace every 5th tuple a bounded distance back in arrival order.
    for (size_t i = 5; i + 1 < out.size(); i += 5) {
      std::swap(out[i], out[i - 3]);
    }
  }
  return out;
}

void AddQueries(GeneralSlicingOperator& op) {
  op.AddAggregation(MakeAggregation("sum"));
  op.AddAggregation(MakeAggregation("median"));  // holistic: retains tuples
  op.AddWindow(std::make_shared<TumblingWindow>(10));
  op.AddWindow(std::make_shared<SlidingWindow>(20, 5));
  op.AddWindow(std::make_shared<SessionWindow>(7));
}

template <typename Op, typename... Args>
std::function<std::unique_ptr<WindowOperator>()> BaselineFactory(
    Args... args) {
  return [args...] {
    auto op = std::make_unique<Op>(args...);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("median"));
    op->AddWindow(std::make_shared<TumblingWindow>(10));
    op->AddWindow(std::make_shared<SlidingWindow>(20, 5));
    op->AddWindow(std::make_shared<SessionWindow>(7));
    return op;
  };
}

void ExpectCheckpointedMatches(
    const std::function<std::unique_ptr<WindowOperator>()>& factory,
    bool sorted, int wm_every) {
  const std::vector<Tuple> stream = MakeStream(sorted);
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;
  const Time wm_lag = 16;

  std::unique_ptr<WindowOperator> plain = factory();
  const auto expected =
      RunToFinalResults(*plain, stream, final_wm, wm_every, wm_lag);

  // Snapshot at the start, in the middle, and near the end.
  for (size_t at : {size_t{1}, stream.size() / 2, stream.size() - 2}) {
    std::map<ResultKey, Value> got;
    std::string err;
    ASSERT_TRUE(RunToFinalResultsCheckpointed(factory, stream, final_wm,
                                              wm_every, wm_lag, at, &got,
                                              &err))
        << err;
    EXPECT_EQ(got, expected) << "checkpoint at " << at;
  }
}

TEST(CheckpointRestore, SlicingLazyBitIdentical) {
  ExpectCheckpointedMatches(
      [] {
        GeneralSlicingOperator::Options o;
        o.allowed_lateness = 64;
        auto op = std::make_unique<GeneralSlicingOperator>(o);
        AddQueries(*op);
        return op;
      },
      /*sorted=*/false, /*wm_every=*/16);
}

TEST(CheckpointRestore, SlicingEagerBitIdentical) {
  ExpectCheckpointedMatches(
      [] {
        GeneralSlicingOperator::Options o;
        o.allowed_lateness = 64;
        o.store_mode = StoreMode::kEager;
        auto op = std::make_unique<GeneralSlicingOperator>(o);
        AddQueries(*op);
        return op;
      },
      /*sorted=*/false, /*wm_every=*/16);
}

TEST(CheckpointRestore, SlicingInOrderBitIdentical) {
  ExpectCheckpointedMatches(
      [] {
        GeneralSlicingOperator::Options o;
        o.stream_in_order = true;
        auto op = std::make_unique<GeneralSlicingOperator>(o);
        AddQueries(*op);
        return op;
      },
      /*sorted=*/true, /*wm_every=*/0);
}

TEST(CheckpointRestore, TupleBufferBitIdentical) {
  ExpectCheckpointedMatches(BaselineFactory<TupleBufferOperator>(false, 64),
                            /*sorted=*/false, /*wm_every=*/16);
}

TEST(CheckpointRestore, AggregateTreeBitIdentical) {
  ExpectCheckpointedMatches(BaselineFactory<TupleBufferOperator>(
                                false, Time{64}, StoreMode::kEager),
                            /*sorted=*/false, /*wm_every=*/16);
}

TEST(CheckpointRestore, BucketsBitIdentical) {
  ExpectCheckpointedMatches(BaselineFactory<BucketsOperator>(
                                false, Time{64},
                                BucketsOperator::BucketKind::kAuto),
                            /*sorted=*/false, /*wm_every=*/16);
}

TEST(CheckpointRestore, TupleBufferModesRejectEachOthersState) {
  // One class writes both baseline formats: each store mode must refuse the
  // other's payload instead of misreading its buffer or tree block.
  auto make = [](StoreMode mode) {
    auto op = std::make_unique<TupleBufferOperator>(false, Time{64}, mode);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<SessionWindow>(7));
    op->AddWindow(std::make_shared<TumblingWindow>(4, Measure::kCount));
    return op;
  };
  const std::vector<Tuple> stream = MakeStream(/*sorted=*/false);
  for (const StoreMode mode : {StoreMode::kLazy, StoreMode::kEager}) {
    auto src = make(mode);
    CheckpointMetadata at;
    testing::Replay(
        stream, stream.size(), /*wm_every=*/16, /*wm_lag=*/16, &at,
        [&](const Tuple& t) { src->ProcessTuple(t); },
        [&](Time wm, const CheckpointMetadata&) {
          src->ProcessWatermark(wm);
        });
    ASSERT_GT(src->BufferedTuples(), 0u);
    state::Writer w;
    src->SerializeState(w);

    auto same = make(mode);
    state::Reader own(w.bytes());
    same->DeserializeState(own);
    EXPECT_TRUE(own.ok() && own.AtEnd()) << src->Name();

    auto other = make(mode == StoreMode::kLazy ? StoreMode::kEager
                                               : StoreMode::kLazy);
    state::Reader r(w.bytes());
    other->DeserializeState(r);
    EXPECT_FALSE(r.ok()) << other->Name() << " read " << src->Name();
  }
}

TEST(CheckpointRestore, RestoreIntoMismatchedQuerySetFails) {
  GeneralSlicingOperator::Options o;
  auto src = std::make_unique<GeneralSlicingOperator>(o);
  AddQueries(*src);
  for (int i = 0; i < 20; ++i) src->ProcessTuple(T(i * 3, i, i));
  state::Writer w;
  src->SerializeState(w);

  // The restore target registered different windows: the fingerprint in the
  // state stream must fail the decode instead of mis-wiring window ids.
  auto dst = std::make_unique<GeneralSlicingOperator>(o);
  dst->AddAggregation(MakeAggregation("sum"));
  dst->AddAggregation(MakeAggregation("median"));
  dst->AddWindow(std::make_shared<TumblingWindow>(99));
  dst->AddWindow(std::make_shared<SlidingWindow>(20, 5));
  dst->AddWindow(std::make_shared<SessionWindow>(7));
  state::Reader r(w.bytes());
  dst->DeserializeState(r);
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Keyed operator restore (per-key operators reconstructed via the factory).

TEST(CheckpointRestore, KeyedOperatorRoundTrips) {
  // Sessions and a median keep one operator per key; tumbling and sliding
  // windows over sum and M4 share one slice stream across keys.
  auto per_key = [] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 64;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    AddQueries(*op);
    return op;
  };
  auto shared = [] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 64;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("m4"));
    op->AddWindow(std::make_shared<TumblingWindow>(10));
    op->AddWindow(std::make_shared<SlidingWindow>(20, 5));
    return op;
  };
  for (const KeyedWindowOperator::Factory& inner :
       {KeyedWindowOperator::Factory(per_key),
        KeyedWindowOperator::Factory(shared)}) {
    using KeyedResult = std::tuple<int64_t, int, int, Time, Time>;
    auto run = [&](size_t checkpoint_at, std::map<KeyedResult, Value>* out) {
      std::vector<Tuple> stream = MakeStream(/*sorted=*/false);
      for (size_t i = 0; i < stream.size(); ++i) {
        stream[i].key = static_cast<int64_t>(i % 5);
      }
      auto op = std::make_unique<KeyedWindowOperator>(inner);
      auto drain = [&] {
        for (const WindowResult& r : op->TakeResults()) {
          (*out)[{r.key, r.window_id, r.agg_id, r.start, r.end}] = r.value;
        }
      };
      Time max_ts = kNoTime;
      for (size_t i = 0; i < stream.size(); ++i) {
        if (i == checkpoint_at && checkpoint_at > 0) {
          state::Writer w;
          op->SerializeState(w);
          op = std::make_unique<KeyedWindowOperator>(inner);
          state::Reader r(w.bytes());
          op->DeserializeState(r);
          ASSERT_TRUE(r.ok());
          ASSERT_TRUE(r.AtEnd());
          state::Writer again;
          op->SerializeState(again);
          ASSERT_EQ(again.bytes(), w.bytes());
        }
        Tuple t = stream[i];
        t.seq = i;
        op->ProcessTuple(t);
        max_ts = std::max(max_ts, t.ts);
        if ((i + 1) % 16 == 0) {
          op->ProcessWatermark(max_ts - 16);
          drain();
        }
      }
      op->ProcessWatermark(max_ts + 100);
      drain();
    };
    std::map<KeyedResult, Value> expected;
    run(0, &expected);
    EXPECT_FALSE(expected.empty());
    for (size_t at : {size_t{17}, size_t{60}, size_t{113}}) {
      std::map<KeyedResult, Value> got;
      run(at, &got);
      EXPECT_EQ(got, expected) << "keyed checkpoint at " << at;
    }
  }

  // Each lane reads only its own layout: a shared-slice state does not
  // restore onto per-key operators, nor the reverse.
  KeyedWindowOperator a(per_key);
  KeyedWindowOperator b(shared);
  ASSERT_FALSE(a.shares_slices());
  ASSERT_TRUE(b.shares_slices());
  for (int i = 0; i < 30; ++i) {
    a.ProcessTuple(T(i * 2, i, static_cast<uint64_t>(i), i % 3));
    b.ProcessTuple(T(i * 2, i, static_cast<uint64_t>(i), i % 3));
  }
  state::Writer wa;
  state::Writer wb;
  a.SerializeState(wa);
  b.SerializeState(wb);
  KeyedWindowOperator onto_shared(shared);
  state::Reader ra(wa.bytes());
  onto_shared.DeserializeState(ra);
  EXPECT_FALSE(ra.ok());
  KeyedWindowOperator onto_per_key(per_key);
  state::Reader rb(wb.bytes());
  onto_per_key.DeserializeState(rb);
  EXPECT_FALSE(rb.ok());
}

// ---------------------------------------------------------------------------
// Pipeline-level checkpointing and restore.

std::function<std::unique_ptr<WindowOperator>()> PipelineFactory() {
  return [] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 2000;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddWindow(std::make_shared<TumblingWindow>(500));
    op->AddWindow(std::make_shared<SessionWindow>(300));
    return op;
  };
}

TEST(CheckpointPipeline, RestoreResumesWithoutLossOrDuplication) {
  const std::string dir = TempDir("ckpt_pipeline");
  PipelineOptions popts;
  popts.watermark_every = 256;
  popts.watermark_delay = 100;
  constexpr uint64_t kTuples = 2000;

  // Uninterrupted checkpointed run: one snapshot per injected watermark.
  SensorStream full_src(SensorStream::Machine());
  auto full_op = PipelineFactory()();
  // retain = 0: this test restores from the FIRST barrier file, which the
  // default retention policy would have pruned.
  CheckpointCoordinator coord(
      {.directory = dir, .prefix = "full", .retain = 0});
  const PipelineReport full =
      RunPipeline(full_src, *full_op, kTuples, popts, &coord);
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.tuples, kTuples);
  ASSERT_EQ(full.checkpoints, kTuples / popts.watermark_every);
  ASSERT_TRUE(fs::exists(full.last_checkpoint));

  // Restore from the FIRST barrier (offset 256) and replay the remainder
  // with a fresh source. Results drained before that barrier plus results
  // of the resumed run must account for every result of the full run —
  // nothing lost, nothing emitted twice.
  RestoredOperator restored =
      RestoreOperator(dir + "/full-0.snap", PipelineFactory());
  ASSERT_TRUE(restored.ok) << restored.error;
  EXPECT_EQ(restored.meta.source_offset, popts.watermark_every);
  EXPECT_EQ(restored.operator_name, "general-slicing-lazy");

  // Count the results the full run drained before the first barrier.
  SensorStream head_src(SensorStream::Machine());
  auto head_op = PipelineFactory()();
  Time max_ts = kNoTime;
  uint64_t head_results = 0;
  for (uint64_t i = 0; i < popts.watermark_every; ++i) {
    Tuple t;
    ASSERT_TRUE(head_src.Next(&t));
    t.seq = i;
    head_op->ProcessTuple(t);
    max_ts = std::max(max_ts, t.ts);
  }
  head_op->ProcessWatermark(max_ts - popts.watermark_delay);
  head_results = head_op->TakeResults().size();

  SensorStream resume_src(SensorStream::Machine());
  CheckpointCoordinator coord2({.directory = dir, .prefix = "resumed"});
  const PipelineReport resumed =
      RunPipeline(resume_src, *restored.op, kTuples, popts, &coord2, nullptr,
                  restored.meta);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.tuples, kTuples - popts.watermark_every);
  EXPECT_EQ(head_results + resumed.results, full.results);
  // The resumed run re-takes every barrier after the restored one, and the
  // barrier index keeps counting from where the snapshot left off.
  EXPECT_EQ(resumed.checkpoints, full.checkpoints - 1);
  EXPECT_TRUE(resumed.last_checkpoint.ends_with(
      "resumed-" + std::to_string(full.checkpoints - 1) + ".snap"))
      << resumed.last_checkpoint;
}

TEST(CheckpointPipeline, RestoreRejectsCorruptFile) {
  const std::string dir = TempDir("ckpt_corrupt");
  SensorStream src(SensorStream::Machine());
  auto op = PipelineFactory()();
  PipelineOptions popts;
  popts.watermark_every = 128;
  CheckpointCoordinator coord({.directory = dir, .prefix = "c", .retain = 0});
  const PipelineReport rep = RunPipeline(src, *op, 512, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  ASSERT_TRUE(fs::exists(dir + "/c-0.snap"));

  // Flip a byte in the payload region: restore must fail cleanly.
  std::vector<uint8_t> blob;
  ASSERT_TRUE(ReadSnapshotFile(dir + "/c-0.snap", &blob));
  blob[blob.size() / 2] ^= 0x40;
  std::ofstream(dir + "/c-0.snap", std::ios::binary)
      .write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  RestoredOperator restored =
      RestoreOperator(dir + "/c-0.snap", PipelineFactory());
  EXPECT_FALSE(restored.ok);
  EXPECT_EQ(restored.op, nullptr);
}

// ---------------------------------------------------------------------------
// Crash injection: SCOTTY_CRASH_AFTER=<n> hard-exits after the n-th
// persisted snapshot; the file on disk is complete and restorable.

TEST(CheckpointCrashDeathTest, ExitsAfterNthCheckpointLeavingValidFile) {
  const std::string dir = TempDir("ckpt_crash");
  PipelineOptions popts;
  popts.watermark_every = 128;
  EXPECT_EXIT(
      {
        setenv("SCOTTY_CRASH_AFTER", "2", 1);
        SensorStream src(SensorStream::Machine());
        auto op = PipelineFactory()();
        CheckpointCoordinator coord({.directory = dir, .prefix = "crash"});
        RunPipeline(src, *op, 4000, popts, &coord);
      },
      ::testing::ExitedWithCode(42), "");
  // The crash happened after the second file was persisted (post-rename):
  // crash-0 and crash-1 exist and are valid, crash-2 was never written.
  EXPECT_TRUE(fs::exists(dir + "/crash-0.snap"));
  ASSERT_TRUE(fs::exists(dir + "/crash-1.snap"));
  EXPECT_FALSE(fs::exists(dir + "/crash-2.snap"));
  RestoredOperator restored =
      RestoreOperator(dir + "/crash-1.snap", PipelineFactory());
  ASSERT_TRUE(restored.ok) << restored.error;
  EXPECT_EQ(restored.meta.source_offset, 2 * popts.watermark_every);
  EXPECT_EQ(restored.meta.barrier_index, 1u);
}

}  // namespace
}  // namespace scotty
