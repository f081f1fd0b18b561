// Incremental/asynchronous checkpointing and rescalable recovery
// (DESIGN.md §7): delta-log segment format, base+delta recovery chains,
// compaction retention, degradation under persist failures, coordinator
// lifecycle/shutdown ordering, and keyed-state re-partitioning onto a
// different worker count.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "runtime/checkpoint.h"
#include "runtime/keyed_operator.h"
#include "runtime/parallel_executor.h"
#include "runtime/pipeline.h"
#include "state/delta_log.h"
#include "state/snapshot.h"
#include "testing/fault_injector.h"
#include "testing/harness.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

namespace fs = std::filesystem;

using state::CheckpointMetadata;
using state::DeltaLogContents;
using state::DeltaLogPath;
using state::DeltaLogPathForSnapshot;
using state::DeltaLogWriter;
using state::ReadDeltaLog;
using testing::KeyedResultKey;
using testing::ResultKey;
using testing::RunToFinalResults;
using testing::T;

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

std::vector<Tuple> MakeStream(int n = 240) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  Time ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += 1 + (i % 3);
    Tuple t = T(ts, 0.5 * (i % 23) - 3.0);
    out.push_back(t);
  }
  for (size_t i = 5; i + 1 < out.size(); i += 5) {
    std::swap(out[i], out[i - 3]);
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

OperatorFactory SlicingFactory(StoreMode mode = StoreMode::kLazy) {
  return [mode] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 64;
    o.store_mode = mode;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    AddQueries(*op);
    return op;
  };
}

/// Tumbling and sliding windows over sum and M4: a query set whose keys
/// share one slice stream in a KeyedWindowOperator.
OperatorFactory SharedSliceFactory() {
  return [] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = 64;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation("sum"));
    op->AddAggregation(MakeAggregation("m4"));
    op->AddWindow(std::make_shared<TumblingWindow>(10));
    op->AddWindow(std::make_shared<SlidingWindow>(20, 5));
    return op;
  };
}

/// Keyed operators over `inner`; the default query set has a session, so
/// it keeps one operator per key.
OperatorFactory KeyedFactory(OperatorFactory inner = SlicingFactory()) {
  return [inner] { return std::make_unique<KeyedWindowOperator>(inner); };
}

size_t FileSize(const std::string& path) {
  return static_cast<size_t>(fs::file_size(path));
}

void TruncateFile(const std::string& path, size_t to) {
  fs::resize_file(path, to);
}

void FlipBit(const std::string& path, size_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  unsigned char byte = 0;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0x10;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Delta-log segment format.

CheckpointMetadata MetaAt(uint64_t barrier) {
  CheckpointMetadata m;
  m.barrier_index = barrier;
  m.source_offset = barrier * 10;
  m.next_seq = barrier * 10;
  m.max_ts = static_cast<Time>(barrier * 100);
  m.last_wm = static_cast<Time>(barrier * 100 - 5);
  return m;
}

std::vector<uint8_t> Payload(uint8_t fill, size_t n = 64) {
  return std::vector<uint8_t>(n, fill);
}

TEST(DeltaLog, RoundTripsEpochChain) {
  const std::string dir = TempDir("dlog_roundtrip");
  const std::string path = DeltaLogPath(dir + "/ckpt", 7);
  DeltaLogWriter w;
  ASSERT_TRUE(w.Open(path, 7));
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.Append(MetaAt(8 + i), "op", Payload(uint8_t(i + 1))));
  }
  ASSERT_TRUE(w.Sync());
  w.Close();

  DeltaLogContents c;
  ASSERT_TRUE(ReadDeltaLog(path, &c));
  EXPECT_EQ(c.base_index, 7u);
  EXPECT_FALSE(c.torn);
  ASSERT_EQ(c.records.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.records[i].meta.barrier_index, 8 + i);
    EXPECT_EQ(c.records[i].operator_name, "op");
    EXPECT_EQ(c.records[i].state, Payload(uint8_t(i + 1)));
  }
}

TEST(DeltaLog, TornTailKeepsValidPrefix) {
  const std::string dir = TempDir("dlog_torn");
  const std::string path = DeltaLogPath(dir + "/ckpt", 0);
  DeltaLogWriter w;
  ASSERT_TRUE(w.Open(path, 0));
  ASSERT_TRUE(w.Append(MetaAt(1), "op", Payload(1)));
  ASSERT_TRUE(w.Append(MetaAt(2), "op", Payload(2)));
  ASSERT_TRUE(w.Sync());
  w.Close();

  TruncateFile(path, FileSize(path) - 13);  // tear into the last record
  DeltaLogContents c;
  ASSERT_TRUE(ReadDeltaLog(path, &c));
  EXPECT_TRUE(c.torn);
  ASSERT_EQ(c.records.size(), 1u);
  EXPECT_EQ(c.records[0].meta.barrier_index, 1u);
}

TEST(DeltaLog, BitFlipInTailRejectsFromThatRecord) {
  const std::string dir = TempDir("dlog_flip");
  const std::string path = DeltaLogPath(dir + "/ckpt", 0);
  DeltaLogWriter w;
  ASSERT_TRUE(w.Open(path, 0));
  ASSERT_TRUE(w.Append(MetaAt(1), "op", Payload(1)));
  const size_t first_record_end = FileSize(path);
  ASSERT_TRUE(w.Append(MetaAt(2), "op", Payload(2)));
  ASSERT_TRUE(w.Sync());
  w.Close();

  FlipBit(path, first_record_end + 30);  // inside the second container
  DeltaLogContents c;
  ASSERT_TRUE(ReadDeltaLog(path, &c));
  EXPECT_TRUE(c.torn);
  ASSERT_EQ(c.records.size(), 1u);
}

TEST(DeltaLog, HeaderDamageRejectsWholeSegment) {
  const std::string dir = TempDir("dlog_header");
  const std::string path = DeltaLogPath(dir + "/ckpt", 3);
  DeltaLogWriter w;
  ASSERT_TRUE(w.Open(path, 3));
  ASSERT_TRUE(w.Append(MetaAt(4), "op", Payload(1)));
  ASSERT_TRUE(w.Sync());
  w.Close();

  FlipBit(path, 14);  // inside the checksummed header fields
  DeltaLogContents c;
  EXPECT_FALSE(ReadDeltaLog(path, &c));
}

TEST(DeltaLog, OutOfEpochRecordStopsTheChain) {
  const std::string dir = TempDir("dlog_epoch");
  const std::string path = DeltaLogPath(dir + "/ckpt", 0);
  DeltaLogWriter w;
  ASSERT_TRUE(w.Open(path, 0));
  ASSERT_TRUE(w.Append(MetaAt(1), "op", Payload(1)));
  // Epoch gap: barrier 2 is missing, 3 must not be applied.
  ASSERT_TRUE(w.Append(MetaAt(3), "op", Payload(3)));
  ASSERT_TRUE(w.Sync());
  w.Close();

  DeltaLogContents c;
  ASSERT_TRUE(ReadDeltaLog(path, &c));
  EXPECT_TRUE(c.torn);
  ASSERT_EQ(c.records.size(), 1u);
  EXPECT_EQ(c.records[0].meta.barrier_index, 1u);
}

TEST(DeltaLog, MissingFileIsAnError) {
  DeltaLogContents c;
  EXPECT_FALSE(ReadDeltaLog("/nonexistent/nothing-0.dlog", &c));
}

// ---------------------------------------------------------------------------
// Incremental chain through the coordinator: run N tuples checkpointing
// deltas, recover base + deltas, replay, compare against the uninterrupted
// run. Exercised per store mode and for the keyed operator.

void ExpectIncrementalChainMatches(const OperatorFactory& factory,
                                   const std::string& leaf, bool async) {
  const std::vector<Tuple> stream = MakeStream();
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;
  const int wm_every = 16;
  const Time wm_lag = 16;

  std::unique_ptr<WindowOperator> plain = factory();
  const auto expected =
      RunToFinalResults(*plain, stream, final_wm, wm_every, wm_lag);

  for (size_t crash_at : {size_t{40}, stream.size() / 2, stream.size() - 3}) {
    testing::FaultPlan plan;
    plan.crash_index = crash_at;
    plan.mode = async ? testing::PersistMode::kAsyncIncremental
                      : testing::PersistMode::kSyncIncremental;
    std::map<ResultKey, Value> got;
    std::string err;
    testing::CrashRunStats stats;
    ASSERT_TRUE(testing::RunToFinalResultsCrashRecovered(
        factory, stream, final_wm, wm_every, wm_lag, plan, TempDir(leaf),
        &got, &err, &stats))
        << err;
    EXPECT_EQ(got, expected) << leaf << " crash at " << crash_at;
    if (!async && crash_at > 120) {
      // Enough barriers passed that recovery must have replayed deltas on a
      // base (full_snapshot_every = 4 in the sync-incremental harness mode,
      // unless the crash landed exactly on a compaction barrier).
      EXPECT_GT(stats.barriers, 4u);
    }
  }
}

TEST(IncrementalChain, SlicingLazySyncMatches) {
  ExpectIncrementalChainMatches(SlicingFactory(StoreMode::kLazy),
                                "inc_lazy_sync", /*async=*/false);
}

TEST(IncrementalChain, SlicingEagerSyncMatches) {
  ExpectIncrementalChainMatches(SlicingFactory(StoreMode::kEager),
                                "inc_eager_sync", /*async=*/false);
}

TEST(IncrementalChain, SlicingLazyAsyncMatches) {
  ExpectIncrementalChainMatches(SlicingFactory(StoreMode::kLazy),
                                "inc_lazy_async", /*async=*/true);
}

/// Keyed operator through OnBarrier in sync-incremental mode: its deltas
/// carry only the dirty key subset, recovery replays base + deltas and
/// FinishDeltaRestore catches clean keys up. On shared slices a base taken
/// right after recovery also equals, byte for byte, the live base at the
/// recovered barrier.
void ExpectKeyedCoordinatorChainMatches(const OperatorFactory& keyed) {
  std::vector<Tuple> stream = MakeStream();
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = static_cast<int64_t>(i % 5);
  }
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;
  const int wm_every = 16;
  const Time wm_lag = 16;

  std::map<KeyedResultKey, Value> expected;
  std::string err;
  ASSERT_TRUE(testing::RunKeyedToFinalResults(keyed, stream, final_wm,
                                              wm_every, wm_lag, &expected,
                                              &err))
      << err;
  EXPECT_FALSE(expected.empty());

  for (size_t crash_at : {size_t{60}, stream.size() - 5}) {
    const std::string dir = TempDir("inc_keyed_chain");
    std::map<KeyedResultKey, Value> delivered;
    auto drain = [](WindowOperator& op, std::map<KeyedResultKey, Value>* m) {
      for (const WindowResult& r : op.TakeResults()) {
        (*m)[{r.key, r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    };
    std::map<uint64_t, std::vector<uint8_t>> live_bases;  // by offset
    uint64_t seq = 0;
    Time seen = kNoTime;
    Time last_wm = kNoTime;
    {
      CheckpointOptions copts;
      copts.directory = dir;
      copts.prefix = "ckpt";
      copts.incremental = true;
      copts.full_snapshot_every = 4;
      CheckpointCoordinator coord(copts);
      auto op = keyed();
      for (size_t i = 0; i < crash_at; ++i) {
        Tuple t = stream[i];
        t.seq = seq++;
        op->ProcessTuple(t);
        seen = std::max(seen, t.ts);
        if (seq % wm_every == 0) {
          const Time wm = seen - wm_lag;
          if (wm > last_wm || last_wm == kNoTime) {
            op->ProcessWatermark(wm);
            last_wm = wm;
            drain(*op, &delivered);
            CheckpointMetadata meta;
            meta.source_offset = i + 1;
            meta.next_seq = seq;
            meta.max_ts = seen;
            meta.last_wm = last_wm;
            ASSERT_FALSE(coord.OnBarrier(*op, meta).empty());
            state::Writer live;
            op->SerializeState(live);
            live_bases[meta.source_offset] = live.Take();
          }
        }
      }
      EXPECT_GT(coord.deltas_persisted(), 0u) << "crash at " << crash_at;
    }  // crash: operator and coordinator destroyed

    RecoveredOperator rec = RecoverNewestValid(dir, "ckpt", keyed);
    ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
    std::map<KeyedResultKey, Value> replayed;
    std::unique_ptr<WindowOperator> op = std::move(rec.restored.op);
    drain(*op, &replayed);  // FinishDeltaRestore may have re-emitted results
    if (static_cast<const KeyedWindowOperator&>(*op).shares_slices()) {
      EXPECT_TRUE(replayed.empty()) << "crash at " << crash_at;
      state::Writer restored;
      op->SerializeState(restored);
      EXPECT_EQ(restored.bytes(),
                live_bases[rec.restored.meta.source_offset])
          << "crash at " << crash_at;
    }
    size_t resume_at = static_cast<size_t>(rec.restored.meta.source_offset);
    seq = rec.restored.meta.next_seq;
    seen = rec.restored.meta.max_ts;
    last_wm = rec.restored.meta.last_wm;
    for (size_t i = resume_at; i < stream.size(); ++i) {
      Tuple t = stream[i];
      t.seq = seq++;
      op->ProcessTuple(t);
      seen = std::max(seen, t.ts);
      if (seq % wm_every == 0) {
        const Time wm = seen - wm_lag;
        if (wm > last_wm || last_wm == kNoTime) {
          op->ProcessWatermark(wm);
          last_wm = wm;
          drain(*op, &replayed);
        }
      }
    }
    op->ProcessWatermark(final_wm);
    drain(*op, &replayed);

    std::map<KeyedResultKey, Value> merged = delivered;
    for (const auto& [key, value] : replayed) merged[key] = value;
    EXPECT_EQ(merged, expected) << "keyed crash at " << crash_at;
  }
}

TEST(IncrementalChain, KeyedOperatorCoordinatorChainMatches) {
  ExpectKeyedCoordinatorChainMatches(KeyedFactory());
  ExpectKeyedCoordinatorChainMatches(KeyedFactory(SharedSliceFactory()));
}

TEST(IncrementalChain, KeyedDeltaRoundTripsDirectly) {
  // Unit-level: serialize a delta after touching a subset of keys, with a
  // watermark evicting state between the barriers, apply it on a restored
  // twin of the previous barrier, finish the restore, and expect identical
  // state. Both keyed lanes: per-key operators (sessions) and shared slices.
  for (const OperatorFactory& inner : {SlicingFactory(), SharedSliceFactory()}) {
    auto op = std::make_unique<KeyedWindowOperator>(inner);
    for (int i = 0; i < 60; ++i) {
      op->ProcessTuple(T(i * 2, i, static_cast<uint64_t>(i), i % 4));
    }
    op->ProcessWatermark(40);
    op->TakeResults();

    state::Writer base;
    op->SerializeState(base);
    op->MarkSnapshotClean();

    // Only keys 0 and 2 become dirty after the barrier.
    for (int i = 0; i < 10; ++i) {
      op->ProcessTuple(T(120 + i, i, static_cast<uint64_t>(100 + i),
                         (i % 2) * 2));
    }
    op->ProcessWatermark(100);
    op->TakeResults();
    state::Writer delta;
    op->SerializeDelta(delta);

    auto twin = std::make_unique<KeyedWindowOperator>(inner);
    state::Reader rb(base.bytes());
    twin->DeserializeState(rb);
    ASSERT_TRUE(rb.ok() && rb.AtEnd());
    state::Reader rd(delta.bytes());
    twin->DeserializeState(rd);
    ASSERT_TRUE(rd.ok() && rd.AtEnd());
    twin->FinishDeltaRestore();
    // Shared slices trigger once for all keys: catching up re-emits nothing.
    const std::vector<WindowResult> caught_up = twin->TakeResults();
    if (twin->shares_slices()) {
      EXPECT_TRUE(caught_up.empty());
    }

    state::Writer a, b;
    op->SerializeState(a);
    twin->SerializeState(b);
    EXPECT_EQ(a.bytes(), b.bytes()) << twin->shares_slices();
  }
}

TEST(IncrementalChain, DeltaReferencingUnknownKeyFailsApply) {
  // A clean-key reference that the base does not contain means a barrier is
  // missing in between: DeserializeState must reject, not fabricate state.
  for (const OperatorFactory& inner : {SlicingFactory(), SharedSliceFactory()}) {
    auto op = std::make_unique<KeyedWindowOperator>(inner);
    for (int i = 0; i < 40; ++i) {
      op->ProcessTuple(T(i * 2, i, static_cast<uint64_t>(i), i % 4));
    }
    op->MarkSnapshotClean();
    state::Writer delta;
    op->SerializeDelta(delta);  // all 4 keys clean → 4 clean references

    auto empty = std::make_unique<KeyedWindowOperator>(inner);
    state::Reader r(delta.bytes());
    empty->DeserializeState(r);
    EXPECT_FALSE(r.ok()) << op->shares_slices();
  }
}

TEST(IncrementalChain, DeltaReferencingUnknownSliceFailsApply) {
  // The slicing operator's delta writes clean slices as start-time
  // references; a fresh operator holds none of them, so DeserializeState
  // must reject the delta rather than restore a store with holes.
  auto op = SlicingFactory()();
  for (int i = 0; i < 40; ++i) {
    op->ProcessTuple(T(i * 2, i, static_cast<uint64_t>(i)));
  }
  op->ProcessWatermark(30);
  op->TakeResults();
  op->MarkSnapshotClean();
  state::Writer delta;
  op->SerializeDelta(delta);  // every slice clean → all references

  auto fresh = SlicingFactory()();
  state::Reader r(delta.bytes());
  fresh->DeserializeState(r);
  EXPECT_FALSE(r.ok());

  // The same delta applies onto a twin holding the previous barrier.
  state::Writer base;
  op->SerializeState(base);
  auto twin = SlicingFactory()();
  state::Reader rb(base.bytes());
  twin->DeserializeState(rb);
  ASSERT_TRUE(rb.ok() && rb.AtEnd());
  twin->MarkSnapshotClean();
  state::Reader rd(delta.bytes());
  twin->DeserializeState(rd);
  ASSERT_TRUE(rd.ok() && rd.AtEnd());
  state::Writer a, b;
  op->SerializeState(a);
  twin->SerializeState(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

// ---------------------------------------------------------------------------
// Compaction retention: pruning removes (base, segment) pairs and never
// strands a delta whose base is gone.

TEST(Retention, PrunesBaseAndSegmentPairsTogether) {
  const std::string dir = TempDir("retention_pairs");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "ckpt";
  copts.retain = 2;
  copts.incremental = true;
  copts.full_snapshot_every = 3;
  CheckpointCoordinator coord(copts);

  auto op = SlicingFactory()();
  Time wm = 0;
  for (int barrier = 0; barrier < 14; ++barrier) {
    for (int i = 0; i < 8; ++i) {
      op->ProcessTuple(T(wm + 1 + i, i, static_cast<uint64_t>(barrier * 8 + i)));
    }
    wm += 10;
    op->ProcessWatermark(wm);
    op->TakeResults();
    ASSERT_FALSE(coord.OnBarrier(*op, MetaAt(0)).empty());
  }

  std::vector<std::string> snaps = ListSnapshots(dir, "ckpt");
  EXPECT_EQ(snaps.size(), 2u);
  // Every .dlog on disk must belong to a surviving base — a stranded
  // segment would mean retention deleted a base out from under its deltas.
  size_t dlogs = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    if (name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".dlog") == 0) {
      ++dlogs;
      const std::string snap =
          entry.path().string().substr(0, entry.path().string().size() - 5) +
          ".snap";
      EXPECT_TRUE(fs::exists(snap)) << "orphaned segment " << name;
    }
  }
  EXPECT_GT(dlogs, 0u);

  // The retained chain still recovers.
  RecoveredOperator rec = RecoverNewestValid(dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_FALSE(rec.fell_back);
}

// ---------------------------------------------------------------------------
// Recovery edge cases on the base+delta chain.

struct ChainOnDisk {
  std::string dir;
  std::vector<std::string> snaps;  // newest first
  uint64_t barriers = 0;
};

/// Runs a sync-incremental coordinator long enough to leave >= 2 bases with
/// deltas on disk.
ChainOnDisk BuildChain(const std::string& leaf) {
  ChainOnDisk chain;
  chain.dir = TempDir(leaf);
  CheckpointOptions copts;
  copts.directory = chain.dir;
  copts.prefix = "ckpt";
  copts.retain = 0;  // keep everything
  copts.incremental = true;
  copts.full_snapshot_every = 3;
  CheckpointCoordinator coord(copts);
  auto op = SlicingFactory()();
  Time wm = 0;
  // 9 barriers at full_snapshot_every = 3: bases at 0/3/6, so the newest
  // base carries two deltas (7 and 8).
  for (int barrier = 0; barrier < 9; ++barrier) {
    for (int i = 0; i < 8; ++i) {
      op->ProcessTuple(T(wm + 1 + i, i, static_cast<uint64_t>(barrier * 8 + i)));
    }
    wm += 10;
    op->ProcessWatermark(wm);
    op->TakeResults();
    CheckpointMetadata meta;
    meta.source_offset = static_cast<uint64_t>(barrier + 1) * 8;
    EXPECT_FALSE(coord.OnBarrier(*op, meta).empty());
  }
  chain.barriers = coord.checkpoints_taken();
  chain.snaps = ListSnapshots(chain.dir, "ckpt");
  return chain;
}

TEST(ChainRecovery, BaseMissingFallsBackPastOrphanedSegment) {
  ChainOnDisk chain = BuildChain("chain_base_missing");
  ASSERT_GE(chain.snaps.size(), 2u);
  fs::remove(chain.snaps.front());  // newest base gone, its segment orphaned

  RecoveredOperator rec =
      RecoverNewestValid(chain.dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_EQ(rec.path_used, chain.snaps[1]);
}

// Guard against silent base-only recovery: RestoreOperator falls back to
// replaying from the base when a delta fails to apply, which keeps
// equality harnesses green even if delta application is broken. An
// undamaged chain must therefore report every record actually applied.
TEST(ChainRecovery, UndamagedChainAppliesEveryDelta) {
  ChainOnDisk chain = BuildChain("chain_clean");
  ASSERT_GE(chain.snaps.size(), 2u);

  RestoredOperator r = RestoreOperator(chain.snaps.front(), SlicingFactory());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deltas_applied, 2u);  // bases at 0/3/6, deltas 7 and 8 on top
  EXPECT_FALSE(r.delta_tail_rejected);
  EXPECT_EQ(r.meta.barrier_index, 8u);
}

TEST(ChainRecovery, DeltaGapAppliesOnlyThePrefix) {
  ChainOnDisk chain = BuildChain("chain_gap");
  ASSERT_GE(chain.snaps.size(), 2u);
  const std::string newest = chain.snaps.front();
  const std::string dlog = DeltaLogPathForSnapshot(newest);
  ASSERT_TRUE(fs::exists(dlog));

  // Rewrite the segment with an epoch gap: keep record 1, skip 2, append 3.
  DeltaLogContents c;
  ASSERT_TRUE(ReadDeltaLog(dlog, &c));
  ASSERT_GE(c.records.size(), 2u);
  DeltaLogWriter w;
  ASSERT_TRUE(w.Open(dlog, c.base_index));
  ASSERT_TRUE(w.Append(c.records[0].meta, c.records[0].operator_name,
                       c.records[0].state));
  CheckpointMetadata future = c.records[1].meta;
  future.barrier_index += 1;  // creates a gap
  ASSERT_TRUE(w.Append(future, c.records[1].operator_name,
                       c.records[1].state));
  ASSERT_TRUE(w.Sync());
  w.Close();

  RestoredOperator r = RestoreOperator(newest, SlicingFactory());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deltas_applied, 1u);
  EXPECT_TRUE(r.delta_tail_rejected);
  EXPECT_EQ(r.meta.barrier_index, c.records[0].meta.barrier_index);
}

TEST(ChainRecovery, SegmentFromForeignEpochIsRejectedWhole) {
  ChainOnDisk chain = BuildChain("chain_foreign");
  ASSERT_GE(chain.snaps.size(), 2u);
  const std::string newest = chain.snaps.front();
  const std::string older = chain.snaps[1];
  const std::string newest_dlog = DeltaLogPathForSnapshot(newest);
  const std::string older_dlog = DeltaLogPathForSnapshot(older);
  ASSERT_TRUE(fs::exists(older_dlog));
  // A segment whose header names another base (e.g. after a botched manual
  // copy) must be rejected wholesale, not replayed out of epoch.
  fs::copy_file(older_dlog, newest_dlog,
                fs::copy_options::overwrite_existing);

  RestoredOperator r = RestoreOperator(newest, SlicingFactory());
  ASSERT_TRUE(r.ok) << r.error;  // the base itself is fine
  EXPECT_EQ(r.deltas_applied, 0u);
  EXPECT_TRUE(r.delta_tail_rejected);
}

TEST(ChainRecovery, MissingSegmentIsBaseOnlyNotAnError) {
  ChainOnDisk chain = BuildChain("chain_no_dlog");
  // Find a base with a segment and delete the segment.
  std::string with_dlog;
  for (const std::string& s : chain.snaps) {
    const std::string d = DeltaLogPathForSnapshot(s);
    if (fs::exists(d)) {
      with_dlog = s;
      fs::remove(d);
      break;
    }
  }
  ASSERT_FALSE(with_dlog.empty());

  RestoredOperator r = RestoreOperator(with_dlog, SlicingFactory());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deltas_applied, 0u);
  EXPECT_FALSE(r.delta_tail_rejected);  // absence is legal (barriers align)
}

// ---------------------------------------------------------------------------
// Degradation: persist failures must never stall or corrupt the pipeline.

TEST(Degradation, PermanentFailureTurnsFailedAndPipelineCompletes) {
  const std::string dir = TempDir("degrade_permanent");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "ckpt";
  copts.async = true;
  copts.incremental = true;
  copts.full_snapshot_every = 4;
  copts.max_retries = 1;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 3;
  CheckpointCoordinator coord(copts);
  std::atomic<uint64_t> attempts{0};
  coord.SetPersistFailureHook([&](uint64_t, bool) {
    ++attempts;
    return true;  // every attempt fails
  });

  const std::vector<Tuple> stream = MakeStream();
  auto op = SlicingFactory()();
  auto plain = SlicingFactory()();
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const auto expected =
      RunToFinalResults(*plain, stream, max_ts + 100, 16, 16);

  std::map<ResultKey, Value> got;
  uint64_t seq = 0;
  Time seen = kNoTime;
  Time last_wm = kNoTime;
  for (Tuple t : stream) {
    t.seq = seq++;
    op->ProcessTuple(t);
    seen = std::max(seen, t.ts);
    if (seq % 16 == 0) {
      const Time wm = seen - 16;
      if (wm > last_wm || last_wm == kNoTime) {
        op->ProcessWatermark(wm);
        last_wm = wm;
        for (const WindowResult& r : op->TakeResults()) {
          got[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
        }
        coord.OnBarrier(*op, MetaAt(0));
        // Settle the persist thread so the failure feedback (need-new-base,
        // health) is visible to the next barrier — without this the loop
        // outruns the persist thread and most barriers are queue-side
        // drops, which are not persist *failures*.
        coord.Flush();
      }
    }
  }
  op->ProcessWatermark(max_ts + 100);
  for (const WindowResult& r : op->TakeResults()) {
    got[{r.window_id, r.agg_id, r.start, r.end}] = r.value;
  }
  coord.Flush();

  EXPECT_EQ(coord.health(), CheckpointHealth::kFailed);
  EXPECT_GE(coord.persist_failures(), 3u);
  EXPECT_GT(attempts.load(), 0u);
  EXPECT_EQ(coord.bases_persisted(), 0u);
  EXPECT_EQ(got, expected);  // the stream itself is unaffected
  EXPECT_TRUE(ListSnapshots(dir, "ckpt").empty());
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(Degradation, TransientFailureDegradesThenRecovers) {
  const std::string dir = TempDir("degrade_transient");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "ckpt";
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  copts.max_consecutive_failures = 10;
  CheckpointCoordinator coord(copts);
  std::atomic<int> failures_left{2};
  coord.SetPersistFailureHook([&](uint64_t, bool) {
    return failures_left.fetch_sub(1) > 0;
  });

  auto op = SlicingFactory()();
  for (int i = 0; i < 30; ++i) op->ProcessTuple(T(i * 3, i));
  op->ProcessWatermark(50);
  op->TakeResults();

  EXPECT_TRUE(coord.OnBarrier(*op, MetaAt(0)).empty());
  EXPECT_EQ(coord.health(), CheckpointHealth::kDegraded);
  EXPECT_TRUE(coord.OnBarrier(*op, MetaAt(0)).empty());
  EXPECT_EQ(coord.health(), CheckpointHealth::kDegraded);
  // Third barrier persists: health recovers, the file is valid.
  EXPECT_FALSE(coord.OnBarrier(*op, MetaAt(0)).empty());
  EXPECT_EQ(coord.health(), CheckpointHealth::kHealthy);
  RecoveredOperator rec = RecoverNewestValid(dir, "ckpt", SlicingFactory());
  EXPECT_TRUE(rec.restored.ok) << rec.restored.error;
}

TEST(Degradation, FailedDeltaForcesFullBaseNextBarrier) {
  const std::string dir = TempDir("degrade_delta_fail");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "ckpt";
  copts.incremental = true;
  copts.full_snapshot_every = 100;  // deltas forever, absent failures
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  CheckpointCoordinator coord(copts);
  std::atomic<bool> fail_deltas{false};
  coord.SetPersistFailureHook(
      [&](uint64_t, bool is_base) { return !is_base && fail_deltas.load(); });

  auto op = SlicingFactory()();
  Time wm = 0;
  auto barrier = [&] {
    for (int i = 0; i < 8; ++i) op->ProcessTuple(T(wm + 1 + i, i));
    wm += 10;
    op->ProcessWatermark(wm);
    op->TakeResults();
    return coord.OnBarrier(*op, MetaAt(0));
  };

  EXPECT_FALSE(barrier().empty());  // base
  EXPECT_FALSE(barrier().empty());  // delta
  EXPECT_EQ(coord.deltas_persisted(), 1u);

  fail_deltas = true;
  EXPECT_TRUE(barrier().empty());  // delta fails
  fail_deltas = false;
  EXPECT_FALSE(barrier().empty());  // must be a fresh base, not a delta
  EXPECT_EQ(coord.bases_persisted(), 2u);

  // The recovered chain reflects the post-failure base, not a delta chain
  // with a hole in it.
  RecoveredOperator rec = RecoverNewestValid(dir, "ckpt", SlicingFactory());
  ASSERT_TRUE(rec.restored.ok) << rec.restored.error;
  EXPECT_FALSE(rec.restored.delta_tail_rejected);
}

// ---------------------------------------------------------------------------
// Coordinator lifecycle: shutdown ordering with in-flight async persists.

TEST(Lifecycle, DestructorCompletesQueuedPersists) {
  const std::string dir = TempDir("lifecycle_dtor");
  auto op = SlicingFactory()();
  for (int i = 0; i < 40; ++i) op->ProcessTuple(T(i * 2, i));
  op->ProcessWatermark(60);
  op->TakeResults();
  uint64_t scheduled = 0;
  {
    CheckpointOptions copts;
    copts.directory = dir;
    copts.prefix = "ckpt";
    copts.async = true;
    copts.async_queue_depth = 16;
    CheckpointCoordinator coord(copts);
    for (int i = 0; i < 6; ++i) {
      if (!coord.OnBarrier(*op, MetaAt(0)).empty()) ++scheduled;
    }
    // No Flush: the destructor must complete the queue before joining.
  }
  EXPECT_GT(scheduled, 0u);
  const std::vector<std::string> snaps = ListSnapshots(dir, "ckpt");
  EXPECT_EQ(snaps.size(), std::min<size_t>(scheduled, 3));  // retain = 3
  for (const std::string& s : snaps) {
    RestoredOperator r = RestoreOperator(s, SlicingFactory());
    EXPECT_TRUE(r.ok) << s << ": " << r.error;
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos);
  }
}

TEST(Lifecycle, AbandonDropsQueueWithoutTornFiles) {
  auto op = SlicingFactory()();
  for (int i = 0; i < 40; ++i) op->ProcessTuple(T(i * 2, i));
  op->ProcessWatermark(60);
  op->TakeResults();
  // A synchronous coordinator's barriers go through the same persist
  // thread, so Abandon stops them the same way.
  for (const bool async : {true, false}) {
    SCOPED_TRACE(async ? "async" : "sync");
    const std::string dir =
        TempDir(async ? "lifecycle_abandon" : "lifecycle_abandon_sync");
    {
      CheckpointOptions copts;
      copts.directory = dir;
      copts.prefix = "ckpt";
      copts.async = async;
      copts.async_queue_depth = 16;
      copts.incremental = true;
      copts.full_snapshot_every = 4;
      CheckpointCoordinator coord(copts);
      for (int i = 0; i < 8; ++i) coord.OnBarrier(*op, MetaAt(0));
      coord.Abandon();
      // New barriers after Abandon are rejected, not queued or written.
      EXPECT_TRUE(coord.OnBarrier(*op, MetaAt(0)).empty());
    }
    EXPECT_FALSE(fs::exists(fs::path(dir) / "ckpt-8.snap"));
    // Whatever did persist is complete and valid; nothing is torn.
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
    for (const std::string& s : ListSnapshots(dir, "ckpt")) {
      RestoredOperator r = RestoreOperator(s, SlicingFactory());
      EXPECT_TRUE(r.ok) << s << ": " << r.error;
    }
  }
}

TEST(Lifecycle, ReissuedBarrierIndexReportsItsOwnFailure) {
  // SetBarrierIndex can move the count back (a resume onto an older base),
  // so an index that was durable once is issued again. When its new
  // persist fails, the waiting barrier must not vouch for the old file.
  const std::string dir = TempDir("lifecycle_reissue");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "ckpt";
  copts.max_retries = 0;
  copts.retry_backoff_ms = 0;
  CheckpointCoordinator coord(copts);
  std::atomic<bool> failing{false};
  coord.SetPersistFailureHook([&](uint64_t, bool) { return failing.load(); });
  auto op = SlicingFactory()();
  for (int i = 0; i < 20; ++i) op->ProcessTuple(T(i * 2, i));
  op->ProcessWatermark(30);
  op->TakeResults();

  EXPECT_FALSE(coord.OnBarrier(*op, MetaAt(0)).empty());
  coord.SetBarrierIndex(0);
  failing = true;
  EXPECT_TRUE(coord.OnBarrier(*op, MetaAt(0)).empty());
  EXPECT_EQ(coord.persist_failures(), 1u);
}

TEST(Lifecycle, FlushIsIdempotentAndSyncModeNoop) {
  const std::string dir = TempDir("lifecycle_flush");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "ckpt";
  CheckpointCoordinator coord(copts);
  coord.Flush();
  coord.Flush();
  auto op = SlicingFactory()();
  for (int i = 0; i < 20; ++i) op->ProcessTuple(T(i * 2, i));
  op->ProcessWatermark(30);
  op->TakeResults();
  EXPECT_FALSE(coord.OnBarrier(*op, MetaAt(0)).empty());
  coord.Flush();
  EXPECT_EQ(coord.checkpoints_taken(), 1u);
}

// ---------------------------------------------------------------------------
// Parallel pipeline + coordinator shutdown ordering, and rescaled restore.

class CountingSource : public TupleSource {
 public:
  explicit CountingSource(uint64_t n) : n_(n) {}
  bool Next(Tuple* out) override {
    if (i_ >= n_) return false;
    *out = T(static_cast<Time>(i_ * 2), static_cast<double>(i_ % 17), i_,
             static_cast<int64_t>(i_ % 6));
    ++i_;
    return true;
  }

 private:
  uint64_t n_;
  uint64_t i_ = 0;
};

OperatorFactory ParallelKeyedFactory() {
  return [] {
    return std::make_unique<KeyedWindowOperator>([] {
      GeneralSlicingOperator::Options o;
      o.allowed_lateness = 2000;
      auto op = std::make_unique<GeneralSlicingOperator>(o);
      op->AddAggregation(MakeAggregation("sum"));
      op->AddWindow(std::make_shared<TumblingWindow>(64));
      return op;
    });
  };
}

TEST(ParallelCheckpoint, ExecutorPipelinePersistsAndShutsDownCleanly) {
  const std::string dir = TempDir("parallel_coord");
  CheckpointOptions copts;
  copts.directory = dir;
  copts.prefix = "par";
  copts.async = true;
  CheckpointCoordinator coord(copts);

  CountingSource src(4000);
  ParallelExecutor exec(3, ParallelKeyedFactory());
  PipelineOptions popts;
  popts.watermark_every = 512;
  popts.watermark_delay = 10;
  const PipelineReport rep = RunPipeline(src, exec, 4000, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(rep.checkpoints, 0u);
  // RunPipeline flushed the coordinator after joining the workers: every
  // scheduled barrier is settled by the time it returned.
  const std::vector<std::string> snaps = ListSnapshots(dir, "par");
  ASSERT_FALSE(snaps.empty());

  // The same worker count restores directly; a different one re-partitions
  // keyed state (rescaled restore).
  for (const size_t workers : {size_t{3}, size_t{5}}) {
    const RestoredOperator r = RestoreOperator(
        snaps.front(),
        PartitionedOperator::Factory(workers, ParallelKeyedFactory()));
    EXPECT_TRUE(r.ok) << workers << ": " << r.error;
    EXPECT_EQ(r.operator_name, "parallel");
  }
}

TEST(ParallelCheckpoint, IncrementalCoordinatorWritesDeltas) {
  const std::string dir = TempDir("parallel_delta");
  CheckpointCoordinator coord({.directory = dir,
                               .prefix = "par",
                               .retain = 0,
                               .incremental = true,
                               .full_snapshot_every = 4});
  CountingSource src(4096);
  ParallelExecutor exec(3, ParallelKeyedFactory());
  PipelineOptions popts;
  popts.watermark_every = 256;
  popts.watermark_delay = 10;
  const PipelineReport rep = RunPipeline(src, exec, 4096, popts, &coord);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.checkpoints, 16u);
  // Every fourth barrier is a base, the three between are deltas.
  EXPECT_EQ(rep.health.bases_persisted, 4u);
  EXPECT_EQ(rep.health.deltas_persisted, 12u);
  const std::vector<std::string> snaps = ListSnapshots(dir, "par");
  ASSERT_EQ(snaps.size(), 4u);
  for (const std::string& snap : snaps) {
    DeltaLogContents log;
    ASSERT_TRUE(ReadDeltaLog(DeltaLogPathForSnapshot(snap), &log)) << snap;
    ASSERT_EQ(log.records.size(), 3u) << snap;
    for (const auto& rec : log.records) {
      EXPECT_EQ(rec.operator_name, "parallel");
      EXPECT_FALSE(rec.state.empty());
    }
  }
}

TEST(ParallelCheckpoint, RepartitionPreservesKeysAndOwnership) {
  // Build three keyed worker bases and one delta with disjoint keys,
  // re-partition onto two workers, and verify every key and every key
  // reference landed where WorkerIndexForKey says.
  std::vector<std::vector<uint8_t>> states;
  for (int w = 0; w < 4; ++w) {
    KeyedWindowOperator op([] { return SlicingFactory()(); });
    for (int i = 0; i < 30; ++i) {
      op.ProcessTuple(T(i * 3, i, static_cast<uint64_t>(i), w * 10 + i % 3));
    }
    op.ProcessWatermark(40 + w);
    state::Writer sw;
    if (w < 3) {
      op.SerializeState(sw);
    } else {
      op.MarkSnapshotClean();
      op.ProcessTuple(T(100, 1, 30, w * 10));  // keys 31 and 32 stay clean
      op.SerializeDelta(sw);
    }
    states.push_back(sw.Take());
  }

  std::vector<std::vector<uint8_t>> out;
  std::string err;
  ASSERT_TRUE(RepartitionKeyedStates(states, 2, &out, &err)) << err;
  ASSERT_EQ(out.size(), 2u);

  std::map<int64_t, std::vector<uint8_t>> before;
  std::set<int64_t> refs_before;
  for (const auto& s : states) {
    KeyedWindowOperator::KeyedStateParts parts;
    ASSERT_TRUE(KeyedWindowOperator::ParseKeyedState(s, &parts));
    for (auto& [key, bytes] : parts.keys) before[key] = bytes;
    refs_before.insert(parts.refs.begin(), parts.refs.end());
  }
  EXPECT_EQ(refs_before, (std::set<int64_t>{31, 32}));
  std::map<int64_t, std::vector<uint8_t>> after;
  std::set<int64_t> refs_after;
  Time merged_wm = kNoTime;
  for (size_t w = 0; w < out.size(); ++w) {
    KeyedWindowOperator::KeyedStateParts parts;
    ASSERT_TRUE(KeyedWindowOperator::ParseKeyedState(out[w], &parts));
    merged_wm = std::max(merged_wm, parts.last_wm);
    for (auto& [key, bytes] : parts.keys) {
      EXPECT_EQ(ParallelExecutor::WorkerIndexForKey(key, 2), w)
          << "key " << key << " restored onto the wrong worker";
      after[key] = bytes;
    }
    for (const int64_t key : parts.refs) {
      EXPECT_EQ(ParallelExecutor::WorkerIndexForKey(key, 2), w)
          << "reference to key " << key << " routed to the wrong worker";
      refs_after.insert(key);
    }
  }
  EXPECT_EQ(before, after);  // per-key bytes move verbatim
  EXPECT_EQ(refs_before, refs_after);
  EXPECT_EQ(merged_wm, 43);  // max of the four worker watermarks
}

TEST(ParallelCheckpoint, NonKeyedStatesStillRejectWorkerCountMismatch) {
  std::vector<std::vector<uint8_t>> states;
  for (int w = 0; w < 3; ++w) {
    auto op = SlicingFactory()();
    for (int i = 0; i < 20; ++i) op->ProcessTuple(T(i * 2, i));
    state::Writer sw;
    op->SerializeState(sw);
    states.push_back(sw.Take());
  }
  std::vector<std::vector<uint8_t>> out;
  std::string err;
  EXPECT_FALSE(RepartitionKeyedStates(states, 2, &out, &err));
  EXPECT_NE(err.find("keyed"), std::string::npos) << err;
}

/// A keyed stream whose keys arrive in bursts, so most of them sit idle
/// between barriers and each delta references them instead of inlining
/// them: three partitions persist a base and a delta chain, which restores
/// onto two and onto five partitions and must then finish the stream
/// exactly as one keyed operator does.
void ExpectRescaledRestoreReplaysDeltaChain(const OperatorFactory& keyed) {
  std::vector<Tuple> stream = MakeStream(480);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = static_cast<int64_t>((i / 24) % 7);
  }
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;
  constexpr int kWmEvery = 16;
  constexpr Time kWmLag = 16;
  constexpr size_t kCut = 300;

  std::map<KeyedResultKey, Value> expected;
  std::string err;
  ASSERT_TRUE(testing::RunKeyedToFinalResults(keyed, stream, final_wm,
                                              kWmEvery, kWmLag, &expected,
                                              &err))
      << err;

  // Three partitions up to kCut, one base followed by deltas only.
  const std::string dir = TempDir("rescale_chain");
  std::map<KeyedResultKey, Value> delivered;
  size_t refs = 0;
  {
    CheckpointCoordinator coord({.directory = dir,
                                 .prefix = "par",
                                 .retain = 0,
                                 .incremental = true,
                                 .full_snapshot_every = 1000});
    PartitionedOperator op(3, keyed);
    CheckpointMetadata at;
    testing::Replay(
        stream, kCut, kWmEvery, kWmLag, &at,
        [&](const Tuple& t) { op.ProcessTuple(t); },
        [&](Time wm, const CheckpointMetadata& progress) {
          op.ProcessWatermark(wm);
          for (const WindowResult& r : op.TakeResults()) {
            delivered[{r.key, r.window_id, r.agg_id, r.start, r.end}] =
                r.value;
          }
          for (size_t p = 0; p < op.size(); ++p) {
            state::Writer w;
            op.partition(p).SerializeDelta(w);
            KeyedWindowOperator::KeyedStateParts parts;
            EXPECT_TRUE(KeyedWindowOperator::ParseKeyedState(w.Take(), &parts));
            refs += parts.refs.size();
          }
          return !coord.OnBarrier(op, progress).empty();
        });
  }
  EXPECT_GT(refs, 0u);
  const std::vector<std::string> snaps = ListSnapshots(dir, "par");
  ASSERT_EQ(snaps.size(), 1u);
  DeltaLogContents log;
  ASSERT_TRUE(ReadDeltaLog(DeltaLogPathForSnapshot(snaps.front()), &log));
  ASSERT_GT(log.records.size(), 10u);

  for (const size_t workers : {size_t{2}, size_t{5}}) {
    RestoredOperator restored = RestoreOperator(
        snaps.front(), PartitionedOperator::Factory(workers, keyed));
    ASSERT_TRUE(restored.ok) << workers << ": " << restored.error;
    EXPECT_EQ(restored.deltas_applied, log.records.size()) << workers;
    EXPECT_FALSE(restored.delta_tail_rejected) << workers;

    // The rest of the stream, overlaid on what was delivered before.
    std::map<KeyedResultKey, Value> got = delivered;
    WindowOperator& op = *restored.op;
    const auto drain = [&] {
      for (const WindowResult& r : op.TakeResults()) {
        got[{r.key, r.window_id, r.agg_id, r.start, r.end}] = r.value;
      }
    };
    CheckpointMetadata resume = restored.meta;
    testing::Replay(
        stream, stream.size(), kWmEvery, kWmLag, &resume,
        [&](const Tuple& t) { op.ProcessTuple(t); },
        [&](Time wm, const CheckpointMetadata&) {
          op.ProcessWatermark(wm);
          drain();
        });
    op.ProcessWatermark(final_wm);
    drain();
    EXPECT_EQ(got, expected) << workers;
  }
}

TEST(ParallelCheckpoint, RescaledRestoreReplaysDeltaChain) {
  ExpectRescaledRestoreReplaysDeltaChain(KeyedFactory());
  ExpectRescaledRestoreReplaysDeltaChain(KeyedFactory(SharedSliceFactory()));
}

// ---------------------------------------------------------------------------
// Rescaled crash recovery end-to-end (the fuzz dimension, deterministic).

TEST(Rescale, KeyedCrashRecoveryOntoDifferentWorkerCounts) {
  std::vector<Tuple> stream = MakeStream();
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = static_cast<int64_t>((i * 7) % 9);
  }
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;

  std::map<KeyedResultKey, Value> expected;
  std::string err;
  ASSERT_TRUE(testing::RunKeyedToFinalResults(
      KeyedFactory(), stream, final_wm, 16, 16, &expected, &err))
      << err;
  EXPECT_FALSE(expected.empty());

  const struct {
    size_t from, to;
    testing::PersistMode mode;
  } cases[] = {
      {1, 3, testing::PersistMode::kSyncFull},
      {3, 1, testing::PersistMode::kSyncFull},
      {2, 4, testing::PersistMode::kSyncIncremental},
      {4, 2, testing::PersistMode::kAsyncIncremental},
  };
  for (const auto& c : cases) {
    testing::FaultPlan plan;
    plan.crash_index = stream.size() / 2;
    plan.mode = c.mode;
    std::map<KeyedResultKey, Value> got;
    testing::CrashRunStats stats;
    ASSERT_TRUE(testing::RunKeyedRescaleCrashRecovered(
        KeyedFactory(), stream, final_wm, 16, 16, plan, TempDir("rescale_e2e"),
        c.from, c.to, &got, &err, &stats))
        << c.from << "->" << c.to << ": " << err;
    EXPECT_EQ(got, expected) << c.from << "->" << c.to;
    if (c.mode != testing::PersistMode::kAsyncIncremental) {
      EXPECT_FALSE(stats.recovered_from_scratch) << c.from << "->" << c.to;
    }
    if (c.mode == testing::PersistMode::kSyncIncremental) {
      // The rescaled restore replays the delta chain, not just its base.
      EXPECT_GT(stats.deltas_applied, 0u) << c.from << "->" << c.to;
    }
  }
}

TEST(Rescale, DamagedNewestBlobFallsBackAcrossTopologyChange) {
  std::vector<Tuple> stream = MakeStream();
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = static_cast<int64_t>(i % 4);
  }
  Time max_ts = kNoTime;
  for (const Tuple& t : stream) max_ts = std::max(max_ts, t.ts);
  const Time final_wm = max_ts + 100;

  std::map<KeyedResultKey, Value> expected;
  std::string err;
  ASSERT_TRUE(testing::RunKeyedToFinalResults(
      KeyedFactory(), stream, final_wm, 16, 16, &expected, &err))
      << err;

  testing::FaultPlan plan;
  plan.crash_index = stream.size() - 10;  // many barriers on disk
  plan.fault = testing::SnapshotFault::kTruncate;
  plan.fault_arg = 12345;
  std::map<KeyedResultKey, Value> got;
  testing::CrashRunStats stats;
  ASSERT_TRUE(testing::RunKeyedRescaleCrashRecovered(
      KeyedFactory(), stream, final_wm, 16, 16, plan,
      TempDir("rescale_fallback"), 3, 2, &got, &err, &stats))
      << err;
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(stats.fell_back);
  EXPECT_FALSE(stats.recovered_from_scratch);
}

}  // namespace
}  // namespace scotty
