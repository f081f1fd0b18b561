// Tests for the runtime extras: the watermark cadence, the keyed per-partition
// operator, and the CSV trace replayer.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "datagen/replayer.h"
#include "runtime/keyed_operator.h"
#include "runtime/watermarks.h"
#include "tests/test_util.h"
#include "windows/session.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

using testutil::FinalResults;
using testutil::Num;
using testutil::T;

// --------------------------- Watermark cadence ----------------------------

TEST(PeriodicWatermarks, EmitsEveryIntervalWithDelay) {
  PeriodicWatermarks policy(3, 100);
  EXPECT_EQ(policy.OnTuple(T(1000, 0, 0)), kNoTime);
  EXPECT_EQ(policy.OnTuple(T(1500, 0, 1)), kNoTime);
  EXPECT_EQ(policy.OnTuple(T(1200, 0, 2)), 1400);  // max 1500 - 100
  EXPECT_EQ(policy.OnTuple(T(2000, 0, 3)), kNoTime);
}

TEST(PeriodicWatermarks, ZeroIntervalNeverEmits) {
  PeriodicWatermarks policy(0, 100);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(policy.OnTuple(T(1000 + i, 0, static_cast<uint64_t>(i))),
              kNoTime);
  }
  EXPECT_EQ(policy.Progress().source_offset, 1000u);
  EXPECT_EQ(policy.max_ts(), 1999);
}

TEST(PeriodicWatermarks, ResumeFromProgressMatchesUninterrupted) {
  constexpr uint64_t kInterval = 5;
  constexpr Time kDelay = 7;
  // Disordered timestamps, so the running maximum and the emitted
  // watermark both matter to the resumed cadence.
  std::vector<Tuple> stream;
  for (uint64_t i = 0; i < 40; ++i) {
    stream.push_back(T(static_cast<Time>((i * 37) % 23 + 3 * i), 0, i));
  }
  using Emission = std::pair<size_t, Time>;  // (position, watermark)
  auto run = [&](PeriodicWatermarks& cadence, size_t from, size_t to,
                 std::vector<Emission>* out) {
    for (size_t i = from; i < to; ++i) {
      const Time wm = cadence.OnTuple(stream[i]);
      if (wm != kNoTime) out->emplace_back(i, wm);
    }
  };
  std::vector<Emission> expected;
  PeriodicWatermarks whole(kInterval, kDelay);
  run(whole, 0, stream.size(), &expected);
  ASSERT_EQ(expected.size(), stream.size() / kInterval);

  for (const size_t k : {size_t{0}, size_t{1}, size_t{kInterval - 1},
                         size_t{kInterval}, size_t{2 * kInterval + 1}}) {
    std::vector<Emission> got;
    PeriodicWatermarks before(kInterval, kDelay);
    run(before, 0, k, &got);
    const state::CheckpointMetadata at = before.Progress();
    EXPECT_EQ(at.source_offset, k);
    EXPECT_EQ(at.next_seq, k);
    PeriodicWatermarks after(kInterval, kDelay, at);
    run(after, k, stream.size(), &got);
    EXPECT_EQ(got, expected) << "cut at " << k;
    EXPECT_EQ(after.Progress().last_wm, whole.Progress().last_wm);
    EXPECT_EQ(after.max_ts(), whole.max_ts());
  }
}

// --------------------------- Keyed operator ---------------------------

std::unique_ptr<WindowOperator> MakePerKeyOp() {
  GeneralSlicingOperator::Options o;
  o.stream_in_order = false;
  o.allowed_lateness = 100;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation("sum"));
  op->AddWindow(std::make_shared<TumblingWindow>(10));
  return op;
}

TEST(KeyedOperator, SeparatesStatePerKey) {
  KeyedWindowOperator op(MakePerKeyOp);
  op.ProcessTuple(T(1, 1, 0, /*key=*/7));
  op.ProcessTuple(T(2, 2, 1, /*key=*/9));
  op.ProcessTuple(T(3, 4, 2, /*key=*/7));
  op.ProcessWatermark(20);
  EXPECT_EQ(op.NumKeys(), 2u);
  double sum7 = -1;
  double sum9 = -1;
  for (const WindowResult& r : op.TakeResults()) {
    if (r.start != 0) continue;
    if (r.key == 7) sum7 = Num(r.value);
    if (r.key == 9) sum9 = Num(r.value);
  }
  EXPECT_DOUBLE_EQ(sum7, 5.0);
  EXPECT_DOUBLE_EQ(sum9, 2.0);
}

TEST(KeyedOperator, LateKeyCreationRespectsWatermark) {
  KeyedWindowOperator op(MakePerKeyOp);
  op.ProcessTuple(T(5, 1, 0, 1));
  op.ProcessWatermark(50);
  op.TakeResults();
  // A new key appears after the watermark; its operator must not re-emit
  // windows before 50 as fresh results.
  op.ProcessTuple(T(55, 2, 1, 2));
  op.ProcessWatermark(70);
  for (const WindowResult& r : op.TakeResults()) {
    if (r.key == 2 && !r.is_update) {
      EXPECT_GE(r.end, 50);
    }
  }
}

TEST(KeyedOperator, MemoryAggregatesAcrossKeys) {
  KeyedWindowOperator op(MakePerKeyOp);
  for (int i = 0; i < 100; ++i) {
    op.ProcessTuple(T(i, 1.0, static_cast<uint64_t>(i), i % 8));
  }
  EXPECT_EQ(op.NumKeys(), 8u);
  EXPECT_GT(op.MemoryUsageBytes(), 0u);
}

std::unique_ptr<WindowOperator> MakePerKeySessionOp() {
  GeneralSlicingOperator::Options o;
  o.allowed_lateness = 100;
  auto op = std::make_unique<GeneralSlicingOperator>(o);
  op->AddAggregation(MakeAggregation("sum"));
  op->AddWindow(std::make_shared<TumblingWindow>(10));
  op->AddWindow(std::make_shared<SessionWindow>(30));
  return op;
}

TEST(KeyedOperator, LowerWatermarkDoesNotReopenTriggeredWindows) {
  // A watermark below one already seen is ignored: a key created afterwards
  // starts from the larger one and reports no window it already covered.
  for (const KeyedWindowOperator::Factory& factory :
       {KeyedWindowOperator::Factory(MakePerKeyOp),
        KeyedWindowOperator::Factory(MakePerKeySessionOp)}) {
    KeyedWindowOperator op(factory);
    op.ProcessTuple(T(5, 1, 0, 1));
    op.ProcessWatermark(50);
    op.ProcessWatermark(30);
    op.TakeResults();
    op.ProcessTuple(T(55, 2, 1, 2));
    op.ProcessWatermark(70);
    bool key2_reported = false;
    for (const WindowResult& r : op.TakeResults()) {
      if (r.key != 2) continue;
      key2_reported = true;
      EXPECT_GT(r.end, 50) << "[" << r.start << "," << r.end << ") "
                           << (op.shares_slices() ? "shared" : "per-key");
    }
    EXPECT_TRUE(key2_reported);
  }
}

// --------------------------- CSV replayer ---------------------------

TEST(CsvReplaySource, RoundTripsAStream) {
  const std::string path = ::testing::TempDir() + "/scotty_trace.csv";
  SensorStream src(SensorStream::Machine());
  ASSERT_TRUE(CsvReplaySource::Dump(path, src, 500));

  CsvReplaySource replay;
  ASSERT_TRUE(replay.Load(path));
  EXPECT_EQ(replay.size(), 500u);

  SensorStream fresh(SensorStream::Machine());
  Tuple a;
  Tuple b;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(replay.Next(&a));
    ASSERT_TRUE(fresh.Next(&b));
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_EQ(a.key, b.key);
  }
  EXPECT_FALSE(replay.Next(&a));
  std::remove(path.c_str());
}

TEST(CsvReplaySource, LoopingShiftsTimestamps) {
  const std::string path = ::testing::TempDir() + "/scotty_loop.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# ts,value,key\n10,1.5,0\n20,2.5,1\n", f);
    std::fclose(f);
  }
  CsvReplaySource replay;
  ASSERT_TRUE(replay.Load(path));
  replay.SetLoopCount(2);
  Tuple t;
  std::vector<Time> ts;
  while (replay.Next(&t)) ts.push_back(t.ts);
  ASSERT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts[0], 10);
  EXPECT_EQ(ts[1], 20);
  EXPECT_EQ(ts[2], 10 + 11);  // shifted by span (20 - 10 + 1)
  EXPECT_EQ(ts[3], 20 + 11);
  std::remove(path.c_str());
}

TEST(CsvReplaySource, MissingFileFailsGracefully) {
  CsvReplaySource replay;
  EXPECT_FALSE(replay.Load("/nonexistent/path/trace.csv"));
  Tuple t;
  EXPECT_FALSE(replay.Next(&t));
}

TEST(CsvReplaySource, SkipsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/scotty_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# header\ngarbage\n5,1.0,2\n\n7,2.0\n", f);
    std::fclose(f);
  }
  CsvReplaySource replay;
  ASSERT_TRUE(replay.Load(path));
  EXPECT_EQ(replay.size(), 2u);  // "5,1.0,2" and "7,2.0" (key optional)
  Tuple t;
  ASSERT_TRUE(replay.Next(&t));
  EXPECT_EQ(t.ts, 5);
  EXPECT_EQ(t.key, 2);
  ASSERT_TRUE(replay.Next(&t));
  EXPECT_EQ(t.ts, 7);
  EXPECT_EQ(t.key, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scotty
