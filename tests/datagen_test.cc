// Tests for the synthetic data generators and the out-of-order injector.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "datagen/ooo_injector.h"
#include "datagen/workloads.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

TEST(SensorStream, FootballPresetMatchesPaperCharacteristics) {
  const SensorConfig c = SensorStream::Football();
  EXPECT_EQ(c.rate_hz, 2000.0);
  EXPECT_EQ(c.distinct_values, 84232);
  EXPECT_EQ(c.session_gaps_per_minute, 5.0);
}

TEST(SensorStream, MachinePresetMatchesPaperCharacteristics) {
  const SensorConfig c = SensorStream::Machine();
  EXPECT_EQ(c.rate_hz, 100.0);
  EXPECT_EQ(c.distinct_values, 37);
}

TEST(SensorStream, ProducesInOrderTimestampsAtConfiguredRate) {
  SensorConfig c = SensorStream::Football();
  c.session_gaps_per_minute = 0;  // disable gaps for the rate check
  SensorStream s(c);
  Tuple t;
  Time prev = -1;
  Time last = 0;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(s.Next(&t));
    EXPECT_GE(t.ts, prev);
    prev = t.ts;
    last = t.ts;
  }
  // 20k tuples at 2000 Hz ~ 10 seconds of stream time.
  EXPECT_NEAR(static_cast<double>(last), 10000.0, 100.0);
}

TEST(SensorStream, DistinctValuesBounded) {
  SensorConfig c = SensorStream::Machine();
  SensorStream s(c);
  std::set<double> values;
  Tuple t;
  for (int i = 0; i < 5000; ++i) {
    s.Next(&t);
    values.insert(t.value);
  }
  EXPECT_LE(values.size(), 37u);
  EXPECT_GT(values.size(), 30u);  // nearly all values observed
}

TEST(SensorStream, SessionGapsAppearAtConfiguredFrequency) {
  SensorConfig c = SensorStream::Football();
  SensorStream s(c);
  Tuple t;
  Time prev = 0;
  int gaps = 0;
  Time last = 0;
  for (int i = 0; i < 2000 * 60; ++i) {  // one minute of stream time
    s.Next(&t);
    if (i > 0 && t.ts - prev >= c.gap_length_ms) ++gaps;
    prev = t.ts;
    last = t.ts;
  }
  (void)last;
  EXPECT_GE(gaps, 4);
  EXPECT_LE(gaps, 7);
}

TEST(SensorStream, DeterministicForFixedSeed) {
  SensorStream a(SensorStream::Football());
  SensorStream b(SensorStream::Football());
  Tuple ta;
  Tuple tb;
  for (int i = 0; i < 1000; ++i) {
    a.Next(&ta);
    b.Next(&tb);
    EXPECT_EQ(ta, tb);
  }
}

TEST(SensorStream, KeysWithinRange) {
  SensorConfig c = SensorStream::Football();
  c.num_keys = 4;
  SensorStream s(c);
  Tuple t;
  for (int i = 0; i < 1000; ++i) {
    s.Next(&t);
    EXPECT_GE(t.key, 0);
    EXPECT_LT(t.key, 4);
  }
}

TEST(PunctuatedStream, EmitsMarkersAtInterval) {
  SensorStream inner(SensorStream::Machine());
  PunctuatedStream s(&inner, 10);
  Tuple t;
  int puncts = 0;
  int data = 0;
  for (int i = 0; i < 110; ++i) {
    ASSERT_TRUE(s.Next(&t));
    if (t.is_punctuation) {
      ++puncts;
    } else {
      ++data;
    }
  }
  EXPECT_EQ(data + puncts, 110);
  EXPECT_GE(puncts, 9);
  EXPECT_LE(puncts, 11);
}

TEST(OutOfOrderInjector, FractionZeroKeepsStreamInOrder) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options opts;
  opts.fraction = 0.0;
  OutOfOrderInjector src(&inner, opts);
  Tuple t;
  Time prev = -1;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(src.Next(&t));
    EXPECT_GE(t.ts, prev);
    prev = t.ts;
  }
}

TEST(OutOfOrderInjector, ProducesConfiguredOutOfOrderFraction) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options opts;
  opts.fraction = 0.2;
  opts.min_delay = 0;
  opts.max_delay = 2000;
  OutOfOrderInjector src(&inner, opts);
  Tuple t;
  Time max_seen = kNoTime;
  int ooo = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(src.Next(&t));
    if (max_seen != kNoTime && t.ts < max_seen) ++ooo;
    max_seen = std::max(max_seen, t.ts);
  }
  const double fraction = static_cast<double>(ooo) / n;
  EXPECT_GT(fraction, 0.15);
  EXPECT_LT(fraction, 0.25);
}

TEST(OutOfOrderInjector, DelaysBoundedByMaxDelay) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options opts;
  opts.fraction = 0.3;
  opts.max_delay = 500;
  OutOfOrderInjector src(&inner, opts);
  Tuple t;
  Time max_seen = kNoTime;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(src.Next(&t));
    if (max_seen != kNoTime) {
      EXPECT_GE(t.ts, max_seen - 500 - 1);  // delay ceiling honored
    }
    max_seen = std::max(max_seen, t.ts);
  }
}

TEST(OutOfOrderInjector, SequenceNumbersFollowArrivalOrder) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options opts;
  opts.fraction = 0.2;
  OutOfOrderInjector src(&inner, opts);
  Tuple t;
  uint64_t expected_seq = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(src.Next(&t));
    EXPECT_EQ(t.seq, expected_seq++);
  }
}

TEST(OutOfOrderInjector, WatermarkIsSound) {
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options opts;
  opts.fraction = 0.2;
  opts.max_delay = 2000;
  OutOfOrderInjector src(&inner, opts);
  Tuple t;
  for (int i = 0; i < 10000; ++i) {
    const Time wm = src.CurrentWatermark();
    ASSERT_TRUE(src.Next(&t));
    // The watermark promise: no tuple older than wm arrives afterwards.
    if (wm != kNoTime) {
      EXPECT_GE(t.ts, wm);
    }
  }
}

TEST(OutOfOrderInjector, FullyOutOfOrderStreamStaysBounded) {
  // fraction = 1.0 must not accumulate unbounded held state: releases are
  // driven by source progress.
  SensorStream inner(SensorStream::Football());
  OutOfOrderInjector::Options opts;
  opts.fraction = 1.0;
  opts.max_delay = 1000;
  OutOfOrderInjector src(&inner, opts);
  Tuple t;
  Time max_seen = kNoTime;
  int ooo = 0;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(src.Next(&t));
    if (max_seen != kNoTime && t.ts < max_seen) ++ooo;
    max_seen = std::max(max_seen, t.ts);
  }
  EXPECT_GT(ooo, 5000);  // heavily disordered, yet bounded memory
}

TEST(Workloads, DashboardWindowLengthsSpanOneToTwentySeconds) {
  const std::vector<WindowPtr> ws = DashboardTumblingWindows(20);
  ASSERT_EQ(ws.size(), 20u);
  auto* first = dynamic_cast<TumblingWindow*>(ws.front().get());
  auto* last = dynamic_cast<TumblingWindow*>(ws.back().get());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(first->length(), 1000);
  EXPECT_EQ(last->length(), 20000);
}

TEST(Workloads, CountVariantUsesCountMeasure) {
  const std::vector<WindowPtr> ws = DashboardCountWindows(3);
  for (const WindowPtr& w : ws) {
    EXPECT_EQ(w->measure(), Measure::kCount);
  }
}

TEST(Workloads, SingleWindowUsesMinLength) {
  const std::vector<WindowPtr> ws = DashboardTumblingWindows(1);
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(dynamic_cast<TumblingWindow*>(ws[0].get())->length(), 1000);
}

}  // namespace
}  // namespace scotty
