// Keyed slicing: the shared-slice lane of KeyedWindowOperator against one
// GeneralSlicingOperator per key, and the lane decision.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aggregates/registry.h"
#include "common/rng.h"
#include "common/tuple_batch.h"
#include "core/general_slicing_operator.h"
#include "runtime/keyed_operator.h"
#include "state/serde_types.h"
#include "tests/test_util.h"
#include "windows/punctuation.h"
#include "windows/session.h"
#include "windows/sliding.h"
#include "windows/tumbling.h"

namespace scotty {
namespace {

/// The semantics the shared lane reproduces: one GeneralSlicingOperator per
/// key, created on the key's first tuple, given the largest watermark seen
/// so far at creation, and receiving every watermark.
class PerKeyReference {
 public:
  explicit PerKeyReference(OperatorFactory factory)
      : factory_(std::move(factory)) {}

  void ProcessTuple(const Tuple& t) {
    auto it = ops_.find(t.key);
    if (it == ops_.end()) {
      it = ops_.emplace(t.key, factory_()).first;
      if (wm_ != kNoTime) it->second->ProcessWatermark(wm_);
    }
    it->second->ProcessTuple(t);
  }

  void ProcessWatermark(Time wm) {
    wm_ = std::max(wm_, wm);
    for (auto& [key, op] : ops_) op->ProcessWatermark(wm);
  }

  std::vector<WindowResult> TakeResults() {
    std::vector<WindowResult> out;
    for (auto& [key, op] : ops_) {
      for (WindowResult& r : op->TakeResults()) {
        r.key = key;
        out.push_back(std::move(r));
      }
    }
    return out;
  }

 private:
  OperatorFactory factory_;
  std::map<int64_t, std::unique_ptr<WindowOperator>> ops_;
  Time wm_ = kNoTime;
};

/// Emissions per window instance and update flag, each value as its
/// serialized bits, in emission order. Two runs agree when every instance
/// saw the same value sequence; the order across instances is free.
/// Instances ending at or before 0 lie outside the windows' time domain:
/// a per-key operator started below zero reports some of them, the shared
/// lane none, so they are not recorded.
using InstanceKey = std::tuple<int64_t, int, int, Time, Time, bool>;
using Emissions = std::map<InstanceKey, std::vector<std::vector<uint8_t>>>;

void Record(const std::vector<WindowResult>& results, Emissions* out) {
  for (const WindowResult& r : results) {
    if (r.end <= 0) continue;
    state::Writer w;
    state::SerializeValue(w, r.value);
    (*out)[{r.key, r.window_id, r.agg_id, r.start, r.end, r.is_update}]
        .push_back(w.Take());
  }
}

struct LaneConfig {
  std::vector<std::pair<Time, Time>> windows;  // (length, slide)
  std::vector<std::string> aggs;
  Time lateness = 0;
};

OperatorFactory SlicingFactory(const LaneConfig& cfg) {
  return [cfg]() -> std::unique_ptr<WindowOperator> {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = cfg.lateness;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    for (const std::string& a : cfg.aggs) op->AddAggregation(MakeAggregation(a));
    for (const auto& [len, slide] : cfg.windows) {
      if (len == slide) {
        op->AddWindow(std::make_shared<TumblingWindow>(len));
      } else {
        op->AddWindow(std::make_shared<SlidingWindow>(len, slide));
      }
    }
    return op;
  };
}

TEST(KeyedSlicing, MatchesPerKeyOperators) {
  const std::vector<std::string> kAggs = {
      "sum",  "avg", "stddev", "geometric-mean", "m4",   "min",
      "max",  "count", "arg-max", "first",      "last", "min-count"};
  // Aggregations that regroup exactly: a query set of only these answers
  // the instances straddling a watermark's earliest due end from shared
  // suffix and prefix passes.
  const std::vector<std::string> kRegrouping = {
      "m4", "min", "max", "count", "min-count", "max-count", "arg-min",
      "arg-max", "first", "last"};
  Rng rng(20261017);
  uint64_t emissions = 0;
  uint64_t updates = 0;
  for (int run = 0; run < 80; ++run) {
    LaneConfig cfg;
    const int nwin = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < nwin; ++i) {
      const Time len = rng.NextInRange(10, 120);
      Time slide = len;
      if (rng.NextBounded(2) == 0) {
        // Half the sliding windows slide by a small fraction of their
        // length, so several of their instances straddle one end.
        slide = rng.NextBounded(2) == 0
                    ? rng.NextInRange(2, len)
                    : std::max<Time>(2, len / rng.NextInRange(3, 8));
      }
      cfg.windows.emplace_back(len, slide);
    }
    const std::vector<std::string>& pool =
        run % 2 == 0 ? kRegrouping : kAggs;
    const int nagg = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < nagg; ++i) {
      cfg.aggs.push_back(pool[rng.NextBounded(pool.size())]);
    }
    cfg.lateness = rng.NextInRange(0, 300);
    const double ooo = 0.4 * rng.NextDouble();
    const int64_t nkeys = rng.NextInRange(1, 12);
    // Half the runs hold keys back until the stream is under way, so keys
    // first appear after watermarks.
    const bool late_keys = rng.NextBounded(2) == 0;
    const bool columns = rng.NextBounded(2) == 0;
    // A third of the runs advance the watermark rarely, by 150 to 400, so
    // one watermark makes several instances of each window due and some
    // start after the earliest due end.
    const Time rare_gap =
        rng.NextBounded(3) == 0 ? rng.NextInRange(150, 400) : 0;
    Time next_wm = rare_gap;

    std::vector<Tuple> stream;
    Time now = 0;
    for (uint64_t i = 0; i < 400; ++i) {
      now += rng.NextInRange(0, 4);
      Tuple t;
      t.ts = now;
      if (rng.NextDouble() < ooo) {
        t.ts = std::max<Time>(0, now - rng.NextInRange(1, 200));
      }
      t.value = static_cast<double>(rng.NextInRange(-50, 50)) / 4.0 + 0.1;
      const int64_t visible =
          late_keys ? std::max<int64_t>(1, nkeys * static_cast<int64_t>(i) /
                                               300)
                    : nkeys;
      t.key = static_cast<int64_t>(rng.NextBounded(
          static_cast<uint64_t>(std::min(visible, nkeys))));
      t.seq = i;
      t.is_punctuation = rng.NextBounded(50) == 0;
      stream.push_back(t);
    }

    const OperatorFactory factory = SlicingFactory(cfg);
    KeyedWindowOperator lane(factory);
    PerKeyReference ref(factory);
    Emissions got;
    Emissions want;
    TupleBatchSoA cols;
    cols.AppendTuples(stream);
    Time max_ts = kNoTime;
    size_t i = 0;
    while (i < stream.size()) {
      const size_t len =
          columns ? std::min<size_t>(1 + rng.NextBounded(40), stream.size() - i)
                  : 1;
      if (columns) {
        lane.ProcessTupleColumns(cols.Subview(i, len));
      } else {
        lane.ProcessTuple(stream[i]);
      }
      for (size_t k = i; k < i + len; ++k) {
        ref.ProcessTuple(stream[k]);
        max_ts = std::max(max_ts, stream[k].ts);
      }
      i += len;
      const bool fire =
          rare_gap == 0 ? rng.NextBounded(4) == 0 : max_ts >= next_wm;
      if (fire) {
        // Mostly advancing, sometimes lagging far behind; the stream starts
        // at zero, so early watermarks lie below it.
        next_wm = max_ts + rare_gap;
        const Time wm = max_ts - rng.NextInRange(0, 150);
        lane.ProcessWatermark(wm);
        ref.ProcessWatermark(wm);
        Record(lane.TakeResults(), &got);
        Record(ref.TakeResults(), &want);
      }
    }
    lane.ProcessWatermark(max_ts + 200);
    ref.ProcessWatermark(max_ts + 200);
    Record(lane.TakeResults(), &got);
    Record(ref.TakeResults(), &want);

    ASSERT_TRUE(lane.shares_slices()) << "run " << run;
    ASSERT_EQ(got.size(), want.size()) << "run " << run;
    for (const auto& [key, values] : want) {
      const auto it = got.find(key);
      ASSERT_NE(it, got.end())
          << "run " << run << ": missing k=" << std::get<0>(key)
          << " w=" << std::get<1>(key) << " a=" << std::get<2>(key) << " ["
          << std::get<3>(key) << "," << std::get<4>(key) << ")";
      ASSERT_EQ(it->second, values)
          << "run " << run << ": k=" << std::get<0>(key)
          << " w=" << std::get<1>(key) << " a=" << std::get<2>(key) << " ["
          << std::get<3>(key) << "," << std::get<4>(key) << ")"
          << (std::get<5>(key) ? " update" : "");
      emissions += values.size();
      if (std::get<5>(key)) updates += values.size();
    }
  }
  // The configurations exercise both the trigger and the late-update path.
  EXPECT_GT(emissions, 10000u);
  EXPECT_GT(updates, 100u);
}

TEST(KeyedSlicing, LaneIsDecidedFromTheWorkload) {
  auto lane_of = [](const std::function<void(GeneralSlicingOperator&)>& add,
                    GeneralSlicingOperator::Options o = {}) {
    KeyedWindowOperator op([add, o] {
      auto inner = std::make_unique<GeneralSlicingOperator>(o);
      add(*inner);
      return inner;
    });
    return op.shares_slices();
  };
  // The Fig. 17 query set: M4 over 80 dashboard tumbling windows.
  auto fig17 = [](GeneralSlicingOperator& op) {
    op.AddAggregation(MakeAggregation("m4"));
    for (int i = 0; i < 80; ++i) {
      op.AddWindow(std::make_shared<TumblingWindow>(1000 + 19000 * i / 79));
    }
  };
  EXPECT_TRUE(lane_of(fig17));
  auto with = [fig17](WindowPtr w) {
    return [fig17, w](GeneralSlicingOperator& op) {
      fig17(op);
      op.AddWindow(w);
    };
  };
  EXPECT_TRUE(lane_of(with(std::make_shared<SlidingWindow>(100, 7))));
  EXPECT_FALSE(lane_of(with(std::make_shared<SessionWindow>(500))));
  EXPECT_FALSE(lane_of(with(std::make_shared<TumblingWindow>(
      10, Measure::kCount))));
  EXPECT_FALSE(lane_of(with(std::make_shared<PunctuationWindow>())));
  GeneralSlicingOperator::Options in_order;
  in_order.stream_in_order = true;
  EXPECT_FALSE(lane_of(fig17, in_order));
  GeneralSlicingOperator::Options eager;
  eager.store_mode = StoreMode::kEager;
  EXPECT_FALSE(lane_of(fig17, eager));
  EXPECT_FALSE(lane_of([fig17](GeneralSlicingOperator& op) {
    fig17(op);
    op.AddAggregation(MakeAggregation("median"));
  }));
}

}  // namespace
}  // namespace scotty
