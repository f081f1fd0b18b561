// Keyed slicing: the per-key layer of the Fig. 17 job on one thread.
//
// Setup: one KeyedWindowOperator over lazy slicing with M4, fed the
// football stream split over K keys, 20% out of order by up to 2 s, in
// 256-tuple columns; a watermark every 4096 tuples at max ts − 2000 and a
// final one at max ts. The windows are the first W of the 80 dashboard
// tumbling windows (lengths 1 s .. 20 s). The stream is generated before
// the clock starts. M4 regroups exactly, so the lane answers the instances
// due at a watermark from shared suffix and prefix passes; the series
// suffixed "-sum" runs sum instead, which keeps the time-ordered fold per
// instance.
//
// Per keys × windows shape it reports ingest and watermark work per tuple
// (the time spent in ProcessTupleColumns, and in ProcessWatermark plus the
// result drain), end-to-end throughput, the number of results, and the
// peak of MemoryUsageBytes sampled just before every watermark.
//
//   ./build/bench/bench_keyed_slicing

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "runtime/keyed_operator.h"

namespace scotty {
namespace bench {
namespace {

constexpr size_t kTuples = size_t{1} << 20;
constexpr size_t kColumn = 256;
constexpr size_t kWatermarkEvery = 4096;
constexpr Time kLag = 2000;

TupleBatchSoA MakeStream(int64_t keys) {
  SensorConfig config = SensorStream::Football();
  config.num_keys = keys;
  SensorStream src(config);
  OutOfOrderInjector ooo(&src, {.fraction = 0.2, .max_delay = 2000});
  TupleBatchSoA stream(kTuples);
  Tuple t;
  while (stream.size() < kTuples && ooo.Next(&t)) stream.PushBack(t);
  return stream;
}

std::unique_ptr<KeyedWindowOperator> MakeKeyed(int windows,
                                               const std::string& agg) {
  return std::make_unique<KeyedWindowOperator>([windows, agg] {
    GeneralSlicingOperator::Options o;
    o.allowed_lateness = kLag;
    auto op = std::make_unique<GeneralSlicingOperator>(o);
    op->AddAggregation(MakeAggregation(agg));
    const std::vector<WindowPtr> all = DashboardTumblingWindows(80);
    for (int i = 0; i < windows; ++i) op->AddWindow(all[static_cast<size_t>(i)]);
    return op;
  });
}

struct Shape {
  int64_t keys;
  int windows;
  std::string agg = "m4";
};

void RunShape(const Shape& shape) {
  const TupleBatchSoA stream = MakeStream(shape.keys);
  auto op = MakeKeyed(shape.windows, shape.agg);
  using Clock = std::chrono::steady_clock;
  Clock::duration ingest{};
  Clock::duration watermark{};
  std::vector<WindowResult> drained;
  uint64_t results = 0;
  size_t state_peak = 0;
  Time max_ts = kNoTime;
  auto fire = [&](Time wm) {
    state_peak = std::max(state_peak, op->MemoryUsageBytes());
    const auto t0 = Clock::now();
    op->ProcessWatermark(wm);
    drained.clear();
    op->TakeResultsInto(&drained);
    watermark += Clock::now() - t0;
    results += drained.size();
  };
  const TupleColumnsView all = stream.View();
  for (size_t i = 0; i < all.size; i += kColumn) {
    const TupleColumnsView cols =
        all.Subview(i, std::min(kColumn, all.size - i));
    for (size_t k = 0; k < cols.size; ++k) max_ts = std::max(max_ts, cols.ts[k]);
    const auto t0 = Clock::now();
    op->ProcessTupleColumns(cols);
    ingest += Clock::now() - t0;
    if ((i + cols.size) % kWatermarkEvery == 0) fire(max_ts - kLag);
  }
  fire(max_ts);

  const double n = static_cast<double>(all.size);
  const double ingest_ns =
      std::chrono::duration<double, std::nano>(ingest).count();
  const double wm_ns =
      std::chrono::duration<double, std::nano>(watermark).count();
  const std::string series =
      std::to_string(shape.keys) + "x" + std::to_string(shape.windows) +
      (shape.agg == "m4" ? "" : "-" + shape.agg);
  EmitRow("keyed_slicing", series, "ingest", ingest_ns / n, "ns/tuple");
  EmitRow("keyed_slicing", series, "watermark", wm_ns / n, "ns/tuple");
  EmitRow("keyed_slicing", series, "throughput", n / ((ingest_ns + wm_ns) * 1e-9),
          "tuples/s");
  EmitRow("keyed_slicing", series, "results", static_cast<double>(results),
          "results");
  EmitRow("keyed_slicing", series, "state-peak",
          static_cast<double>(state_peak), "bytes");
}

void Run() {
  PrintHeader("keyed_slicing",
              "keyed lazy slicing, M4 (or the suffixed aggregation) over "
              "dashboard windows (keys x windows)");
  for (const Shape& shape :
       {Shape{64, 80}, Shape{64, 10}, Shape{64, 1}, Shape{16, 80},
        Shape{1, 80}, Shape{1024, 10}, Shape{64, 80, "sum"}}) {
    RunShape(shape);
  }
}

}  // namespace
}  // namespace bench
}  // namespace scotty

int main() {
  scotty::bench::Run();
  return 0;
}
