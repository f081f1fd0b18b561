#ifndef SCOTTY_BENCH_BENCH_UTIL_H_
#define SCOTTY_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "aggregates/registry.h"
#include "common/tuple_batch.h"
#include "baselines/buckets.h"
#include "baselines/pairs.h"
#include "baselines/tuple_buffer.h"
#include "core/general_slicing_operator.h"
#include "datagen/generators.h"
#include "datagen/ooo_injector.h"
#include "datagen/workloads.h"
#include "runtime/watermarks.h"

namespace scotty {
namespace bench {

/// Techniques compared across the evaluation (paper Section 6.1 baselines).
enum class Technique {
  kLazySlicing,
  kEagerSlicing,
  kTupleBuffer,
  kAggregateTree,
  kBuckets,
  kPairs,
  kCutty,
};

inline const char* TechniqueName(Technique t) {
  switch (t) {
    case Technique::kLazySlicing:
      return "lazy-slicing";
    case Technique::kEagerSlicing:
      return "eager-slicing";
    case Technique::kTupleBuffer:
      return "tuple-buffer";
    case Technique::kAggregateTree:
      return "aggregate-tree";
    case Technique::kBuckets:
      return "buckets";
    case Technique::kPairs:
      return "pairs";
    case Technique::kCutty:
      return "cutty";
  }
  return "?";
}

/// Builds a fully-wired operator for one technique.
inline std::unique_ptr<WindowOperator> MakeTechnique(
    Technique t, bool stream_in_order, Time allowed_lateness,
    const std::vector<WindowPtr>& windows,
    const std::vector<std::string>& aggs) {
  auto add_all = [&](auto& op) {
    for (const std::string& a : aggs) op.AddAggregation(MakeAggregation(a));
    for (const WindowPtr& w : windows) op.AddWindow(w);
  };
  switch (t) {
    case Technique::kLazySlicing:
    case Technique::kEagerSlicing: {
      GeneralSlicingOperator::Options o;
      o.stream_in_order = stream_in_order;
      o.allowed_lateness = allowed_lateness;
      o.store_mode = t == Technique::kLazySlicing ? StoreMode::kLazy
                                                  : StoreMode::kEager;
      auto op = std::make_unique<GeneralSlicingOperator>(o);
      add_all(*op);
      return op;
    }
    case Technique::kTupleBuffer:
    case Technique::kAggregateTree: {
      auto op = std::make_unique<TupleBufferOperator>(
          stream_in_order, allowed_lateness,
          t == Technique::kTupleBuffer ? StoreMode::kLazy : StoreMode::kEager);
      add_all(*op);
      return op;
    }
    case Technique::kBuckets: {
      auto op = std::make_unique<BucketsOperator>(stream_in_order,
                                                  allowed_lateness);
      add_all(*op);
      return op;
    }
    case Technique::kPairs: {
      auto op = std::make_unique<PairsOperator>();
      add_all(*op);
      return op;
    }
    case Technique::kCutty: {
      auto op = std::make_unique<CuttyOperator>();
      add_all(*op);
      return op;
    }
  }
  return nullptr;
}

struct ThroughputResult {
  uint64_t tuples = 0;
  double seconds = 0.0;
  uint64_t results = 0;

  double TuplesPerSecond() const {
    return seconds > 0 ? static_cast<double>(tuples) / seconds : 0.0;
  }
};

/// Drives `src` into `op` until either `max_tuples` tuples were processed or
/// `max_seconds` wall time elapsed (whichever first). Slow baselines thus
/// stay affordable while fast techniques get a full measurement. Watermarks
/// come from a PeriodicWatermarks cadence: every `wm_every` tuples with
/// `wm_delay` slack (0 disables). A `batch_size` above 1 stages the
/// source's tuples into SoA blocks for ProcessTupleColumns, flushed when
/// full and at every watermark, so the operator observes the exact
/// tuple/watermark interleaving of the per-tuple driver.
inline ThroughputResult MeasureThroughput(WindowOperator& op, TupleSource& src,
                                          uint64_t max_tuples,
                                          double max_seconds,
                                          uint64_t wm_every = 1024,
                                          Time wm_delay = 2000,
                                          size_t batch_size = 0) {
  ThroughputResult r;
  PeriodicWatermarks cadence(wm_every, wm_delay);
  const bool columnar = batch_size > 1;
  TupleBatchSoA buf(columnar ? batch_size : 0);
  auto flush = [&] {
    if (buf.empty()) return;
    op.ProcessTupleColumns(buf.View());
    buf.Clear();
  };
  std::vector<WindowResult> drained;
  auto drain = [&] {
    drained.clear();
    op.TakeResultsInto(&drained);
    r.results += drained.size();
  };
  Tuple t;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  uint64_t i = 0;
  while (i < max_tuples && src.Next(&t)) {
    if (columnar) {
      buf.PushBack(t);
      if (buf.size() == batch_size) flush();
    } else {
      op.ProcessTuple(t);
    }
    ++i;
    const Time wm = cadence.OnTuple(t);
    if (wm != kNoTime) {
      flush();
      op.ProcessWatermark(wm);
      drain();
      // Check the clock only at watermark boundaries (cheap).
      if (elapsed() > max_seconds) break;
    }
    if ((i & 0x3FF) == 0 && elapsed() > max_seconds) break;
  }
  flush();
  r.seconds = elapsed();
  if (cadence.max_ts() != kNoTime) op.ProcessWatermark(cadence.max_ts());
  drain();
  r.tuples = i;
  return r;
}

/// Pre-generated replay measurement (the `throughput_soa` figure).
///
/// Methodology: the whole stream is synthesized into a buffer BEFORE the
/// timer starts; the timed loop only slices blocks out of it. This isolates
/// operator ingest cost from stream synthesis — the generator's per-tuple
/// work would otherwise put a ceiling on the measurement once the operator
/// sustains ~100M tuples/s. Replay rows are therefore directly comparable
/// with each other; against the inline-generation figures
/// (MeasureThroughput) they are comparable only directionally.
///
/// SoA subviews of `batch_size` tuples go through ProcessTupleColumns.
/// Zero copies in the timed loop — a subview is a handful of pointer adds.
/// One final watermark at the maximum event time closes the stream.
inline ThroughputResult MeasureThroughputReplaySoA(WindowOperator& op,
                                                  const TupleBatchSoA& stream,
                                                  size_t batch_size) {
  ThroughputResult r;
  Time max_ts = kNoTime;
  std::vector<WindowResult> drained;
  const Time* ts = stream.ts();
  const auto start = std::chrono::steady_clock::now();
  const size_t n = stream.size();
  for (size_t i = 0; i < n;) {
    const size_t limit = std::min(batch_size, n - i);
    op.ProcessTupleColumns(stream.Subview(i, limit));
    for (size_t k = 0; k < limit; ++k) {
      if (ts[i + k] > max_ts) max_ts = ts[i + k];
    }
    i += limit;
  }
  if (max_ts != kNoTime) op.ProcessWatermark(max_ts);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  drained.clear();
  op.TakeResultsInto(&drained);
  r.results += drained.size();
  r.tuples = n;
  return r;
}

/// Best-of-N replay timing for passes of tens of milliseconds, which a
/// single timed pass cannot tell apart from scheduler and cache noise: one
/// untimed warm-up pass, then timed passes until kReplayMinSeconds of pass
/// time accumulated (at least two, at most kReplayMaxPasses); the fastest
/// pass is reported, since it had the least interference. `measure` must
/// build a fresh operator or executor for every pass and return that
/// pass's ThroughputResult.
inline constexpr double kReplayMinSeconds = 0.3;
inline constexpr int kReplayMaxPasses = 50;

template <typename MeasureOnce>
double BestReplayRate(const MeasureOnce& measure) {
  measure();
  double best = 0.0;
  double total_s = 0.0;
  for (int pass = 0; pass < kReplayMaxPasses; ++pass) {
    const ThroughputResult r = measure();
    best = std::max(best, r.TuplesPerSecond());
    total_s += r.seconds;
    if (pass > 0 && total_s > kReplayMinSeconds) break;
  }
  return best;
}

/// Uniform machine-readable output: one row per measured point.
inline void PrintRow(const std::string& figure, const std::string& series,
                     const std::string& x, double y,
                     const std::string& unit) {
  std::printf("%s,%s,%s,%.6g,%s\n", figure.c_str(), series.c_str(), x.c_str(),
              y, unit.c_str());
  std::fflush(stdout);
}

inline void PrintHeader(const std::string& figure, const std::string& title) {
  std::printf("# %s — %s\n", figure.c_str(), title.c_str());
  std::printf("# columns: figure,series,x,y,unit\n");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace scotty

#endif  // SCOTTY_BENCH_BENCH_UTIL_H_
